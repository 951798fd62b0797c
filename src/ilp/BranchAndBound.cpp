//===- ilp/BranchAndBound.cpp - MILP branch & bound --------------------------===//

#include "ilp/BranchAndBound.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace sgpu;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One tightened variable bound relative to the root LP.
struct BoundsPatch {
  int Var;
  double Lo, Hi;
};

/// A pending node of the search tree. Patches accumulate root-to-node
/// (later entries override earlier ones for the same variable, and are
/// always tighter). Path records the branch directions taken from the
/// root and serves as the node's deterministic id. Warm carries the
/// parent relaxation's final basis: only bounds changed on the way
/// down, so it stays dual feasible and the child LP is usually a few
/// dual pivots (Simplex.h).
struct Subproblem {
  std::vector<BoundsPatch> Patches;
  std::vector<uint8_t> Path;
  SimplexBasis Warm;
};

class BnbSearch {
public:
  BnbSearch(LinearProgram LP, const MilpOptions &Opt)
      : Root(std::move(LP)), Opt(Opt),
        FeasibilityOnly(Root.objective().empty()) {}

  MilpResult run(const std::optional<std::vector<double>> &Incumbent) {
    TraceSpan Span("bnb.solve", "ilp");
    Start = Clock::now();
    metricCounter("bnb.solves").add(1);

    if (Incumbent && Root.isFeasible(*Incumbent, Opt.IntegralityTol)) {
      Best = *Incumbent;
      BestObj = Root.objectiveValue(*Incumbent);
      BestPath.clear();
      HaveBest = true;
      if (Opt.StopAtFirstFeasible)
        return finish(MilpResult::Status::Optimal);
    }

    Subproblem RootNode;
    RootNode.Warm = Opt.WarmBasis;
    Stack.push_back(std::move(RootNode));
    CEnqueued.add(1);

    // Subproblem bounds are applied to this copy of the root LP before
    // each relaxation and restored afterwards.
    LinearProgram LP = Root;
    while (!Stack.empty()) {
      Subproblem Node = std::move(Stack.back());
      Stack.pop_back();
      processNode(LP, Node);
    }
    Span.argInt("nodes", Nodes);

    bool Complete = !Truncated && !FoundStop;
    if (HaveBest)
      return finish(Complete ? MilpResult::Status::Optimal
                             : MilpResult::Status::Feasible);
    return finish(Complete ? MilpResult::Status::Infeasible
                           : MilpResult::Status::BudgetExceeded);
  }

private:
  void processNode(LinearProgram &LP, Subproblem &Node) {
    if (++Nodes > Opt.MaxNodes || timedOut()) {
      cutSearch();
      return;
    }

    for (const BoundsPatch &P : Node.Patches)
      LP.setBounds(P.Var, P.Lo, P.Hi);
    evaluate(LP, Node);
    for (const BoundsPatch &P : Node.Patches)
      LP.setBounds(P.Var, Root.lowerBound(P.Var), Root.upperBound(P.Var));
  }

  void evaluate(LinearProgram &LP, Subproblem &Node) {
    double Remaining = Opt.TimeBudgetSeconds - secondsSince(Start);
    if (Remaining <= 0) {
      cutSearch();
      return;
    }
    LpResult R =
        solveLpRelaxation(LP, Opt.LpIterationLimit, Remaining,
                          Node.Warm.empty() ? nullptr : &Node.Warm);
    ++LpSolves;
    SimplexIters += R.Iterations;
    SimplexPivots += R.Pivots;
    if (!Node.Warm.empty() && R.StartKind != LpResult::Start::Cold)
      ++WarmLpStarts;
    CSolved.add(1);
    if (R.Status == LpStatus::Infeasible) {
      CPrunedInfeas.add(1);
      return; // Pruned exactly.
    }
    if (R.Status != LpStatus::Optimal) {
      // Numerical trouble: give up on proving this subtree.
      Truncated = true;
      return;
    }

    // Bound pruning against the incumbent. Feasibility-only models
    // (empty objective) are pruned by the first-found incumbent: no node
    // can improve on an objective of zero.
    if (HaveBest &&
        (FeasibilityOnly || R.Objective >= BestObj - Opt.BoundPruneTol)) {
      CPrunedBound.add(1);
      return;
    }

    // Find the most fractional integer variable.
    int BranchVar = -1;
    double BestFrac = Opt.IntegralityTol;
    for (int V = 0; V < LP.numVars(); ++V) {
      if (!LP.isIntegral(V))
        continue;
      double F = R.X[V] - std::floor(R.X[V]);
      double Dist = std::min(F, 1.0 - F);
      if (Dist > BestFrac) {
        BestFrac = Dist;
        BranchVar = V;
      }
    }

    if (BranchVar < 0) {
      // Integral solution. Round integer vars exactly.
      std::vector<double> X = R.X;
      for (int V = 0; V < LP.numVars(); ++V)
        if (LP.isIntegral(V))
          X[V] = std::round(X[V]);
      if (LP.isFeasible(X, 1e-5)) {
        double Obj = LP.objectiveValue(X);
        offerIncumbent(std::move(X), Obj, Node.Path);
      }
      // Either way this subtree is fully explored.
      return;
    }

    double Val = R.X[BranchVar];
    double Lo = LP.lowerBound(BranchVar);
    double Hi = LP.upperBound(BranchVar);

    // Branch down (x <= floor) and up (x >= ceil). For 0-1 assignment
    // problems the side nearer the fractional value finds schedules
    // faster, so it is explored first: pushed last, popped first. Both
    // children inherit this node's final basis as their warm start.
    bool UpFirst = Val - std::floor(Val) >= 0.5;
    int Pushed = 0;
    Subproblem Children[2];
    for (int Side = 1; Side >= 0; --Side) {
      bool Up = (Side == 0) == UpFirst;
      double NewLo = Up ? std::ceil(Val - Opt.IntegralityTol) : Lo;
      double NewHi = Up ? Hi : std::floor(Val + Opt.IntegralityTol);
      if (NewLo > NewHi + 1e-12)
        continue;
      Subproblem &Child = Children[Pushed];
      Child.Patches = Node.Patches;
      Child.Patches.push_back({BranchVar, NewLo, NewHi});
      Child.Path = Node.Path;
      Child.Path.push_back(Up ? 1 : 0);
      ++Pushed;
    }
    if (Pushed == 0)
      return;
    // Reuse the basis without copying where possible.
    if (Pushed == 2)
      Children[0].Warm = R.Basis;
    Children[Pushed - 1].Warm = std::move(R.Basis);
    for (int I = 0; I < Pushed; ++I)
      Stack.push_back(std::move(Children[I]));
    CEnqueued.add(Pushed);
  }

  /// Installs a new incumbent. Ties on objective break towards the
  /// lexicographically smallest branch path, so the chosen incumbent is
  /// a function of the search tree alone, not of the order in which
  /// equal-objective leaves are reached.
  void offerIncumbent(std::vector<double> X, double Obj,
                      const std::vector<uint8_t> &Path) {
    bool Better = !HaveBest || Obj < BestObj - 1e-12 ||
                  (Obj <= BestObj + 1e-12 && Path < BestPath);
    if (Better) {
      Best = std::move(X);
      BestObj = Obj;
      BestPath = Path;
      HaveBest = true;
      CIncumbents.add(1);
    }
    if (Opt.StopAtFirstFeasible) {
      FoundStop = true;
      cutSearch();
    }
  }

  /// Ends the search: pending subproblems are dropped (the search is
  /// recorded as truncated unless the stop came from StopAtFirstFeasible).
  /// Every caller returns without pushing children, so the drain loop
  /// finds the stack empty and stops.
  void cutSearch() {
    if (!FoundStop)
      Truncated = true;
    Stack.clear();
    CCuts.add(1);
  }

  bool timedOut() const { return secondsSince(Start) > Opt.TimeBudgetSeconds; }

  MilpResult finish(MilpResult::Status S) {
    MilpResult Res;
    Res.Outcome = S;
    Res.NodesExplored = Nodes;
    Res.Seconds = secondsSince(Start);
    Res.LpSolves = LpSolves;
    Res.SimplexIterations = SimplexIters;
    Res.Pivots = SimplexPivots;
    Res.WarmLpStarts = WarmLpStarts;
    metricHistogram("bnb.solve.seconds").record(Res.Seconds);
    if (HaveBest) {
      Res.X = Best;
      Res.Objective = BestObj;
      if (S == MilpResult::Status::Infeasible ||
          S == MilpResult::Status::BudgetExceeded)
        Res.Outcome = MilpResult::Status::Feasible;
    }
    return Res;
  }

  LinearProgram Root;
  MilpOptions Opt;
  bool FeasibilityOnly;
  Clock::time_point Start;

  /// Pending subproblems, drained LIFO: a depth-first dive.
  std::vector<Subproblem> Stack;
  bool Truncated = false;
  bool FoundStop = false;

  bool HaveBest = false;
  std::vector<double> Best;
  std::vector<uint8_t> BestPath;
  double BestObj = 0.0;

  int Nodes = 0;
  int LpSolves = 0;
  long long SimplexIters = 0, SimplexPivots = 0, WarmLpStarts = 0;

  // Node-lifecycle counters in the process-wide registry. Looked up once
  // per search; the references stay valid across MetricsRegistry::reset().
  Counter &CEnqueued = metricCounter("bnb.nodes_enqueued");
  Counter &CSolved = metricCounter("bnb.nodes_solved");
  Counter &CPrunedInfeas = metricCounter("bnb.pruned_infeasible");
  Counter &CPrunedBound = metricCounter("bnb.pruned_bound");
  Counter &CIncumbents = metricCounter("bnb.incumbents");
  Counter &CCuts = metricCounter("bnb.budget_cuts");
};

} // namespace

MilpResult sgpu::solveMilp(LinearProgram LP, const MilpOptions &Options,
                           const std::optional<std::vector<double>> &Incumbent) {
  BnbSearch S(std::move(LP), Options);
  return S.run(Incumbent);
}
