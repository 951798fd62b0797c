//===- tests/ilp_test.cpp - Simplex and branch & bound tests ----------------===//

#include "ilp/BranchAndBound.h"
#include "ilp/Simplex.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sgpu;

TEST(Simplex, TwoVarMaximization) {
  // min -x - y s.t. x + 2y <= 4, 3x + y <= 6, 0 <= x,y <= 10.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 10);
  int Y = LP.addContinuousVar("y", 0, 10);
  LP.addConstraint({{X, 1}, {Y, 2}}, RowSense::LE, 4);
  LP.addConstraint({{X, 3}, {Y, 1}}, RowSense::LE, 6);
  LP.setObjective({{X, -1}, {Y, -1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  // Optimum at intersection: x = 8/5, y = 6/5, obj = -14/5.
  EXPECT_NEAR(R.X[X], 1.6, 1e-6);
  EXPECT_NEAR(R.X[Y], 1.2, 1e-6);
  EXPECT_NEAR(R.Objective, -2.8, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + y = 5, x - y = 1.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 100);
  int Y = LP.addContinuousVar("y", 0, 100);
  LP.addConstraint({{X, 1}, {Y, 1}}, RowSense::EQ, 5);
  LP.addConstraint({{X, 1}, {Y, -1}}, RowSense::EQ, 1);
  LP.setObjective({{X, 1}, {Y, 1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[X], 3.0, 1e-6);
  EXPECT_NEAR(R.X[Y], 2.0, 1e-6);
}

TEST(Simplex, GreaterEqualNeedsPhase1) {
  // min x s.t. x >= 3.5.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 100);
  LP.addConstraint({{X, 1}}, RowSense::GE, 3.5);
  LP.setObjective({{X, 1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[X], 3.5, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 1);
  LP.addConstraint({{X, 1}}, RowSense::GE, 2.0);
  LpResult R = solveLpRelaxation(LP);
  EXPECT_EQ(R.Status, LpStatus::Infeasible);
}

TEST(Simplex, RespectsUpperBoundsWithoutRows) {
  // max x + y with only variable bounds: lands at the corner.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 2.5);
  int Y = LP.addContinuousVar("y", 1, 4);
  LP.addConstraint({{X, 1}, {Y, 1}}, RowSense::LE, 100);
  LP.setObjective({{X, -1}, {Y, -1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[X], 2.5, 1e-6);
  EXPECT_NEAR(R.X[Y], 4.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Highly degenerate: many redundant constraints through the origin.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 10);
  int Y = LP.addContinuousVar("y", 0, 10);
  for (int I = 1; I <= 6; ++I)
    LP.addConstraint({{X, double(I)}, {Y, 1.0}}, RowSense::GE, 0.0);
  LP.addConstraint({{X, 1}, {Y, 1}}, RowSense::LE, 3);
  LP.setObjective({{X, -1}, {Y, -2}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -6.0, 1e-6);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x with x >= 2 and no upper bound: x grows without limit.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, LinearProgram::Infinity);
  LP.addConstraint({{X, 1}}, RowSense::GE, 2.0);
  LP.setObjective({{X, -1}});
  LpResult R = solveLpRelaxation(LP);
  EXPECT_EQ(R.Status, LpStatus::Unbounded);
}

TEST(Simplex, EqualityOnlySystemWithoutObjective) {
  // A pure equality system (no objective): phase 1 must land exactly on
  // the unique solution x = 4, y = 1, z = 2.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 100);
  int Y = LP.addContinuousVar("y", 0, 100);
  int Z = LP.addContinuousVar("z", 0, 100);
  LP.addConstraint({{X, 1}, {Y, 1}, {Z, 1}}, RowSense::EQ, 7);
  LP.addConstraint({{X, 1}, {Y, -1}}, RowSense::EQ, 3);
  LP.addConstraint({{Z, 2}}, RowSense::EQ, 4);
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.X[X], 4.0, 1e-6);
  EXPECT_NEAR(R.X[Y], 1.0, 1e-6);
  EXPECT_NEAR(R.X[Z], 2.0, 1e-6);
}

TEST(Simplex, IterationLimitPath) {
  // A phase-1-requiring system given a 1-iteration budget must come
  // back with IterLimit rather than a wrong answer.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 100);
  int Y = LP.addContinuousVar("y", 0, 100);
  LP.addConstraint({{X, 1}, {Y, 2}}, RowSense::GE, 10);
  LP.addConstraint({{X, 3}, {Y, 1}}, RowSense::GE, 12);
  LP.setObjective({{X, 1}, {Y, 1}});
  LpResult R = solveLpRelaxation(LP, /*MaxIterations=*/1);
  EXPECT_EQ(R.Status, LpStatus::IterLimit);
  EXPECT_LE(R.Iterations, 1);
}

TEST(Simplex, ReportsPivotAndIterationCounters) {
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 10);
  int Y = LP.addContinuousVar("y", 0, 10);
  LP.addConstraint({{X, 1}, {Y, 2}}, RowSense::LE, 4);
  LP.addConstraint({{X, 3}, {Y, 1}}, RowSense::LE, 6);
  LP.setObjective({{X, -1}, {Y, -1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_GE(R.Pivots, 1);
  EXPECT_GE(R.Iterations, R.Pivots); // Bound flips never pivot.
}

TEST(Simplex, DegeneratePivotsWithDuplicateTerms) {
  // Redundant rows through the optimum plus duplicate terms per row:
  // exercises the sparse-column merge and the stall/Bland guard.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 8);
  int Y = LP.addContinuousVar("y", 0, 8);
  for (int I = 1; I <= 5; ++I)
    LP.addConstraint({{X, double(I)}, {X, double(I)}, {Y, 2.0}},
                     RowSense::LE, 16.0 * I);
  LP.addConstraint({{X, 1}, {Y, 1}}, RowSense::LE, 8);
  LP.setObjective({{X, -2}, {Y, -1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -16.0, 1e-6); // x = 8, y = 0.
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic cycling example: under naive Dantzig pricing with
  // fixed tie-breaks the tableau method loops forever at the origin.
  // The stall guard must kick the solve to Bland's rule and terminate
  // at the true optimum -0.05 (x1 = 1/25, x3 = 1).
  LinearProgram LP;
  int X1 = LP.addContinuousVar("x1", 0, LinearProgram::Infinity);
  int X2 = LP.addContinuousVar("x2", 0, LinearProgram::Infinity);
  int X3 = LP.addContinuousVar("x3", 0, LinearProgram::Infinity);
  int X4 = LP.addContinuousVar("x4", 0, LinearProgram::Infinity);
  LP.addConstraint({{X1, 0.25}, {X2, -60}, {X3, -0.04}, {X4, 9}},
                   RowSense::LE, 0);
  LP.addConstraint({{X1, 0.5}, {X2, -90}, {X3, -0.02}, {X4, 3}},
                   RowSense::LE, 0);
  LP.addConstraint({{X3, 1}}, RowSense::LE, 1);
  LP.setObjective({{X1, -0.75}, {X2, 150}, {X3, -0.02}, {X4, 6}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -0.05, 1e-6);
  EXPECT_NEAR(R.X[X1], 0.04, 1e-6);
  EXPECT_NEAR(R.X[X3], 1.0, 1e-6);
}

TEST(Simplex, LongPivotChainForcesRefactorization) {
  // x_i >= x_{i-1} + 1 down a 100-link chain: minimizing the last
  // variable takes a pivot per link, far past the eta-update cap, so
  // the factorization must be rebuilt mid-solve at least once (the
  // initial factorization is the first count).
  LinearProgram LP;
  const int N = 100;
  std::vector<int> X(N);
  for (int I = 0; I < N; ++I)
    X[I] = LP.addContinuousVar("x" + std::to_string(I), 0,
                               LinearProgram::Infinity);
  LP.addConstraint({{X[0], 1}}, RowSense::GE, 1);
  for (int I = 1; I < N; ++I)
    LP.addConstraint({{X[I], 1}, {X[I - 1], -1}}, RowSense::GE, 1);
  LP.setObjective({{X[N - 1], 1}});
  LpResult R = solveLpRelaxation(LP);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, double(N), 1e-5);
  EXPECT_GT(R.Pivots, 64); // Past the update cap by construction.
  EXPECT_GE(R.Refactorizations, 2);
  EXPECT_GT(R.EtaUpdates, 0);
}

TEST(Simplex, WarmStartAfterBoundChangeMatchesCold) {
  // Solve, tighten a bound so the old optimum is cut off, then re-solve
  // from the exported basis: the dual repair must land on the same
  // optimum a cold solve finds, without starting from scratch.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 10);
  int Y = LP.addContinuousVar("y", 0, 10);
  LP.addConstraint({{X, 1}, {Y, 2}}, RowSense::LE, 4);
  LP.addConstraint({{X, 3}, {Y, 1}}, RowSense::LE, 6);
  LP.setObjective({{X, -1}, {Y, -1}});
  LpResult First = solveLpRelaxation(LP);
  ASSERT_EQ(First.Status, LpStatus::Optimal);
  ASSERT_FALSE(First.Basis.empty());
  EXPECT_NEAR(First.X[X], 1.6, 1e-6); // Optimum about to be cut off.

  LP.setBounds(X, 0, 1); // Branch-style tightening.
  LpResult Warm = solveLpRelaxation(LP, 50000, 1e30, &First.Basis);
  LpResult Cold = solveLpRelaxation(LP);
  ASSERT_EQ(Warm.Status, LpStatus::Optimal);
  ASSERT_EQ(Cold.Status, LpStatus::Optimal);
  EXPECT_NE(Warm.StartKind, LpResult::Start::Cold);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Warm.X[X], 1.0, 1e-6);
  EXPECT_NEAR(Warm.X[Y], 1.5, 1e-6);
}

TEST(Simplex, WarmStartStillFeasibleSkipsRepair) {
  // A bound change that leaves the old optimum feasible: the warm solve
  // must recognize primal feasibility and go straight to phase 2.
  LinearProgram LP;
  int X = LP.addContinuousVar("x", 0, 10);
  int Y = LP.addContinuousVar("y", 0, 10);
  LP.addConstraint({{X, 1}, {Y, 2}}, RowSense::LE, 4);
  LP.addConstraint({{X, 3}, {Y, 1}}, RowSense::LE, 6);
  LP.setObjective({{X, -1}, {Y, -1}});
  LpResult First = solveLpRelaxation(LP);
  ASSERT_EQ(First.Status, LpStatus::Optimal);

  LP.setBounds(X, 0, 5); // Still contains x = 1.6.
  LpResult Warm = solveLpRelaxation(LP, 50000, 1e30, &First.Basis);
  ASSERT_EQ(Warm.Status, LpStatus::Optimal);
  EXPECT_EQ(Warm.StartKind, LpResult::Start::Warm);
  EXPECT_NEAR(Warm.Objective, First.Objective, 1e-9);
}

TEST(Milp, BinaryKnapsack) {
  // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary): pick a and b.
  LinearProgram LP;
  int A = LP.addBinaryVar("a");
  int B = LP.addBinaryVar("b");
  int C = LP.addBinaryVar("c");
  LP.addConstraint({{A, 1}, {B, 1}, {C, 1}}, RowSense::LE, 2);
  LP.setObjective({{A, -10}, {B, -6}, {C, -4}});
  MilpOptions MO;
  MO.StopAtFirstFeasible = false;
  MilpResult R = solveMilp(LP, MO);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_EQ(R.Outcome, MilpResult::Status::Optimal);
  EXPECT_NEAR(R.Objective, -16.0, 1e-6);
  EXPECT_NEAR(R.X[A], 1.0, 1e-6);
  EXPECT_NEAR(R.X[B], 1.0, 1e-6);
  EXPECT_NEAR(R.X[C], 0.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // min -x s.t. 2x <= 7, x integer: x = 3, not 3.5.
  LinearProgram LP;
  int X = LP.addIntVar("x", 0, 100);
  LP.addConstraint({{X, 2}}, RowSense::LE, 7);
  LP.setObjective({{X, -1}});
  MilpOptions MO;
  MO.StopAtFirstFeasible = false;
  MilpResult R = solveMilp(LP, MO);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_NEAR(R.X[X], 3.0, 1e-6);
}

TEST(Milp, ProvenInfeasible) {
  // a + b = 1 and a + b = 2 cannot both hold.
  LinearProgram LP;
  int A = LP.addBinaryVar("a");
  int B = LP.addBinaryVar("b");
  LP.addConstraint({{A, 1}, {B, 1}}, RowSense::EQ, 1);
  LP.addConstraint({{A, 1}, {B, 1}}, RowSense::EQ, 2);
  MilpResult R = solveMilp(LP);
  EXPECT_EQ(R.Outcome, MilpResult::Status::Infeasible);
  EXPECT_FALSE(R.hasSolution());
}

TEST(Milp, FeasibilityProblemStopsAtFirst) {
  // Pure feasibility: any assignment of 3 items to 2 bins with capacity.
  LinearProgram LP;
  std::vector<std::vector<int>> W(3, std::vector<int>(2));
  for (int I = 0; I < 3; ++I) {
    for (int P = 0; P < 2; ++P)
      W[I][P] = LP.addBinaryVar("w" + std::to_string(I) +
                                std::to_string(P));
    LP.addConstraint({{W[I][0], 1}, {W[I][1], 1}}, RowSense::EQ, 1);
  }
  for (int P = 0; P < 2; ++P)
    LP.addConstraint({{W[0][P], 5}, {W[1][P], 4}, {W[2][P], 3}},
                     RowSense::LE, 8);
  MilpResult R = solveMilp(LP);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_TRUE(LP.isFeasible(R.X));
}

TEST(Milp, IncumbentShortCircuits) {
  LinearProgram LP;
  int A = LP.addBinaryVar("a");
  int B = LP.addBinaryVar("b");
  LP.addConstraint({{A, 1}, {B, 1}}, RowSense::GE, 1);
  std::vector<double> Incumbent = {1.0, 0.0};
  MilpResult R = solveMilp(LP, MilpOptions(), Incumbent);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_EQ(R.NodesExplored, 0);
  EXPECT_EQ(R.X, Incumbent);
}

TEST(Milp, TimeBudgetRespected) {
  // A hard-ish random-looking subset-sum; the budget must bound time.
  LinearProgram LP;
  std::vector<LinTerm> Row;
  for (int I = 0; I < 24; ++I) {
    int V = LP.addBinaryVar("x" + std::to_string(I));
    Row.push_back({V, double(100 + 17 * I % 97)});
  }
  LP.addConstraint(Row, RowSense::EQ, 1111.5); // Unsatisfiable (half).
  MilpOptions MO;
  MO.TimeBudgetSeconds = 0.2;
  MilpResult R = solveMilp(LP, MO);
  EXPECT_LT(R.Seconds, 5.0);
  EXPECT_FALSE(R.hasSolution());
}

namespace {

/// A 0-1 optimization model with a genuine search tree: weighted set
/// packing over overlapping triples.
LinearProgram makePackingMilp(int Items) {
  LinearProgram LP;
  std::vector<int> Vars(Items);
  std::vector<LinTerm> Obj;
  for (int I = 0; I < Items; ++I) {
    Vars[I] = LP.addBinaryVar("x" + std::to_string(I));
    Obj.push_back({Vars[I], -double(11 + (I * 7) % 13)});
  }
  for (int I = 0; I + 2 < Items; ++I)
    LP.addConstraint(
        {{Vars[I], 1}, {Vars[I + 1], 1}, {Vars[I + 2], 1}}, RowSense::LE,
        2);
  LP.setObjective(std::move(Obj));
  return LP;
}

/// The packing model plus a knapsack budget row: the relaxation's
/// optimum is fractional, so the branch & bound genuinely branches.
LinearProgram makeBranchyMilp(int Items) {
  LinearProgram LP = makePackingMilp(Items);
  std::vector<LinTerm> Budget;
  for (int I = 0; I < Items; ++I)
    Budget.push_back({I, double(5 + (I * 13) % 23)});
  LP.addConstraint(Budget, RowSense::LE, 6.0 * Items);
  return LP;
}

} // namespace

TEST(MilpParallel, FeasibilityModelPrunedByFirstIncumbent) {
  // Pure feasibility (empty objective): once any incumbent exists every
  // remaining node is pruned, even with StopAtFirstFeasible off.
  LinearProgram LP;
  std::vector<int> Vars;
  for (int I = 0; I < 10; ++I)
    Vars.push_back(LP.addBinaryVar("b" + std::to_string(I)));
  std::vector<LinTerm> Row;
  for (int V : Vars)
    Row.push_back({V, 1.0});
  LP.addConstraint(Row, RowSense::GE, 5);
  MilpOptions MO;
  MO.StopAtFirstFeasible = false;
  MilpResult R = solveMilp(LP, MO);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_EQ(R.Outcome, MilpResult::Status::Optimal);
  // Without incumbent pruning this feasibility tree has hundreds of
  // nodes; first-found pruning collapses it.
  EXPECT_LT(R.NodesExplored, 64);
}

TEST(MilpParallel, BoundPruneToleranceIsConfigurable) {
  LinearProgram LP = makePackingMilp(12);
  MilpOptions MO;
  MO.StopAtFirstFeasible = false;
  MO.BoundPruneTol = 1e-3; // Coarser pruning must not change the optimum.
  MilpResult R = solveMilp(LP, MO);
  MilpOptions Tight = MO;
  Tight.BoundPruneTol = 1e-12;
  MilpResult T = solveMilp(makePackingMilp(12), Tight);
  ASSERT_TRUE(R.hasSolution());
  ASSERT_TRUE(T.hasSolution());
  EXPECT_NEAR(R.Objective, T.Objective, 1e-6);
}

TEST(MilpParallel, SolverTelemetryIsPopulated) {
  MilpOptions MO;
  MO.StopAtFirstFeasible = false;
  MilpResult R = solveMilp(makeBranchyMilp(14), MO);
  ASSERT_TRUE(R.hasSolution());
  EXPECT_GT(R.NodesExplored, 1); // Fractional relaxation: it branches.
  EXPECT_GE(R.LpSolves, R.NodesExplored / 2); // Most nodes solve an LP.
  EXPECT_GE(R.SimplexIterations, R.Pivots);
  // Every non-root node carries its parent's basis, so most node LPs
  // warm-start.
  EXPECT_GT(R.WarmLpStarts, 0);
}

TEST(MilpParallel, RootWarmBasisIsAccepted) {
  // Seed the root with the basis of its own relaxation (the II search
  // seeds candidates this way): the root LP must warm-start too.
  LinearProgram LP = makeBranchyMilp(14);
  LpResult Seed = solveLpRelaxation(LP);
  ASSERT_EQ(Seed.Status, LpStatus::Optimal);
  MilpOptions Cold;
  Cold.StopAtFirstFeasible = false;
  MilpOptions WarmOpt = Cold;
  WarmOpt.WarmBasis = Seed.Basis;
  MilpResult Warm = solveMilp(makeBranchyMilp(14), WarmOpt);
  MilpResult Bare = solveMilp(makeBranchyMilp(14), Cold);
  ASSERT_TRUE(Warm.hasSolution());
  ASSERT_TRUE(Bare.hasSolution());
  EXPECT_NEAR(Warm.Objective, Bare.Objective, 1e-9);
  // The warm run's root LP resumes from the seed basis; the bare run's
  // root is the only cold node either way.
  EXPECT_GT(Warm.WarmLpStarts, 0);
  EXPECT_GE(Warm.WarmLpStarts, Bare.WarmLpStarts);
}

TEST(LinearProgram, FeasibilityChecker) {
  LinearProgram LP;
  int X = LP.addIntVar("x", 0, 5);
  int Y = LP.addContinuousVar("y", 0, 5);
  LP.addConstraint({{X, 1}, {Y, 1}}, RowSense::LE, 6);
  EXPECT_TRUE(LP.isFeasible({2.0, 3.5}));
  EXPECT_FALSE(LP.isFeasible({2.5, 3.0})); // x not integral.
  EXPECT_FALSE(LP.isFeasible({5.0, 2.0})); // Row violated.
  EXPECT_FALSE(LP.isFeasible({6.0, 0.0})); // Bound violated.
}

//===----------------------------------------------------------------------===//
// Hybrid (CPU+GPU) SWP formulation
//===----------------------------------------------------------------------===//

#include "core/IlpFormulation.h"

#include "testing/TestGraphs.h"

namespace {

using namespace sgpu;
using namespace sgpu::testing;

/// A three-filter chain (S2 -> S3 -> S5, all rate 1->1) with
/// hand-written per-class delays: one instance per node, so every
/// ILP row is small enough to reason about by hand.
struct HybridToy {
  StreamGraph G;
  std::optional<SteadyState> SS;
  ExecutionConfig Config;
  GpuSteadyState GSS;
  MachineModel Machine;

  int id(const std::string &Name) const {
    for (const GraphNode &N : G.nodes())
      if (N.Name == Name)
        return N.Id;
    ADD_FAILURE() << "no node named " << Name;
    return -1;
  }
};

HybridToy makeHybridToy() {
  HybridToy T;
  T.G = makeScalePipeline();
  T.SS = SteadyState::compute(T.G);
  EXPECT_TRUE(T.SS.has_value());
  size_t N = static_cast<size_t>(T.G.numNodes());
  T.Config.Threads.assign(N, 1);
  T.GSS = computeGpuSteadyState(T.SS->repetitions(), T.Config.Threads);
  // S3 is 10x too slow for the GPU but cheap on the host; the other two
  // filters prefer the GPU.
  T.Config.Delay.assign(N, 10.0);
  T.Config.CpuDelay.assign(N, 50.0);
  T.Config.Delay[static_cast<size_t>(T.id("S3#1"))] = 100.0;
  T.Config.CpuDelay[static_cast<size_t>(T.id("S3#1"))] = 20.0;
  // Two SMs (16 KiB shared each) plus one CPU core with a 2 MiB cache.
  T.Machine.Classes.push_back({ProcClassKind::GpuSm, 2, 16384});
  T.Machine.Classes.push_back({ProcClassKind::CpuCore, 1, 2 << 20});
  T.Machine.MaxCoarsen = 8;
  return T;
}

} // namespace

TEST(HybridIlp, HandComputedOptimalAssignment) {
  HybridToy T = makeHybridToy();
  // At II = 60 the GPU cannot run S3 at all (delay 100 > 60, rows 2/4'),
  // and the core cannot take a second filter on top of it (20 + 50 > 60,
  // row 2'). The only feasible class split is S3 on the host, S2/S5 on
  // SMs — any feasible MILP point must reproduce it.
  auto M = buildSwpIlp(T.G, *T.SS, T.Config, T.GSS,
                       /*Pmax=*/T.Machine.totalProcs(), /*T=*/60.0,
                       /*MaxStages=*/8, /*StrictIntraSm=*/false,
                       &T.Machine);
  ASSERT_TRUE(M.has_value());
  MilpResult MR = solveMilp(M->LP);
  ASSERT_TRUE(MR.hasSolution());
  SwpSchedule S = M->decode(MR.X);
  int NumGpuSms = T.Machine.numGpuSms();
  for (const ScheduledInstance &SI : S.Instances) {
    if (SI.Node == T.id("S3#1"))
      EXPECT_GE(SI.Sm, NumGpuSms) << "S3 must land on the CPU core";
    else
      EXPECT_LT(SI.Sm, NumGpuSms)
          << T.G.node(SI.Node).Name << " must stay on an SM";
  }
}

TEST(HybridIlp, CpuCoreExpandsFeasibility) {
  HybridToy T = makeHybridToy();
  // GPU-only at the same II is infeasible: S3's 100-cycle delay alone
  // exceeds T = 60 on every SM.
  EXPECT_FALSE(buildSwpIlp(T.G, *T.SS, T.Config, T.GSS, /*Pmax=*/2,
                           /*T=*/60.0, 8)
                   .has_value());
  EXPECT_TRUE(buildSwpIlp(T.G, *T.SS, T.Config, T.GSS,
                          T.Machine.totalProcs(), /*T=*/60.0, 8,
                          /*StrictIntraSm=*/false, &T.Machine)
                  .has_value());
}

TEST(HybridIlp, ClassCapacityInfeasibilityDetected) {
  HybridToy T = makeHybridToy();
  // One coarsening unit's working set here is 8 bytes (2 tokens x 4
  // bytes, one thread). A 4-byte CPU cache cannot hold even one unit:
  // the coarsening bound is undefined and the whole model infeasible.
  T.Machine.Classes[1].MemBytes = 4;
  EXPECT_FALSE(computeClassCoarsening(T.G, T.Config, T.Machine)
                   .has_value());
  EXPECT_FALSE(buildSwpIlp(T.G, *T.SS, T.Config, T.GSS,
                           T.Machine.totalProcs(), /*T=*/1e9, 8,
                           /*StrictIntraSm=*/false, &T.Machine)
                   .has_value());
}

TEST(HybridIlp, CoarseningVariableObeysMemoryBound) {
  HybridToy T = makeHybridToy();
  // ws = 8 bytes: a 64-byte SM budget caps the class at 8 units (also
  // the MaxCoarsen cap), a 24-byte cache at 3.
  T.Machine.Classes[0].MemBytes = 64;
  T.Machine.Classes[1].MemBytes = 24;
  auto Bounds = computeClassCoarsening(T.G, T.Config, T.Machine);
  ASSERT_TRUE(Bounds.has_value());
  ASSERT_EQ(Bounds->size(), 2u);
  EXPECT_EQ((*Bounds)[0], 8);
  EXPECT_EQ((*Bounds)[1], 3);

  auto M = buildSwpIlp(T.G, *T.SS, T.Config, T.GSS,
                       T.Machine.totalProcs(), /*T=*/400.0, 8,
                       /*StrictIntraSm=*/false, &T.Machine);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->CoarsenBound, *Bounds);
  MilpOptions MO;
  MO.StopAtFirstFeasible = false; // Solve to proven optimality.
  MilpResult MR = solveMilp(M->LP, MO);
  ASSERT_TRUE(MR.hasSolution());
  SwpSchedule S = M->decode(MR.X);
  ASSERT_EQ(S.ClassCoarsening.size(), 2u);
  for (size_t C = 0; C < 2; ++C) {
    EXPECT_GE(S.ClassCoarsening[C], 1);
    EXPECT_LE(S.ClassCoarsening[C], (*Bounds)[C]);
  }
  // The objective's -1e-3 coarsening reward drives every class to its
  // memory bound at optimality.
  EXPECT_EQ(S.ClassCoarsening[0], 8);
  EXPECT_EQ(S.ClassCoarsening[1], 3);
}
