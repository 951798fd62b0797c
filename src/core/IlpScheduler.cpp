//===- core/IlpScheduler.cpp - II search driving the ILP --------------------===//

#include "core/IlpScheduler.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace sgpu;

namespace {

using Clock = std::chrono::steady_clock;

/// Everything one candidate II produced. Evaluations are independent —
/// each builds its own heuristic schedule and MILP — so a window of them
/// can run concurrently.
struct CandidateOutcome {
  bool Feasible = false;
  SwpSchedule Schedule;
  bool UsedIlp = false;
  bool UsedHeuristic = false;
  bool DidIlp = false; ///< The exact solver was actually invoked.
  double SolverSeconds = 0.0;
  int SolverNodes = 0;
  long long LpSolves = 0;
  long long SimplexIters = 0;
  long long Pivots = 0;
  long long WarmStarts = 0;
  double WallSeconds = 0.0;
};

/// Evaluates one candidate II exactly the way the paper's serial loop
/// does: heuristic first (it doubles as the MILP incumbent), then the
/// exact solver when allowed, ILP solution preferred over the heuristic.
CandidateOutcome evaluateCandidate(const StreamGraph &G,
                                   const SteadyState &SS,
                                   const ExecutionConfig &Config,
                                   const GpuSteadyState &GSS,
                                   const SchedulerOptions &Options, double T,
                                   bool AllowIlp,
                                   const SimplexBasis *Seed,
                                   const MachineModel *Machine) {
  CandidateOutcome Out;
  TraceSpan Span("ii.candidate", "schedule");
  Span.argNum("ii", T);
  metricCounter("scheduler.ii_candidates").add(1);
  auto WallStart = Clock::now();

  std::optional<SwpSchedule> Heur = buildHeuristicSchedule(
      G, SS, Config, GSS, Options.Pmax, T, Options.MaxStages, Machine);
  if (Heur && verifySchedule(G, SS, Config, GSS, *Heur, Machine))
    Heur.reset(); // The verifier rejected it; treat as absent.

  bool WantIlp = AllowIlp && Options.UseIlp &&
                 GSS.totalInstances() <= Options.MaxIlpInstances &&
                 (!Heur || Options.IlpEvenIfHeuristicSucceeds);

  if (WantIlp) {
    Out.DidIlp = true; // Counts against MaxIlpAttempts even if the
                       // model below fails to build.
    if (std::optional<IlpModel> M =
            buildSwpIlp(G, SS, Config, GSS, Options.Pmax, T,
                        Options.MaxStages, false, Machine)) {
      MilpOptions MO;
      MO.TimeBudgetSeconds = Options.TimeBudgetSeconds;
      MO.MaxNodes = Options.MaxIlpNodes;
      MO.LpIterationLimit = Options.MaxLpIterations;
      if (Seed)
        MO.WarmBasis = *Seed; // Same LP shape at every candidate II.
      std::optional<std::vector<double>> Incumbent;
      if (Heur)
        Incumbent = M->encode(*Heur);
      MilpResult MR = solveMilp(M->LP, MO, Incumbent);
      Out.SolverSeconds = MR.Seconds;
      Out.SolverNodes = MR.NodesExplored;
      Out.LpSolves = MR.LpSolves;
      Out.SimplexIters = MR.SimplexIterations;
      Out.Pivots = MR.Pivots;
      Out.WarmStarts = MR.WarmLpStarts;
      if (MR.hasSolution()) {
        SwpSchedule S = M->decode(MR.X);
        if (!verifySchedule(G, SS, Config, GSS, S, Machine)) {
          Out.Schedule = std::move(S);
          Out.UsedIlp = true;
          Out.Feasible = true;
        }
      }
    }
  }

  if (!Out.Feasible && Heur) {
    Out.Schedule = std::move(*Heur);
    Out.UsedHeuristic = true;
    Out.Feasible = true;
  }
  Out.WallSeconds =
      std::chrono::duration<double>(Clock::now() - WallStart).count();
  Span.argInt("feasible", Out.Feasible ? 1 : 0);
  Span.argStr("via", Out.UsedIlp ? "ilp"
                                 : (Out.UsedHeuristic ? "heuristic" : "none"));
  if (Out.Feasible)
    metricCounter("scheduler.ii_feasible").add(1);
  return Out;
}

/// Folds one visited candidate's solver effort into the search totals.
void accumulate(ScheduleResult &Res, const CandidateOutcome &Out) {
  ++Res.IIAttempts;
  Res.SolverSeconds += Out.SolverSeconds;
  Res.SolverNodes += Out.SolverNodes;
  Res.SolverLpSolves += Out.LpSolves;
  Res.SolverSimplexIters += Out.SimplexIters;
  Res.SolverPivots += Out.Pivots;
  Res.SolverWarmStarts += Out.WarmStarts;
  Res.IIWallSeconds.push_back(Out.WallSeconds);
}

/// The paper's relaxation step: "the II is relaxed by 0.5% and the
/// process is repeated until a feasible solution was found" (Section V).
double nextCandidate(double T, const SchedulerOptions &Options) {
  return std::max(T * Options.RelaxFactor, T + 1e-6);
}

void commit(ScheduleResult &Res, CandidateOutcome &&Out, double T) {
  Res.Schedule = std::move(Out.Schedule);
  Res.UsedIlp = Out.UsedIlp;
  Res.UsedHeuristic = Out.UsedHeuristic;
  Res.FinalII = T;
  Res.RelaxationPercent = (T / Res.MII - 1.0) * 100.0;
  metricGauge("scheduler.final_ii").set(T);
}

} // namespace

std::optional<ScheduleResult>
sgpu::scheduleSwp(const StreamGraph &G, const SteadyState &SS,
                  const ExecutionConfig &Config, const GpuSteadyState &GSS,
                  const SchedulerOptions &Options,
                  const MachineModel *Machine) {
  StageTimer Timer("core.schedule");
  metricCounter("scheduler.runs").add(1);
  ScheduleResult Res;
  Res.ResMII = computeResMII(Config, GSS, Options.Pmax, Machine);
  Res.RecMII = computeCoarsenedRecMII(G, SS, Config, GSS, Machine);
  Res.MII = std::max(Res.ResMII, Res.RecMII);
  if (Res.MII <= 0.0)
    return std::nullopt;

  int Workers = resolveWorkerCount(Options.NumWorkers);
  int Window = Options.IIWindow > 0 ? Options.IIWindow
                                    : std::min(4, Workers);
  Window = std::max(1, Window);
  Res.WorkersUsed = Workers;

  double T = Res.MII;
  double Limit = Res.MII * Options.MaxRelaxFactor;
  int IlpAttempts = 0;

  // Seed solve: one serial LP relaxation at T = MII whose final basis
  // warm-starts the root of every candidate's branch & bound — the
  // candidate LPs differ from the seed only in coefficient values (the
  // II appears in constraint (8) and the OMax bounds), not in shape, so
  // one basis serves the whole window. Running it before the window
  // also keeps the basis identical however many candidates run
  // concurrently, preserving bit-identical results across --jobs.
  SimplexBasis SeedBasis;
  if (Options.UseIlp && GSS.totalInstances() <= Options.MaxIlpInstances) {
    if (std::optional<IlpModel> M =
            buildSwpIlp(G, SS, Config, GSS, Options.Pmax, T,
                        Options.MaxStages, false, Machine)) {
      auto SeedStart = Clock::now();
      LpResult Seed = solveLpRelaxation(M->LP, Options.MaxLpIterations,
                                        Options.TimeBudgetSeconds);
      Res.SolverSeconds +=
          std::chrono::duration<double>(Clock::now() - SeedStart).count();
      ++Res.SolverLpSolves;
      Res.SolverSimplexIters += Seed.Iterations;
      Res.SolverPivots += Seed.Pivots;
      SeedBasis = std::move(Seed.Basis); // Usable whatever the status.
      metricCounter("scheduler.seed_lps").add(1);
    }
  }

  while (T <= Limit) {
    // Materialize the next window of candidate IIs (window 1 == the
    // paper's serial loop).
    std::vector<double> Candidates;
    double Tw = T;
    for (int I = 0; I < Window && Tw <= Limit; ++I) {
      Candidates.push_back(Tw);
      Tw = nextCandidate(Tw, Options);
    }
    int W = static_cast<int>(Candidates.size());
    if (W == 0)
      break;

    // ILP permission per slot mirrors the serial gate: along a failed
    // prefix every candidate costs one exact-solver attempt, so slot I
    // is allowed the ILP only while IlpAttempts + I stays under the cap.
    std::vector<CandidateOutcome> Outcomes(W);
    parallelFor(0, W, std::min(W, Workers), [&](int I) {
      Outcomes[I] = evaluateCandidate(G, SS, Config, GSS, Options,
                                      Candidates[I],
                                      IlpAttempts + I < Options.MaxIlpAttempts,
                                      SeedBasis.empty() ? nullptr : &SeedBasis,
                                      Machine);
    });

    // Commit the smallest feasible candidate — "first feasible II wins"
    // — charging the search only for candidates the serial loop would
    // have visited (the committed one and everything below it).
    for (int I = 0; I < W; ++I) {
      accumulate(Res, Outcomes[I]);
      if (Outcomes[I].DidIlp)
        ++IlpAttempts;
      if (Outcomes[I].Feasible) {
        commit(Res, std::move(Outcomes[I]), Candidates[I]);
        return Res;
      }
    }
    T = Tw;
  }
  return std::nullopt;
}
