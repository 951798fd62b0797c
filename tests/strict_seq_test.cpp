//===- tests/strict_seq_test.cpp - Strict intra-SM sequencing tests ---------===//
//
// Tests the extension over the paper's formulation: disjunctive rows
// forcing same-SM instances into disjoint [o, o+d) windows (see
// buildSwpIlp's StrictIntraSm flag).
//
//===----------------------------------------------------------------------===//

#include "core/IlpScheduler.h"
#include "ilp/BranchAndBound.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

struct Prepared {
  StreamGraph G;
  SteadyState SS;
  ExecutionConfig Config;
  GpuSteadyState GSS;
};

Prepared prepare(StreamGraph G) {
  auto SS = SteadyState::compute(G);
  EXPECT_TRUE(SS.has_value());
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  auto Config = selectExecutionConfig(*SS, PT);
  EXPECT_TRUE(Config.has_value());
  GpuSteadyState GSS =
      computeGpuSteadyState(SS->repetitions(), Config->Threads);
  return {std::move(G), std::move(*SS), std::move(*Config), GSS};
}

/// True when no two same-SM instances of \p S overlap in time.
bool windowsDisjoint(const SwpSchedule &S,
                     const std::vector<double> &Delay) {
  for (size_t A = 0; A < S.Instances.size(); ++A)
    for (size_t B = A + 1; B < S.Instances.size(); ++B) {
      const ScheduledInstance &X = S.Instances[A];
      const ScheduledInstance &Y = S.Instances[B];
      if (X.Sm != Y.Sm)
        continue;
      double XEnd = X.O + Delay[X.Node];
      double YEnd = Y.O + Delay[Y.Node];
      if (X.O < YEnd - 1e-6 && Y.O < XEnd - 1e-6)
        return false;
    }
  return true;
}

} // namespace

TEST(StrictSeq, AddsPairVariablesAndRows) {
  Prepared P = prepare(makeFig4Graph());
  double T = 4.0 * computeResMII(P.Config, P.GSS, 2);
  auto Plain = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 2, T, 8, false);
  auto Strict = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 2, T, 8, true);
  ASSERT_TRUE(Plain && Strict);
  EXPECT_TRUE(Plain->SeqPairs.empty());
  int64_t N = P.GSS.totalInstances();
  EXPECT_EQ(static_cast<int64_t>(Strict->SeqPairs.size()),
            N * (N - 1) / 2);
  EXPECT_GT(Strict->LP.numVars(), Plain->LP.numVars());
  EXPECT_GT(Strict->LP.numConstraints(), Plain->LP.numConstraints());
}

TEST(StrictSeq, SolutionsHaveDisjointWindows) {
  Prepared P = prepare(makeFig4Graph());
  // Enough II for a sequenced schedule on two SMs.
  double T = 4.0 * computeResMII(P.Config, P.GSS, 2);
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 2, T, 8, true);
  ASSERT_TRUE(M.has_value());
  MilpOptions MO;
  MO.TimeBudgetSeconds = 10.0;
  MilpResult R = solveMilp(M->LP, MO);
  ASSERT_TRUE(R.hasSolution()) << "strict model should be feasible";
  SwpSchedule S = M->decode(R.X);
  EXPECT_TRUE(windowsDisjoint(S, P.Config.Delay));
  // And it still satisfies the paper's constraints.
  EXPECT_FALSE(
      verifySchedule(P.G, P.SS, P.Config, P.GSS, S).has_value());
}

TEST(StrictSeq, SequencedIncumbentSatisfiesModel) {
  // A heuristic schedule whose same-SM windows happen to be disjoint
  // must encode to a feasible strict-model assignment.
  Prepared P = prepare(makeScalePipeline());
  double T = 8.0 * computeResMII(P.Config, P.GSS, 2);
  auto Heur = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 2, T, 16);
  ASSERT_TRUE(Heur.has_value());
  if (!windowsDisjoint(*Heur, P.Config.Delay))
    GTEST_SKIP() << "heuristic produced overlapping windows here";
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 2, T, 16, true);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->LP.isFeasible(M->encode(*Heur), 1e-5));
}

TEST(StrictSeq, TightensFeasibility) {
  // With every instance forced onto ONE SM at an II just above the sum
  // of delays, the plain model is feasible but any schedule must fit the
  // instances back to back; the strict model must therefore also be
  // feasible at that II but infeasible below the delay sum.
  Prepared P = prepare(makeFig4Graph());
  double Sum = 0.0;
  double MaxD = 0.0;
  for (int V = 0; V < P.G.numNodes(); ++V) {
    Sum += P.Config.Delay[V] * static_cast<double>(P.GSS.Instances[V]);
    MaxD = std::max(MaxD, P.Config.Delay[V]);
  }
  // On one SM, an II below the total work violates constraint (2) in
  // both models; between that and the strict packing bound the strict
  // model can only be feasible if windows fit exactly.
  auto Strict =
      buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 1, Sum * 1.05, 16, true);
  ASSERT_TRUE(Strict.has_value());
  MilpOptions MO;
  MO.TimeBudgetSeconds = 10.0;
  MilpResult R = solveMilp(Strict->LP, MO);
  ASSERT_TRUE(R.hasSolution());
  SwpSchedule S = Strict->decode(R.X);
  EXPECT_TRUE(windowsDisjoint(S, P.Config.Delay));
}

TEST(StrictSeq, SchedulerOptionProducesDisjointWindows) {
  Prepared P = prepare(makeScalePipeline());
  SchedulerOptions SO;
  SO.Pmax = 2;
  SO.UseIlp = true;
  SO.IlpEvenIfHeuristicSucceeds = true;
  SO.TimeBudgetSeconds = 5.0;
  // Run the paper loop, then re-solve the accepted II strictly.
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 2,
                       R->FinalII * 1.5, 16, true);
  ASSERT_TRUE(M.has_value());
  MilpOptions MO;
  MO.TimeBudgetSeconds = 10.0;
  MilpResult MR = solveMilp(M->LP, MO);
  ASSERT_TRUE(MR.hasSolution());
  EXPECT_TRUE(windowsDisjoint(M->decode(MR.X), P.Config.Delay));
}
