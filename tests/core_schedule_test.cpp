//===- tests/core_schedule_test.cpp - ILP formulation & scheduler tests -----===//

#include "core/IlpScheduler.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

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
  GpuSteadyState GSS = computeGpuSteadyState(SS->repetitions(),
                                             Config->Threads);
  return {std::move(G), std::move(*SS), std::move(*Config), GSS};
}

} // namespace

TEST(IlpFormulation, VariableAndConstraintCounts) {
  Prepared P = prepare(makeFig4Graph());
  int Pmax = 4;
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, Pmax, /*T=*/1e9,
                       /*MaxStages=*/8);
  ASSERT_TRUE(M.has_value());
  int64_t Insts = P.GSS.totalInstances();
  // w per (instance, SM) + o + f per instance + one g per dependence.
  EXPECT_EQ(M->LP.numVars(),
            Insts * Pmax + 2 * Insts +
                static_cast<int64_t>(M->Deps.size()));
  // (1) per instance + (2) per SM + (7) 2P per dep + (8) 2 per dep.
  EXPECT_EQ(M->LP.numConstraints(),
            Insts + Pmax +
                static_cast<int64_t>(M->Deps.size()) * (2 * Pmax + 2));
}

TEST(IlpFormulation, InfeasibleWhenDelayExceedsII) {
  Prepared P = prepare(makeFig4Graph());
  EXPECT_FALSE(
      buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 4, /*T=*/0.5, 8).has_value());
}

TEST(IlpFormulation, EncodeDecodeRoundTrip) {
  Prepared P = prepare(makeFig4Graph());
  double T = 4.0 * computeResMII(P.Config, P.GSS, 4);
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, 4, T, 8);
  ASSERT_TRUE(M.has_value());
  auto Heur = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 4, T, 8);
  ASSERT_TRUE(Heur.has_value());
  std::vector<double> X = M->encode(*Heur);
  EXPECT_TRUE(M->LP.isFeasible(X, 1e-5))
      << "a verified heuristic schedule must satisfy the paper's ILP";
  SwpSchedule Back = M->decode(X);
  for (size_t I = 0; I < Back.Instances.size(); ++I) {
    const ScheduledInstance &A = Back.Instances[I];
    const ScheduledInstance &B = Heur->instance(A.Node, A.K);
    EXPECT_EQ(A.Sm, B.Sm);
    EXPECT_EQ(A.F, B.F);
    EXPECT_NEAR(A.O, B.O, 1e-9);
  }
}

TEST(ResMII, MatchesWorkOverProcessors) {
  ExecutionConfig C;
  C.Delay = {10.0, 20.0};
  GpuSteadyState GSS;
  GSS.Instances = {3, 2};
  // Total work 70 over 4 SMs = 17.5, but one instance takes 20.
  EXPECT_DOUBLE_EQ(computeResMII(C, GSS, 4), 20.0);
  EXPECT_DOUBLE_EQ(computeResMII(C, GSS, 2), 35.0);
}

TEST(HeuristicScheduler, ProducesVerifiableSchedule) {
  Prepared P = prepare(makeFig4Graph());
  double T = 2.0 * computeResMII(P.Config, P.GSS, 4);
  auto S = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 4, T, 16);
  ASSERT_TRUE(S.has_value());
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, *S);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(HeuristicScheduler, FailsBelowResMII) {
  Prepared P = prepare(makeFig4Graph());
  double MII = computeResMII(P.Config, P.GSS, 4);
  EXPECT_FALSE(
      buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 4, 0.5 * MII, 16)
          .has_value());
}

TEST(Scheduler, FindsScheduleAtOrNearMII) {
  Prepared P = prepare(makeFig4Graph());
  SchedulerOptions SO;
  SO.Pmax = 4;
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  EXPECT_GE(R->FinalII, R->MII);
  // ResMII treats work as divisible, but instances are atomic per SM
  // (constraint 2): with 5 equal-delay instances on 4 SMs the best
  // achievable II is already 60% above sum/P. Accept up to one extra
  // instance's worth of relaxation.
  EXPECT_LE(R->RelaxationPercent, 100.0);
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, R->Schedule);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(Scheduler, IlpPathProducesValidSchedules) {
  Prepared P = prepare(makeFig4Graph());
  SchedulerOptions SO;
  SO.Pmax = 2;
  SO.IlpEvenIfHeuristicSucceeds = true;
  SO.TimeBudgetSeconds = 5.0;
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->UsedIlp || R->UsedHeuristic);
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, R->Schedule);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(Scheduler, SplitJoinGraph) {
  Prepared P = prepare(makeDupSplitGraph());
  SchedulerOptions SO;
  SO.Pmax = 4;
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, R->Schedule);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(Scheduler, PeekingGraph) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeOffsetFloat("Pre", 1.0)));
  Parts.push_back(filterStream(makeMovingSum("MS", 8)));
  Prepared P = prepare(flatten(*pipelineStream(std::move(Parts))));
  SchedulerOptions SO;
  SO.Pmax = 2;
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, R->Schedule);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(Verifier, CatchesOverloadedSm) {
  Prepared P = prepare(makeFig4Graph());
  double T = 2.0 * computeResMII(P.Config, P.GSS, 4);
  auto S = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 4, T, 16);
  ASSERT_TRUE(S.has_value());
  // Cram everything onto SM 0 and shrink the II below the total work.
  for (ScheduledInstance &SI : S->Instances)
    SI.Sm = 0;
  S->II = computeResMII(P.Config, P.GSS, 1) * 0.9;
  for (ScheduledInstance &SI : S->Instances)
    SI.O = 0.0;
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, *S);
  ASSERT_TRUE(Err.has_value());
}

TEST(Verifier, CatchesCrossSmSameIterationUse) {
  Prepared P = prepare(makeScalePipeline());
  double T = 10.0 * computeResMII(P.Config, P.GSS, 2);
  auto S = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 2, T, 16);
  ASSERT_TRUE(S.has_value());
  ASSERT_FALSE(verifySchedule(P.G, P.SS, P.Config, P.GSS, *S));
  // Force a producer and consumer onto different SMs in the same stage
  // with adjacent slots: legal time-wise (8a) but illegal per (8b).
  SwpSchedule Bad = *S;
  for (ScheduledInstance &SI : Bad.Instances) {
    SI.F = 0;
    SI.O = SI.Node * (T / 8.0);
    SI.Sm = SI.Node % 2;
  }
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, Bad);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("8b"), std::string::npos) << *Err;
}

TEST(Verifier, CatchesMissingInstances) {
  Prepared P = prepare(makeFig4Graph());
  double T = 2.0 * computeResMII(P.Config, P.GSS, 4);
  auto S = buildHeuristicSchedule(P.G, P.SS, P.Config, P.GSS, 4, T, 16);
  ASSERT_TRUE(S.has_value());
  S->Instances.pop_back();
  EXPECT_TRUE(verifySchedule(P.G, P.SS, P.Config, P.GSS, *S).has_value());
}
