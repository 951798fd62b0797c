//===- tests/functional_sim_test.cpp - SWP functional execution tests -------===//

#include "gpusim/FunctionalSim.h"

#include "core/IlpScheduler.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

struct Compiled {
  StreamGraph G;
  SteadyState SS;
  ExecutionConfig Config;
  GpuSteadyState GSS;
  SwpSchedule Schedule;
};

Compiled compile(StreamGraph G, int Pmax = 4) {
  auto SS = SteadyState::compute(G);
  EXPECT_TRUE(SS.has_value());
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  auto Config = selectExecutionConfig(*SS, PT);
  EXPECT_TRUE(Config.has_value());
  GpuSteadyState GSS =
      computeGpuSteadyState(SS->repetitions(), Config->Threads);
  SchedulerOptions SO;
  SO.Pmax = Pmax;
  auto R = scheduleSwp(G, *SS, *Config, GSS, SO);
  EXPECT_TRUE(R.has_value());
  return {std::move(G), std::move(*SS), std::move(*Config), GSS,
          std::move(R->Schedule)};
}

std::vector<Scalar> intInput(int64_t N, uint64_t Seed = 1) {
  Rng R(Seed);
  std::vector<Scalar> V;
  for (int64_t I = 0; I < N; ++I)
    V.push_back(Scalar::makeInt(R.nextInt(100)));
  return V;
}

std::vector<Scalar> floatInput(int64_t N, uint64_t Seed = 2) {
  Rng R(Seed);
  std::vector<Scalar> V;
  for (int64_t I = 0; I < N; ++I)
    V.push_back(Scalar::makeFloat(R.nextFloat(2.0f)));
  return V;
}

} // namespace

TEST(FunctionalSim, PipelineMatchesReference) {
  Compiled C = compile(makeScalePipeline());
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(3));
  auto Err = checkScheduleAgainstReference(C.G, C.SS, C.Config, C.GSS,
                                           C.Schedule, In, 3);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(FunctionalSim, MultiRateMatchesReference) {
  Compiled C = compile(makeFig4Graph());
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(2));
  auto Err = checkScheduleAgainstReference(C.G, C.SS, C.Config, C.GSS,
                                           C.Schedule, In, 2);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(FunctionalSim, SplitJoinMatchesReference) {
  Compiled C = compile(makeDupSplitGraph());
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(2));
  auto Err = checkScheduleAgainstReference(C.G, C.SS, C.Config, C.GSS,
                                           C.Schedule, In, 2);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(FunctionalSim, PeekingGraphMatchesReference) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeOffsetFloat("Pre", 0.25)));
  Parts.push_back(filterStream(makeMovingSum("MS", 4)));
  Compiled C = compile(flatten(*pipelineStream(std::move(Parts))), 2);
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  std::vector<Scalar> In = floatInput(Sim.inputTokensNeeded(2));
  auto Err = checkScheduleAgainstReference(C.G, C.SS, C.Config, C.GSS,
                                           C.Schedule, In, 2);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(FunctionalSim, DetectsCrossSmRace) {
  Compiled C = compile(makeScalePipeline(), 2);
  // Corrupt the schedule: put everything in stage 0 on alternating SMs;
  // the functional sim must flag the same-invocation cross-SM read.
  SwpSchedule Bad = C.Schedule;
  for (ScheduledInstance &SI : Bad.Instances) {
    SI.F = 0;
    SI.Sm = SI.Node % 2;
    SI.O = SI.Node * (Bad.II / 4.0);
  }
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, Bad);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(2));
  FunctionalRunResult R = Sim.run(In, 2);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("before it is reliably visible"),
            std::string::npos)
      << R.Error;
}

TEST(FunctionalSim, RejectsShortInput) {
  Compiled C = compile(makeScalePipeline());
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  std::vector<Scalar> In = intInput(4); // Far too little.
  FunctionalRunResult R = Sim.run(In, 2);
  EXPECT_FALSE(R.Ok);
}

TEST(FunctionalSim, OutputVolumeMatchesSteadyState) {
  Compiled C = compile(makeFig4Graph());
  SwpFunctionalSim Sim(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  int64_t Iterations = 2;
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(Iterations));
  FunctionalRunResult R = Sim.run(In, Iterations);
  ASSERT_TRUE(R.Ok) << R.Error;
  int Exit = C.G.exitNode();
  int64_t Expect =
      (C.SS.initFirings()[Exit] +
       Iterations * C.GSS.Instances[Exit] * C.Config.Threads[Exit]) *
      C.G.node(Exit).TheFilter->pushRate();
  EXPECT_EQ(static_cast<int64_t>(R.Output.size()), Expect);
}
