//===- tests/profile_test.cpp - Profiling and Algorithm 7 tests -------------===//

#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

} // namespace

TEST(Profiler, NumFiringsDivisibleByAllThreadCounts) {
  StreamGraph G = makeScalePipeline();
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  for (int T = 0; T < ProfileTable::NumThreadCounts; ++T)
    EXPECT_EQ(PT.numFirings() % ProfileThreadCounts[T], 0)
        << "Fig. 6 requires equal work per configuration";
}

TEST(Profiler, InfeasiblePairsMarkedInfinity) {
  StreamGraph G = makeScalePipeline();
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  // regs=64 x threads=512 exceeds the register file.
  EXPECT_EQ(PT.at(0, 3, 3), ProfileTable::Infeasible);
  // regs=16 x threads=512 fits.
  EXPECT_LT(PT.at(0, 0, 3), ProfileTable::Infeasible);
}

TEST(Profiler, MoreThreadsMoreThroughput) {
  // For a compute-bound filter the same total work should not get slower
  // with more threads (latency hiding improves).
  StreamGraph G = makeScalePipeline();
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  EXPECT_LE(PT.at(0, 0, 3), PT.at(0, 0, 0) * 1.01);
}

TEST(Profiler, CoalescingAffectsRunTimes) {
  // Profile the multirate graph both ways; the non-coalesced layout must
  // never be faster for a pop-rate > 1 filter.
  StreamGraph G = makeFig4Graph();
  ProfileTable Coal = profileGraph(Arch, G, LayoutKind::Shuffled);
  ProfileTable Seq = profileGraph(Arch, G, LayoutKind::Sequential);
  int RidxOf32 = 2, TidxOf256 = 1;
  EXPECT_LE(Coal.at(1, RidxOf32, TidxOf256),
            Seq.at(1, RidxOf32, TidxOf256));
}

TEST(ConfigSelection, PicksFeasibleGlobalPair) {
  StreamGraph G = makeFig4Graph();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  auto Config = selectExecutionConfig(*SS, PT);
  ASSERT_TRUE(Config.has_value());
  EXPECT_TRUE(Config->RegLimit == 16 || Config->RegLimit == 20 ||
              Config->RegLimit == 32 || Config->RegLimit == 64);
  for (int64_t T : Config->Threads) {
    EXPECT_GE(T, 128);
    EXPECT_LE(T, Config->NumThreads);
  }
  for (double D : Config->Delay)
    EXPECT_GT(D, 0.0);
}

TEST(ConfigSelection, CandidatesEnumerated) {
  StreamGraph G = makeScalePipeline();
  auto SS = SteadyState::compute(G);
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  std::vector<ConfigCandidate> Cands;
  auto Config = selectExecutionConfig(*SS, PT, &Cands);
  ASSERT_TRUE(Config.has_value());
  EXPECT_EQ(Cands.size(), 16u); // 4 register limits x 4 thread counts.
  int Feasible = 0;
  for (const ConfigCandidate &C : Cands)
    Feasible += C.Feasible;
  EXPECT_GT(Feasible, 0);
  // The winner's scaled II must be minimal among feasible candidates.
  double Best = ProfileTable::Infeasible;
  for (const ConfigCandidate &C : Cands)
    if (C.Feasible)
      Best = std::min(Best, C.WorkScaledII);
  bool WinnerSeen = false;
  for (const ConfigCandidate &C : Cands)
    if (C.Feasible && C.RegLimit == Config->RegLimit &&
        C.NumThreads == Config->NumThreads &&
        C.WorkScaledII <= Best + 1e-12)
      WinnerSeen = true;
  EXPECT_TRUE(WinnerSeen);
}

TEST(ConfigSelection, FixedConfigMatchesRequest) {
  StreamGraph G = makeScalePipeline();
  auto SS = SteadyState::compute(G);
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  auto Config = makeFixedConfig(*SS, PT, 32, 256);
  ASSERT_TRUE(Config.has_value());
  EXPECT_EQ(Config->RegLimit, 32);
  EXPECT_EQ(Config->NumThreads, 256);
  for (int64_t T : Config->Threads)
    EXPECT_EQ(T, 256);
}

TEST(ConfigSelection, FixedConfigRejectsInfeasible) {
  StreamGraph G = makeScalePipeline();
  auto SS = SteadyState::compute(G);
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  EXPECT_FALSE(makeFixedConfig(*SS, PT, 64, 512).has_value());
}

TEST(GpuSteadyState, CoarseningDividesInstances) {
  // Base reps {3, 2} with 256/128 threads: M = lcm(256/gcd(256,3),
  // 128/gcd(128,2)) = lcm(256, 64) = 256.
  GpuSteadyState GSS = computeGpuSteadyState({3, 2}, {256, 128});
  EXPECT_EQ(GSS.Multiplier, 256);
  EXPECT_EQ(GSS.Instances[0], 3);
  EXPECT_EQ(GSS.Instances[1], 4);
  // Balance is preserved: instances * threads == reps * multiplier.
  EXPECT_EQ(GSS.Instances[0] * 256, 3 * GSS.Multiplier);
  EXPECT_EQ(GSS.Instances[1] * 128, 2 * GSS.Multiplier);
}

TEST(GpuSteadyState, UniformThreadsGiveOneInstance) {
  GpuSteadyState GSS = computeGpuSteadyState({1, 1, 1}, {128, 128, 128});
  EXPECT_EQ(GSS.Multiplier, 128);
  for (int64_t I : GSS.Instances)
    EXPECT_EQ(I, 1);
}
