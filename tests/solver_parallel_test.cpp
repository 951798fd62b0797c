//===- tests/solver_parallel_test.cpp - Parallel engine determinism ---------===//
//
// Covers the parallel scheduling engine end to end: the ThreadPool /
// parallelFor primitives, exact search counts of the serial branch &
// bound on ILPs built from the seed test graphs, the speculative-II
// window committing the same FinalII as the serial loop, and the
// parallel profiling sweep producing a table identical to the serial
// one.
//
//===----------------------------------------------------------------------===//

#include "core/IlpScheduler.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

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

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool primitives
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum += I; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPool, WaitIsReusableBarrier) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 10);
  }
}

TEST(ThreadPool, ResolveWorkerCountPrecedence) {
  // Explicit request always wins and the result is always positive.
  EXPECT_EQ(resolveWorkerCount(3), 3);
  EXPECT_EQ(resolveWorkerCount(1), 1);
  EXPECT_GE(resolveWorkerCount(0), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (int Jobs : {1, 2, 4}) {
    std::vector<std::atomic<int>> Hits(257);
    for (auto &H : Hits)
      H = 0;
    parallelFor(0, 257, Jobs, [&](int I) { ++Hits[I]; });
    for (int I = 0; I < 257; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " jobs " << Jobs;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  std::atomic<int> Calls{0};
  parallelFor(5, 5, 4, [&](int) { ++Calls; });
  parallelFor(7, 3, 4, [&](int) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
}

//===----------------------------------------------------------------------===//
// Serial B&B search pins on scheduling ILPs from the seed graphs
//===----------------------------------------------------------------------===//

namespace {

struct SearchCounts {
  int Nodes;
  int LpSolves;
  long long Pivots;
};

/// Builds the paper's SWP ILP for \p G at a comfortably feasible II and
/// solves it to proven optimality. The depth-first order, the warm bases
/// the children inherit and the incumbent tie-break are all fixed, so
/// the search must visit exactly \p Want nodes, LPs and pivots on every
/// run; any drift means the search order or the simplex changed.
void expectSerialSearchCounts(StreamGraph G, int Pmax, SearchCounts Want) {
  Prepared P = prepare(std::move(G));
  double T = 2.0 * computeResMII(P.Config, P.GSS, Pmax);
  auto M = buildSwpIlp(P.G, P.SS, P.Config, P.GSS, Pmax, T, 16);
  ASSERT_TRUE(M.has_value());

  MilpOptions MO;
  MO.TimeBudgetSeconds = 60.0;
  MO.StopAtFirstFeasible = false;
  MilpResult R = solveMilp(M->LP, MO);
  EXPECT_EQ(R.Outcome, MilpResult::Status::Optimal)
      << "exhaustive search truncated; counts are not comparable";
  EXPECT_EQ(R.NodesExplored, Want.Nodes);
  EXPECT_EQ(R.LpSolves, Want.LpSolves);
  EXPECT_EQ(R.Pivots, Want.Pivots);

  ASSERT_TRUE(R.hasSolution());
  SwpSchedule Sched = M->decode(R.X);
  auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, Sched);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

} // namespace

TEST(SerialBnb, PinnedCountsOnScalePipeline) {
  expectSerialSearchCounts(makeScalePipeline(), 2, {1, 1, 6});
}

TEST(SerialBnb, PinnedCountsOnFig4Graph) {
  expectSerialSearchCounts(makeFig4Graph(), 4, {211, 211, 538});
}

TEST(SerialBnb, PinnedCountsOnDupSplitGraph) {
  expectSerialSearchCounts(makeDupSplitGraph(), 4, {5829, 5829, 15363});
}

//===----------------------------------------------------------------------===//
// Speculative II window
//===----------------------------------------------------------------------===//

TEST(SpeculativeII, ParallelSearchCommitsSameII) {
  for (auto Make : {&makeScalePipeline, &makeFig4Graph,
                    &makeDupSplitGraph}) {
    Prepared P = prepare(Make());
    SchedulerOptions Serial;
    Serial.Pmax = 4;
    Serial.NumWorkers = 1;
    Serial.IIWindow = 1;
    auto S = scheduleSwp(P.G, P.SS, P.Config, P.GSS, Serial);
    ASSERT_TRUE(S.has_value());

    SchedulerOptions Par = Serial;
    Par.NumWorkers = 4;
    Par.IIWindow = 4;
    auto Q = scheduleSwp(P.G, P.SS, P.Config, P.GSS, Par);
    ASSERT_TRUE(Q.has_value());

    EXPECT_NEAR(Q->FinalII, S->FinalII, 1e-9);
    EXPECT_EQ(Q->IIAttempts, S->IIAttempts);
    auto Err = verifySchedule(P.G, P.SS, P.Config, P.GSS, Q->Schedule);
    EXPECT_FALSE(Err.has_value()) << *Err;
  }
}

TEST(SpeculativeII, TelemetryIsPopulated) {
  Prepared P = prepare(makeFig4Graph());
  SchedulerOptions SO;
  SO.Pmax = 4;
  SO.NumWorkers = 2;
  auto R = scheduleSwp(P.G, P.SS, P.Config, P.GSS, SO);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->WorkersUsed, 2);
  EXPECT_EQ(static_cast<int>(R->IIWallSeconds.size()), R->IIAttempts);
  for (double W : R->IIWallSeconds)
    EXPECT_GE(W, 0.0);
}

//===----------------------------------------------------------------------===//
// Parallel profiling sweep
//===----------------------------------------------------------------------===//

TEST(ParallelProfiler, TableIdenticalToSerial) {
  StreamGraph G = makeDupSplitGraph();
  ProfileTable Serial = profileGraph(Arch, G, LayoutKind::Shuffled, 1);
  for (int Jobs : {2, 4}) {
    ProfileTable Par = profileGraph(Arch, G, LayoutKind::Shuffled, Jobs);
    ASSERT_EQ(Par.numNodes(), Serial.numNodes());
    for (int N = 0; N < Serial.numNodes(); ++N)
      for (int R = 0; R < ProfileTable::NumRegLimits; ++R)
        for (int T = 0; T < ProfileTable::NumThreadCounts; ++T)
          EXPECT_EQ(Par.at(N, R, T), Serial.at(N, R, T))
              << "cell (" << N << "," << R << "," << T << ") jobs "
              << Jobs;
  }
}

TEST(ParallelProfiler, PartialWaveUsesCeilingDivision) {
  // 1537 firings with 512 threads is 4 waves (ceil), not 3 (trunc);
  // with 128 threads it is 13 waves. The run-time ratio of the two
  // configurations must reflect the extra partial wave.
  StreamGraph G = makeScalePipeline();
  ProfileTable Exact = profileGraph(Arch, G, LayoutKind::Shuffled, 1,
                                    /*NumFirings=*/1536);
  ProfileTable Partial = profileGraph(Arch, G, LayoutKind::Shuffled, 1,
                                      /*NumFirings=*/1537);
  // Find a feasible (reg, thread) cell for node 0 at 512 threads
  // (index 3 of {128, 256, 384, 512}).
  for (int R = 0; R < ProfileTable::NumRegLimits; ++R) {
    double E = Exact.at(0, R, 3);
    double P = Partial.at(0, R, 3);
    if (E == ProfileTable::Infeasible)
      continue;
    // 1536/512 = 3 waves exactly; 1537 firings must cost a 4th wave.
    double Launch = static_cast<double>(Arch.KernelLaunchCycles);
    double PerWave = (E - Launch) / 3.0;
    EXPECT_NEAR(P - Launch, 4.0 * PerWave, 1e-6);
  }
}
