//===- tests/model_test.cpp - Cost model and schedule helper tests ----------===//

#include "core/CpuBaseline.h"
#include "core/ExecutionModel.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

GraphNode filterNode(FilterPtr F) {
  GraphNode N;
  N.Kind = NodeKind::Filter;
  N.TheFilter = std::move(F);
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// buildInstanceCost paths
//===----------------------------------------------------------------------===//

TEST(InstanceCostModel, ShuffledIsAlwaysCoalesced) {
  GraphNode N = filterNode(makeFig4A());
  WorkEstimate WE = nodeWorkEstimate(N);
  InstanceCost C = buildInstanceCost(Arch, N, WE, 256, 32,
                                     LayoutKind::Shuffled);
  EXPECT_DOUBLE_EQ(C.TxnsPerAccess, 1.0 / 16.0);
  EXPECT_EQ(C.SharedAccesses, 0);
}

TEST(InstanceCostModel, SequentialSmallWorkingSetStages) {
  // pop 1/push 2 with 256 threads: (256*1 + 0 + 256*2)*4 = 3 KB working
  // set fits 16 KB shared memory -> SWPNC stages it coalesced.
  GraphNode N = filterNode(makeFig4A());
  WorkEstimate WE = nodeWorkEstimate(N);
  InstanceCost C = buildInstanceCost(Arch, N, WE, 256, 32,
                                     LayoutKind::Sequential);
  EXPECT_DOUBLE_EQ(C.TxnsPerAccess, 1.0 / 16.0);
  EXPECT_GT(C.SharedAccesses, 0);
}

TEST(InstanceCostModel, SequentialLargeWorkingSetSerializes) {
  // A pop-64 filter at 512 threads: 64*4*512 = 128 KB working set blows
  // the 16 KB budget, so the strided pattern serializes fully.
  FilterBuilder B("Wide", TokenType::Float, TokenType::Float);
  B.setRates(64, 64);
  const VarDecl *I = B.beginFor("i", B.litI(0), B.litI(64));
  (void)I;
  B.push(B.pop());
  B.endFor();
  GraphNode N = filterNode(B.build());
  WorkEstimate WE = nodeWorkEstimate(N);
  InstanceCost C = buildInstanceCost(Arch, N, WE, 512, 32,
                                     LayoutKind::Sequential);
  EXPECT_DOUBLE_EQ(C.TxnsPerAccess, 1.0);
  EXPECT_EQ(C.SharedAccesses, 0);
}

TEST(InstanceCostModel, RegisterSpillsAddTraffic) {
  FilterBuilder B("Fat", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  const Expr *V = B.pop();
  std::vector<const VarDecl *> Vars;
  for (int I = 0; I < 40; ++I) {
    Vars.push_back(B.declVar("v" + std::to_string(I), V));
    V = B.add(B.ref(Vars.back()), B.litF(1.0));
  }
  B.push(V);
  GraphNode N = filterNode(B.build());
  WorkEstimate WE = nodeWorkEstimate(N);
  ASSERT_GT(WE.Registers, 16);
  InstanceCost Tight = buildInstanceCost(Arch, N, WE, 128, 16,
                                         LayoutKind::Shuffled);
  InstanceCost Roomy = buildInstanceCost(Arch, N, WE, 128, 64,
                                         LayoutKind::Shuffled);
  EXPECT_GT(Tight.SpillAccesses, Roomy.SpillAccesses);
}

TEST(InstanceCostModel, SplitterIsPureDataMovement) {
  GraphNode N;
  N.Kind = NodeKind::Splitter;
  N.SplitKind = SplitterKind::RoundRobin;
  N.Weights = {4, 4};
  WorkEstimate WE = nodeWorkEstimate(N);
  EXPECT_EQ(WE.TranscOps, 0);
  EXPECT_EQ(WE.ChannelReads, 8);
  EXPECT_EQ(WE.ChannelWrites, 8);
  EXPECT_EQ(WE.FloatOps, 0);
}

//===----------------------------------------------------------------------===//
// SwpSchedule helpers
//===----------------------------------------------------------------------===//

TEST(SwpScheduleHelpers, SmOrderSortsByO) {
  SwpSchedule S;
  S.II = 100.0;
  S.Pmax = 2;
  S.Instances = {
      {0, 0, 0, 50.0, 0}, {1, 0, 0, 10.0, 1}, {2, 0, 1, 5.0, 0},
      {3, 0, 0, 30.0, 0},
  };
  auto Order = S.smOrder(0);
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0]->Node, 1);
  EXPECT_EQ(Order[1]->Node, 3);
  EXPECT_EQ(Order[2]->Node, 0);
  EXPECT_EQ(S.smOrder(1).size(), 1u);
}

TEST(SwpScheduleHelpers, StageSpanAndSigma) {
  SwpSchedule S;
  S.II = 10.0;
  S.Pmax = 1;
  S.Instances = {{0, 0, 0, 2.0, 1}, {1, 0, 0, 4.0, 4}};
  EXPECT_EQ(S.stageSpan(), 3);
  EXPECT_DOUBLE_EQ(SwpSchedule::sigma(10.0, S.Instances[1]), 44.0);
  EXPECT_EQ(S.instance(1, 0).F, 4);
}

//===----------------------------------------------------------------------===//
// CPU baseline
//===----------------------------------------------------------------------===//

TEST(CpuBaseline, ScalesWithWork) {
  StreamGraph Small = makeScalePipeline();
  StreamGraph Big = makeFig4Graph();
  auto SSmall = SteadyState::compute(Small);
  auto SBig = SteadyState::compute(Big);
  ASSERT_TRUE(SSmall && SBig);
  EXPECT_GT(cpuCyclesPerBaseIteration(*SSmall), 0.0);
  // The multirate graph does strictly more firings per iteration.
  EXPECT_GT(cpuCyclesPerBaseIteration(*SBig),
            cpuCyclesPerBaseIteration(*SSmall) * 0.5);
}

TEST(CpuBaseline, TranscendentalsAreExpensive) {
  CpuModel M;
  EXPECT_GT(M.CyclesPerTransc, 10 * M.CyclesPerAluOp);
}

TEST(CpuBaseline, SpeedupMath) {
  // 2x the cycles at 2x the clock is a wash.
  EXPECT_DOUBLE_EQ(speedupOverCpu(2000.0, 2.0, 1000.0, 1.0), 1.0);
  // Same cycles, GPU at half the clock: CPU wins 2x -> speedup 0.5.
  EXPECT_DOUBLE_EQ(speedupOverCpu(1000.0, 2.0, 1000.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(speedupOverCpu(1000.0, 1.0, 0.0, 1.0), 0.0);
}

//===----------------------------------------------------------------------===//
// Producer-side access patterns through a consumer-keyed layout
//===----------------------------------------------------------------------===//

TEST(AccessAnalyzerCrossKey, MismatchedKeySerializesUnderStrictRule) {
  // G80 coalescing is all or nothing (thread N must hit WarpBase + N): a
  // producer writing at rate 2 through a layout keyed at rate 4 breaks
  // the pattern and serializes completely, exactly like the sequential
  // layout. This is why the compiler keys each buffer's permutation to
  // its accessor's own rate (Eq. 10 for pops, Eq. 11 for pushes) rather
  // than sharing one key across a rate-mismatched edge.
  AccessSummary Cross =
      analyzeStridedAccess(LayoutKind::Shuffled, 256, 2, 4);
  EXPECT_DOUBLE_EQ(Cross.transactionsPerAccess(), 1.0);
  // Keyed to its own rate, the same traffic coalesces fully.
  AccessSummary Matched =
      analyzeStridedAccess(LayoutKind::Shuffled, 256, 2, 2);
  EXPECT_DOUBLE_EQ(Matched.transactionsPerAccess(), 1.0 / 16.0);
}

//===----------------------------------------------------------------------===//
// Hybrid machine model
//===----------------------------------------------------------------------===//

TEST(MachineModel, ClassLayoutAndFlatIndexing) {
  CpuModel Cpu;
  Cpu.NumCores = 2;
  MachineModel M = MachineModel::hybrid(Arch, /*Pmax=*/4, Cpu,
                                        /*MaxCoarsen=*/8);
  EXPECT_EQ(M.numGpuSms(), 4);
  EXPECT_EQ(M.totalProcs(), 6);
  EXPECT_TRUE(M.hasCpu());
  // SMs occupy the low flat indices, cores follow.
  EXPECT_FALSE(M.isCpu(3));
  EXPECT_TRUE(M.isCpu(4));
  EXPECT_EQ(M.classOf(0).Kind, ProcClassKind::GpuSm);
  EXPECT_EQ(M.classOf(5).Kind, ProcClassKind::CpuCore);
  // Memory budgets come from the class: the SM's share of the
  // DRAM-resident channel store, the core's cache.
  EXPECT_EQ(M.classOf(0).MemBytes, Arch.DramBytes / Arch.NumSMs);
  EXPECT_EQ(M.classOf(4).MemBytes, Cpu.CacheBytesPerCore);

  MachineModel G = MachineModel::gpuOnly(Arch, 4);
  EXPECT_FALSE(G.hasCpu());
  EXPECT_EQ(G.totalProcs(), 4);
  EXPECT_EQ(G.numGpuSms(), 4);
}

TEST(MachineModel, CpuDelayLandsInGpuClockDomain) {
  StreamGraph G = makeScalePipeline();
  ExecutionConfig Config;
  Config.Threads.assign(static_cast<size_t>(G.numNodes()), 4);

  CpuModel Slow;
  CpuModel Fast = Slow;
  Fast.ClockGHz = 2.0 * Slow.ClockGHz;
  ExecutionConfig CSlow = Config, CFast = Config;
  computeCpuDelays(CSlow, G, Slow, Arch);
  computeCpuDelays(CFast, G, Fast, Arch);
  ASSERT_EQ(CSlow.CpuDelay.size(), static_cast<size_t>(G.numNodes()));
  for (const GraphNode &N : G.nodes()) {
    EXPECT_GT(CSlow.CpuDelay[N.Id], 0.0);
    // Twice the host clock halves the delay expressed in GPU cycles.
    EXPECT_NEAR(CSlow.CpuDelay[N.Id], 2.0 * CFast.CpuDelay[N.Id], 1e-9);
    // Exact form: host cycles per firing x threads serialized on the
    // core, converted through the clock ratio.
    EXPECT_NEAR(CSlow.CpuDelay[N.Id],
                cpuCyclesPerFiring(N, Slow) * 4.0 *
                    (Arch.CoreClockGHz / Slow.ClockGHz),
                1e-9);
  }
}

TEST(MachineModel, ProcDelayDispatchesByClass) {
  ExecutionConfig Config;
  Config.Delay = {10.0, 100.0};
  Config.CpuDelay = {50.0, 20.0};
  CpuModel Cpu;
  Cpu.NumCores = 1;
  MachineModel M = MachineModel::hybrid(Arch, /*Pmax=*/2, Cpu, 8);
  EXPECT_DOUBLE_EQ(procDelay(Config, &M, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(procDelay(Config, &M, 0, 2), 50.0);
  EXPECT_DOUBLE_EQ(procDelay(Config, &M, 1, 1), 100.0);
  EXPECT_DOUBLE_EQ(procDelay(Config, &M, 1, 2), 20.0);
  // Null machine: the homogeneous GPU delay, always.
  EXPECT_DOUBLE_EQ(procDelay(Config, nullptr, 1, 2), 100.0);
}
