//===- tests/cyclesim_test.cpp - Warp-level cycle simulator tests ------------===//
//
// Unit tests of gpusim/cyclesim: the coalescer must agree exactly with
// the static layout analysis it shares countHalfWarpTransactions with,
// the event engine must exhibit the paper's mechanisms (latency hiding,
// scoreboard stalls, bandwidth collapse, store drain) rather than assert
// them by formula, and every entry point must be bit-deterministic —
// run to run and across profiling worker counts.
//
//===----------------------------------------------------------------------===//

#include "gpusim/cyclesim/CycleSim.h"

#include "testing/TestGraphs.h"
#include "gpusim/cyclesim/Coalescer.h"
#include "gpusim/cyclesim/WarpProgram.h"
#include "layout/AccessAnalyzer.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

MemStream makeStream(int64_t Count, int64_t KeyRate, LayoutKind Layout,
                     bool IsWrite = false) {
  MemStream S;
  S.Count = Count;
  S.KeyRate = KeyRate;
  S.Layout = Layout;
  S.IsWrite = IsWrite;
  return S;
}

SimInstance makeInstance(int64_t Threads, int64_t ComputeOps,
                         int64_t Reads, int64_t Writes,
                         LayoutKind Layout = LayoutKind::Shuffled) {
  SimInstance Inst;
  Inst.Cost.Threads = Threads;
  Inst.Cost.ComputeOps = ComputeOps;
  Inst.Cost.GlobalAccesses = Reads + Writes;
  if (Reads > 0)
    Inst.Streams.push_back(makeStream(Reads, Reads, Layout));
  if (Writes > 0)
    Inst.Streams.push_back(makeStream(Writes, Writes, Layout, true));
  return Inst;
}

} // namespace

//===----------------------------------------------------------------------===//
// Coalescer vs layout/AccessAnalyzer
//===----------------------------------------------------------------------===//

TEST(Coalescer, AgreesWithAccessAnalyzerExactly) {
  // Both walk the same addresses through countHalfWarpTransactions, so
  // for whole strided patterns they must agree transaction for
  // transaction — including partial half-warps and the rates whose
  // shuffled layout is imperfect (non-divisors of the cluster width).
  for (LayoutKind Layout : {LayoutKind::Shuffled, LayoutKind::Sequential})
    for (int64_t Threads : {20, 40, 128, 256, 384, 512})
      for (int64_t Rate : {1, 2, 3, 4, 7, 16}) {
        MemStream S = makeStream(Rate, Rate, Layout);
        AccessSummary A =
            analyzeStridedAccess(Layout, Threads, Rate, Rate);
        EXPECT_EQ(streamTransactions(S, Threads), A.Transactions)
            << "layout=" << static_cast<int>(Layout)
            << " threads=" << Threads << " rate=" << Rate;
      }
}

TEST(Coalescer, SharedStagingAlwaysCoalesces) {
  // The SWPNC escape hatch: staged streams hit device memory through
  // coalesced half-warp transactions no matter how hostile the logical
  // pattern is — one transaction per half-warp per access.
  MemStream S = makeStream(3, 3, LayoutKind::Sequential);
  S.ViaShared = true;
  EXPECT_EQ(streamTransactions(S, 256), (256 / 16) * 3);
  // 40 threads = three half-warps (16 + 16 + 8 lanes).
  EXPECT_EQ(streamTransactions(S, 40), 3 * 3);
  // The unstaged sequential pattern at rate 3 serializes badly.
  MemStream Raw = makeStream(3, 3, LayoutKind::Sequential);
  EXPECT_GT(streamTransactions(Raw, 256), streamTransactions(S, 256));
}

TEST(Coalescer, WindowWrapsReReadsToTheSameAddresses) {
  // A filter that evaluates each popped token twice (Count = 16 reads
  // over a KeyRate = 8 window) re-loads the same buffer positions the
  // generated code re-loads: access n touches token n % Window, so the
  // stream coalesces exactly like the 8-access stream run twice.
  MemStream Wrapped = makeStream(16, 8, LayoutKind::Shuffled);
  Wrapped.Window = 8;
  MemStream Once = makeStream(8, 8, LayoutKind::Shuffled);
  EXPECT_EQ(streamTransactions(Wrapped, 128),
            2 * streamTransactions(Once, 128));
  // Window = 0 defaults to Count: the same 16 accesses then walk past
  // the key rate into the neighbour thread's region, off the 16-word
  // alignment G80 requires, and serialize.
  MemStream NoWindow = makeStream(16, 8, LayoutKind::Shuffled);
  EXPECT_GT(streamTransactions(NoWindow, 128),
            streamTransactions(Wrapped, 128));
}

TEST(Coalescer, PeekWindowKeepsTheMisalignmentPenalty) {
  // A true sliding window (Window > KeyRate, i.e. peek > pop) must NOT
  // wrap: the accesses beyond the key rate genuinely read the neighbour
  // thread's tokens and stay serialized under the shuffled layout.
  MemStream Peeking = makeStream(12, 8, LayoutKind::Shuffled);
  Peeking.Window = 12;
  MemStream Wrapped = makeStream(12, 8, LayoutKind::Shuffled);
  Wrapped.Window = 8;
  EXPECT_GT(streamTransactions(Peeking, 128),
            streamTransactions(Wrapped, 128));
}

TEST(Coalescer, PartialWarpAddressesMatchWholeStream) {
  // streamTransactions is exactly the sum of its per-half-warp calls.
  MemStream S = makeStream(4, 4, LayoutKind::Shuffled);
  int64_t Threads = 200; // 12 half-warps of 16 plus one of 8.
  int64_t Sum = 0;
  for (int64_t Base = 0; Base < Threads; Base += HalfWarpSize) {
    int64_t Lanes = std::min<int64_t>(HalfWarpSize, Threads - Base);
    for (int64_t N = 0; N < S.Count; ++N)
      Sum += warpAccessTransactions(S, Base, Lanes, N);
  }
  EXPECT_EQ(streamTransactions(S, Threads), Sum);
}

TEST(WarpPrograms, TransactionsMatchCoalescerTotals) {
  // The per-warp traces carry exactly the stream's transactions (split
  // warp by warp) plus the coalesced spill traffic.
  SimInstance Inst = makeInstance(160, 50, 4, 2);
  std::vector<WarpProgram> Progs = buildWarpPrograms(Arch, Inst);
  EXPECT_EQ(Progs.size(), 5u); // 160 threads = 5 warps.
  int64_t Txns = 0;
  for (const WarpProgram &P : Progs)
    Txns += P.transactionsPerFiring();
  int64_t Expected = 0;
  for (const MemStream &S : Inst.Streams)
    Expected += streamTransactions(S, Inst.Cost.Threads);
  EXPECT_EQ(Txns, Expected);

  CycleTimingModel Model(Arch);
  EXPECT_DOUBLE_EQ(Model.instanceTransactions(Inst),
                   static_cast<double>(Expected));
}

//===----------------------------------------------------------------------===//
// Event engine mechanisms
//===----------------------------------------------------------------------===//

TEST(CycleSim, ScoreboardExposesLoadLatencyToCompute) {
  CycleTimingModel Model(Arch);
  // One lone warp: its compute depends on the loads, so the round trip
  // (bus + MemLatencyCycles) cannot be hidden.
  SimInstance Loads = makeInstance(32, 10, 4, 0);
  EXPECT_GT(Model.instanceCycles(Loads),
            static_cast<double>(Arch.MemLatencyCycles));
  // Stores are fire-and-forget: nothing waits the latency out, only the
  // bus drain, so a write-only warp finishes well under the round trip.
  SimInstance Stores = makeInstance(32, 10, 0, 2);
  EXPECT_LT(Model.instanceCycles(Stores),
            static_cast<double>(Arch.MemLatencyCycles));
}

TEST(CycleSim, ManyWarpsHideLatency) {
  CycleTimingModel Model(Arch);
  SimInstance Small = makeInstance(32, 100, 8, 4);
  SimInstance Big = makeInstance(512, 100, 8, 4);
  double PerThreadSmall = Model.instanceCycles(Small) / 32.0;
  double PerThreadBig = Model.instanceCycles(Big) / 512.0;
  EXPECT_GT(PerThreadSmall, PerThreadBig)
      << "SMT across 16 warps must hide latency a single warp eats";
}

TEST(CycleSim, MemoryLevelParallelismWidensOverlap) {
  // With a deeper scoreboard the same load-heavy warp overlaps more
  // round trips; capping it at one outstanding load serializes them.
  GpuArch Narrow = Arch;
  Narrow.MemoryLevelParallelism = 1.0;
  SimInstance Inst = makeInstance(32, 20, 8, 0);
  CycleTimingModel Wide(Arch), Serial(Narrow);
  EXPECT_GT(Serial.instanceCycles(Inst), Wide.instanceCycles(Inst));
}

TEST(CycleSim, UncoalescedAccessCollapsesBandwidth) {
  CycleTimingModel Model(Arch);
  // Rate-4 access: shuffled (Eq. 9-11) coalesces perfectly, the natural
  // sequential layout serializes every half-warp into 16 transactions.
  SimInstance Coal = makeInstance(256, 50, 4, 4, LayoutKind::Shuffled);
  SimInstance Ser = makeInstance(256, 50, 4, 4, LayoutKind::Sequential);
  EXPECT_GT(Model.instanceTransactions(Ser),
            8.0 * Model.instanceTransactions(Coal));
  EXPECT_GT(Model.instanceCycles(Ser), 4.0 * Model.instanceCycles(Coal));
}

TEST(CycleSim, StoresDrainTheSharedBus) {
  CycleTimingModel Model(Arch);
  SimInstance Inst = makeInstance(256, 1, 0, 4);
  double Txns = Model.instanceTransactions(Inst);
  ASSERT_GT(Txns, 0.0);
  // Single-SM runs see their bandwidth share (ChipCyclesPerTxn scaled by
  // NumSMs); the instance cannot finish before its stores clear the bus.
  double BusFloor = Txns * Arch.ChipCyclesPerTxn * Arch.NumSMs;
  EXPECT_GE(Model.instanceCycles(Inst), BusFloor);
}

//===----------------------------------------------------------------------===//
// Kernel-level accounting
//===----------------------------------------------------------------------===//

TEST(CycleSim, KernelTransactionsScaleWithIterations) {
  CycleTimingModel Model(Arch);
  SimInstance A = makeInstance(128, 40, 4, 2);
  SimInstance B = makeInstance(256, 80, 2, 2);

  KernelDesc Desc;
  Desc.Instances = {A, B};
  Desc.SmStreams = {{{0, 5}, {1, 2}}, {{1, 3}}};
  KernelSimResult R = Model.simulateKernel(Desc);
  double Expected = 5.0 * Model.instanceTransactions(A) +
                    (2.0 + 3.0) * Model.instanceTransactions(B);
  EXPECT_DOUBLE_EQ(R.Transactions, Expected);

  ASSERT_EQ(R.PerSm.size(), 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(R.PerSm[0].Transactions),
                   5.0 * Model.instanceTransactions(A) +
                       2.0 * Model.instanceTransactions(B));
  EXPECT_GT(R.PerSm[0].TotalCycles, 0.0);
  EXPECT_GT(R.PerSm[0].BusyCycles, 0.0);
}

TEST(CycleSim, FillCyclesTrackStageSpan) {
  CycleTimingModel Model(Arch);
  KernelDesc Desc;
  Desc.Instances = {makeInstance(128, 40, 4, 2)};
  Desc.SmStreams = {{{0, 2}}};
  Desc.StageSpan = 3;
  KernelSimResult R = Model.simulateKernel(Desc);
  EXPECT_DOUBLE_EQ(R.FillCycles, 3.0 * R.TotalCycles);
  Desc.StageSpan = 0;
  EXPECT_DOUBLE_EQ(Model.simulateKernel(Desc).FillCycles, 0.0);
}

TEST(CycleSim, SharedBusCouplesTheSms) {
  // A memory-bound kernel on 16 SMs at once must take longer per SM
  // than the same stream alone on one SM with the whole chip's bus
  // otherwise idle (the FIFO bus is the only cross-SM coupling).
  CycleTimingModel Model(Arch);
  SimInstance Inst = makeInstance(256, 10, 8, 8);
  KernelDesc Alone;
  Alone.Instances = {Inst};
  Alone.SmStreams = {{{0, 4}}};
  KernelDesc Loaded = Alone;
  for (int S = 1; S < Arch.NumSMs; ++S)
    Loaded.SmStreams.push_back({{0, 4}});
  EXPECT_GT(Model.simulateKernel(Loaded).TotalCycles,
            Model.simulateKernel(Alone).TotalCycles);
}

TEST(CycleSim, ProfileRunCyclesGrowWithIterations) {
  CycleTimingModel Model(Arch);
  SimInstance Inst = makeInstance(128, 40, 4, 2);
  // Strictly increasing through the simulated prefix...
  double Prev = 0.0;
  for (int64_t I = 1; I <= CycleTimingModel::MaxSimulatedProfileIterations;
       ++I) {
    double T = Model.profileRunCycles(Inst, I);
    EXPECT_GT(T, Prev) << "iterations=" << I;
    Prev = T;
  }
  // ...and through the extrapolated tail, which stays linear.
  double T12 = Model.profileRunCycles(Inst, 12);
  double T20 = Model.profileRunCycles(Inst, 20);
  double T28 = Model.profileRunCycles(Inst, 28);
  EXPECT_GT(T12, Prev);
  EXPECT_GT(T20, T12);
  EXPECT_DOUBLE_EQ(T28 - T20, T20 - T12);
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(CycleSim, SimulateKernelIsBitDeterministic) {
  CycleTimingModel Model(Arch);
  KernelDesc Desc;
  Desc.Instances = {makeInstance(128, 40, 4, 2),
                    makeInstance(384, 200, 8, 4),
                    makeInstance(256, 10, 2, 2, LayoutKind::Sequential)};
  Desc.SmStreams = {{{0, 3}, {1, 1}}, {{1, 2}, {2, 2}}, {{2, 5}}};
  Desc.StageSpan = 2;

  KernelSimResult First = Model.simulateKernel(Desc);
  for (int Run = 0; Run < 3; ++Run) {
    KernelSimResult R = Model.simulateKernel(Desc);
    EXPECT_EQ(R.TotalCycles, First.TotalCycles);
    EXPECT_EQ(R.FillCycles, First.FillCycles);
    EXPECT_EQ(R.Transactions, First.Transactions);
    ASSERT_EQ(R.PerSm.size(), First.PerSm.size());
    for (size_t S = 0; S < R.PerSm.size(); ++S) {
      EXPECT_EQ(R.PerSm[S].BusyCycles, First.PerSm[S].BusyCycles);
      EXPECT_EQ(R.PerSm[S].StallCycles, First.PerSm[S].StallCycles);
      EXPECT_EQ(R.PerSm[S].TotalCycles, First.PerSm[S].TotalCycles);
      EXPECT_EQ(R.PerSm[S].WarpInstrs, First.PerSm[S].WarpInstrs);
      EXPECT_EQ(R.PerSm[S].Transactions, First.PerSm[S].Transactions);
    }
  }
}

TEST(CycleSim, ProfileTableIdenticalAcrossJobCounts) {
  // The Fig. 6 sweep fans cells out over worker threads; under the cycle
  // model every cell must come back bit-identical at any worker count.
  auto Model = createTimingModel(TimingModelKind::Cycle, Arch);
  auto Check = [&](const StreamGraph &G) {
    ProfileTable One =
        profileGraph(Arch, G, LayoutKind::Shuffled, 1, 0, Model.get());
    ProfileTable Four =
        profileGraph(Arch, G, LayoutKind::Shuffled, 4, 0, Model.get());
    ASSERT_EQ(One.numNodes(), Four.numNodes());
    for (int N = 0; N < One.numNodes(); ++N)
      for (int R = 0; R < ProfileTable::NumRegLimits; ++R)
        for (int T = 0; T < ProfileTable::NumThreadCounts; ++T)
          EXPECT_EQ(One.at(N, R, T), Four.at(N, R, T))
              << "node=" << N << " reg=" << R << " threads=" << T;
  };
  Check(makeScalePipeline());
  Check(makeFig4Graph());
}

TEST(CycleSim, CycleProfileDiffersFromAnalyticButBothFinite) {
  // Sanity that the seam actually switches models: the two tables agree
  // on feasibility cell by cell and both stay finite where feasible.
  StreamGraph G = makeScalePipeline();
  auto Cycle = createTimingModel(TimingModelKind::Cycle, Arch);
  ProfileTable PC =
      profileGraph(Arch, G, LayoutKind::Shuffled, 1, 0, Cycle.get());
  ProfileTable PA = profileGraph(Arch, G, LayoutKind::Shuffled, 1, 0);
  for (int N = 0; N < PC.numNodes(); ++N)
    for (int R = 0; R < ProfileTable::NumRegLimits; ++R)
      for (int T = 0; T < ProfileTable::NumThreadCounts; ++T) {
        bool FeasC = PC.at(N, R, T) != ProfileTable::Infeasible;
        bool FeasA = PA.at(N, R, T) != ProfileTable::Infeasible;
        EXPECT_EQ(FeasC, FeasA);
        if (FeasC) {
          EXPECT_GT(PC.at(N, R, T), 0.0);
        }
      }
}
