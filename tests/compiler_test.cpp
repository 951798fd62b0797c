//===- tests/compiler_test.cpp - End-to-end compilation tests ---------------===//

#include "core/Compiler.h"

#include "benchmarks/Registry.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::bench;
using namespace sgpu::testing;

namespace {

CompileOptions fastOptions(Strategy S = Strategy::Swp, int Coarsen = 8) {
  CompileOptions O;
  O.Strat = S;
  O.Coarsening = Coarsen;
  O.Sched.Pmax = 8;
  O.Sched.TimeBudgetSeconds = 0.5;
  return O;
}

} // namespace

TEST(Compiler, SwpEndToEndOnSmallGraph) {
  StreamGraph G = makeFig4Graph();
  auto R = compileForGpu(G, fastOptions());
  ASSERT_TRUE(R.has_value());
  EXPECT_GT(R->Speedup, 0.0);
  EXPECT_GT(R->GpuCyclesPerBaseIteration, 0.0);
  EXPECT_GT(R->CpuCyclesPerBaseIteration, 0.0);
  EXPECT_GT(R->BufferBytes, 0);
  EXPECT_EQ(R->Layout, LayoutKind::Shuffled);
}

TEST(Compiler, RejectsUnbalancedGraphs) {
  FilterBuilder BL("L", TokenType::Int, TokenType::Int);
  BL.setRates(1, 1);
  BL.push(BL.pop());
  FilterBuilder BR("R", TokenType::Int, TokenType::Int);
  BR.setRates(2, 1);
  BR.push(BR.pop());
  BR.popDiscard();
  std::vector<StreamPtr> Branches;
  Branches.push_back(filterStream(BL.build()));
  Branches.push_back(filterStream(BR.build()));
  StreamGraph G = flatten(*duplicateSplitJoin(std::move(Branches), {1, 1}));
  EXPECT_FALSE(compileForGpu(G, fastOptions()).has_value());
}

TEST(Compiler, CoarseningAmortizesLaunches) {
  StreamGraph G1 = makeScalePipeline();
  auto Swp1 = compileForGpu(G1, fastOptions(Strategy::Swp, 1));
  StreamGraph G8 = makeScalePipeline();
  auto Swp8 = compileForGpu(G8, fastOptions(Strategy::Swp, 8));
  ASSERT_TRUE(Swp1 && Swp8);
  // The paper's Figure 11 shape: coarsening never hurts, usually helps.
  EXPECT_GE(Swp8->Speedup, Swp1->Speedup * 0.999);
}

TEST(Compiler, CoalescingBeatsNoCoalescing) {
  // Fig. 10's core claim on a multirate graph (pop rate > 1).
  StreamGraph A = makeFig4Graph();
  auto Swp = compileForGpu(A, fastOptions(Strategy::Swp));
  StreamGraph B = makeFig4Graph();
  auto Nc = compileForGpu(B, fastOptions(Strategy::SwpNoCoalesce));
  ASSERT_TRUE(Swp && Nc);
  EXPECT_GE(Swp->Speedup, Nc->Speedup);
}

TEST(Compiler, SerialSchemeCompiles) {
  StreamGraph G = makeDupSplitGraph();
  auto R = compileForGpu(G, fastOptions(Strategy::Serial));
  ASSERT_TRUE(R.has_value());
  EXPECT_GT(R->Speedup, 0.0);
  EXPECT_EQ(R->Strat, Strategy::Serial);
}

TEST(Compiler, SwpBeatsSerialOnPipelines) {
  // A deep pipeline of balanced filters is SWP's home turf: the serial
  // scheme pays one kernel launch per filter per batch.
  std::vector<StreamPtr> Parts;
  for (int I = 0; I < 12; ++I)
    Parts.push_back(
        filterStream(makeScaleInt("Stage" + std::to_string(I), 3)));
  StreamGraph G1 = flatten(*pipelineStream(std::move(Parts)));
  auto Swp = compileForGpu(G1, fastOptions(Strategy::Swp));

  std::vector<StreamPtr> Parts2;
  for (int I = 0; I < 12; ++I)
    Parts2.push_back(
        filterStream(makeScaleInt("Stage" + std::to_string(I), 3)));
  StreamGraph G2 = flatten(*pipelineStream(std::move(Parts2)));
  auto Ser = compileForGpu(G2, fastOptions(Strategy::Serial));

  ASSERT_TRUE(Swp && Ser);
  EXPECT_GT(Swp->Speedup, Ser->Speedup);
}

class BenchmarkCompile : public ::testing::TestWithParam<BenchmarkSpec> {};

TEST_P(BenchmarkCompile, SwpCompilesWithVerifiedSchedule) {
  const BenchmarkSpec &Spec = GetParam();
  StreamGraph G = flatten(*Spec.Build());
  auto R = compileForGpu(G, fastOptions());
  ASSERT_TRUE(R.has_value()) << Spec.Name;
  EXPECT_GT(R->Speedup, 0.0);
  EXPECT_GT(R->SchedStats.FinalII, 0.0);
  EXPECT_GE(R->SchedStats.FinalII, R->SchedStats.MII);
  EXPECT_EQ(R->Schedule.Instances.size(),
            static_cast<size_t>(R->GSS.totalInstances()));
}

INSTANTIATE_TEST_SUITE_P(
    TableI, BenchmarkCompile, ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkSpec> &Info) {
      return Info.param.Name;
    });
