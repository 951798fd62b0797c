//===- tests/sdf_test.cpp - Rates, schedules, dependences --------------------===//

#include "sdf/Admissibility.h"
#include "sdf/RateSolver.h"
#include "sdf/Schedules.h"
#include "sdf/SteadyState.h"
#include "support/MathExtras.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

TEST(RateSolver, UniformPipeline) {
  StreamGraph G = makeScalePipeline();
  auto Reps = computeRepetitionVector(G);
  ASSERT_TRUE(Reps.has_value());
  EXPECT_EQ(*Reps, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_TRUE(isBalanced(G, *Reps));
}

TEST(RateSolver, MultiRatePipeline) {
  StreamGraph G = makeFig4Graph();
  auto Reps = computeRepetitionVector(G);
  ASSERT_TRUE(Reps.has_value());
  // A pushes 2, B pops 3: balance needs 3 A firings per 2 B firings.
  EXPECT_EQ(*Reps, (std::vector<int64_t>{3, 2}));
}

TEST(RateSolver, SplitJoinRates) {
  StreamGraph G = makeDupSplitGraph();
  auto Reps = computeRepetitionVector(G);
  ASSERT_TRUE(Reps.has_value());
  EXPECT_TRUE(isBalanced(G, *Reps));
  // The joiner pushes 2 per firing; Out pops 1 -> fires twice as often.
  for (const GraphNode &N : G.nodes()) {
    if (N.isFilter() && N.TheFilter->name() == "Out")
      EXPECT_EQ((*Reps)[N.Id], 2);
  }
}

TEST(RateSolver, PrimitiveVector) {
  StreamGraph G = makeFig4Graph();
  auto Reps = computeRepetitionVector(G);
  ASSERT_TRUE(Reps.has_value());
  int64_t Gcd = 0;
  for (int64_t K : *Reps)
    Gcd = gcd64(Gcd, K);
  EXPECT_EQ(Gcd, 1) << "repetition vector must be primitive";
}

TEST(RateSolver, RejectsUnbalancedGraph) {
  // A pushes 2 into a duplicate branch pair whose joins disagree:
  // branch L keeps rate 1:1, branch R decimates 2:1, joiner weights 1,1
  // force an inconsistency.
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
  StreamGraph G =
      flatten(*duplicateSplitJoin(std::move(Branches), {1, 1}));
  EXPECT_FALSE(computeRepetitionVector(G).has_value());
}

TEST(SteadyState, InputOutputVolumes) {
  StreamGraph G = makeFig4Graph();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  EXPECT_EQ(SS->inputTokensPerIteration(), 3);
  EXPECT_EQ(SS->outputTokensPerIteration(), 2);
  EXPECT_EQ(SS->tokensPerIteration(0), 6);
}

TEST(SteadyState, NoInitFiringsWithoutPeeking) {
  StreamGraph G = makeScalePipeline();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  for (int64_t I : SS->initFirings())
    EXPECT_EQ(I, 0);
}

TEST(SteadyState, InitFiringsCoverPeekSlack) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeOffsetFloat("Pre", 1.0)));
  Parts.push_back(filterStream(makeMovingSum("MS", 8)));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  // The producer must pre-fill peek - pop = 7 tokens.
  EXPECT_EQ(SS->initFirings()[0], 7);
  EXPECT_EQ(SS->initFirings()[1], 0);
  // Input demand: init pops + steady pops + own slack.
  EXPECT_EQ(SS->inputTokensNeeded(4), 7 + 4);
}

TEST(Schedules, SingleAppearance) {
  StreamGraph G = makeFig4Graph();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  auto SAS = buildSingleAppearanceSchedule(*SS);
  ASSERT_TRUE(SAS.has_value());
  ASSERT_EQ(SAS->Steps.size(), 2u);
  EXPECT_EQ(SAS->Steps[0].NodeId, 0);
  EXPECT_EQ(SAS->Steps[0].Count, 3);
  EXPECT_EQ(SAS->Steps[1].Count, 2);
  EXPECT_EQ(SAS->totalFirings(), 5);
}

TEST(Schedules, SasBuffersAreMaximal) {
  StreamGraph G = makeFig4Graph();
  auto SS = SteadyState::compute(G);
  auto SAS = buildSingleAppearanceSchedule(*SS);
  auto MinLat = buildMinLatencySchedule(*SS);
  ASSERT_TRUE(SAS && MinLat);
  auto OccSas = computeBufferOccupancy(*SS, *SAS);
  auto OccMin = computeBufferOccupancy(*SS, *MinLat);
  // The paper: SAS requires the maximum buffering of all steady
  // schedules; min-latency requires no more.
  for (int E = 0; E < G.numEdges(); ++E)
    EXPECT_LE(OccMin[E], OccSas[E]);
  EXPECT_EQ(OccSas[0], 6);
  EXPECT_EQ(totalBufferBytes(G, OccSas), 24);
}

TEST(Schedules, MinLatencyExecutesFully) {
  StreamGraph G = makeDupSplitGraph();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  auto Min = buildMinLatencySchedule(*SS);
  ASSERT_TRUE(Min.has_value());
  int64_t Expect = 0;
  for (int V = 0; V < G.numNodes(); ++V)
    Expect += SS->repetitionsOf(V);
  EXPECT_EQ(Min->totalFirings(), Expect);
}

//===----------------------------------------------------------------------===//
// Instance dependences (paper Section III-C, Figure 4).
//===----------------------------------------------------------------------===//

TEST(InstanceDeps, Fig4Pattern) {
  // Edge A->B with O=2, I=3, m=0, ku=3 (A fires 3x), kv=2.
  // B0 needs tokens 1..3 -> producer firings ceil((l-2)/2), l=1..3:
  //   x in {0, 0, 1} -> A0 and A1, same iteration.
  auto D0 = computeInstanceDeps(3, 3, 2, 0, 3, 0);
  ASSERT_EQ(D0.size(), 2u);
  EXPECT_EQ(D0[0].KProd, 0);
  EXPECT_EQ(D0[0].JLag, 0);
  EXPECT_EQ(D0[1].KProd, 1);
  EXPECT_EQ(D0[1].JLag, 0);

  // B1 needs tokens 4..6 -> producer firings {1, 2, 2} -> A1 and A2.
  auto D1 = computeInstanceDeps(3, 3, 2, 0, 3, 1);
  ASSERT_EQ(D1.size(), 2u);
  EXPECT_EQ(D1[0].KProd, 1);
  EXPECT_EQ(D1[1].KProd, 2);
}

TEST(InstanceDeps, InitialTokensShiftIterations) {
  // Same edge with 6 initial tokens: one whole iteration of slack, so
  // every dependence reaches back at least one iteration.
  auto D = computeInstanceDeps(3, 3, 2, 6, 3, 0);
  ASSERT_FALSE(D.empty());
  for (const InstanceDep &X : D)
    EXPECT_LE(X.JLag, -1) << "covered by the previous iteration";
}

TEST(InstanceDeps, PartialInitialTokens) {
  // Three initial tokens cover iteration 0's first firing, which in the
  // steady state means every firing leans on the *previous* iteration.
  auto D = computeInstanceDeps(3, 3, 2, 3, 3, 0);
  ASSERT_FALSE(D.empty());
  for (const InstanceDep &X : D)
    EXPECT_EQ(X.JLag, -1);
}

TEST(InstanceDeps, DominatedLagsPruned) {
  // One producer instance (ku=1): only the most recent (largest) jlag
  // constraint survives per producer.
  auto D = computeInstanceDeps(1, 4, 1, 3, 1, 0);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0].KProd, 0);
  EXPECT_EQ(D[0].JLag, 0);
}

TEST(InstanceDeps, CountBound) {
  // The paper bounds distinct dependences per firing by floor(I/O) + 1;
  // initial tokens that straddle a producer-firing boundary add at most
  // one more (see Admissibility.cpp).
  for (int64_t I = 1; I <= 8; ++I)
    for (int64_t O = 1; O <= 8; ++O)
      for (int64_t M = 0; M <= 4; ++M) {
        int64_t Ku = std::max<int64_t>(1, I / gcd64(I, O));
        for (int64_t K = 0; K < 3; ++K) {
          auto D = computeInstanceDeps(I, I, O, M, Ku, K);
          EXPECT_LE(static_cast<int64_t>(D.size()), I / O + 2)
              << "I=" << I << " O=" << O << " M=" << M << " K=" << K;
        }
      }
}

TEST(InstanceDeps, PeekExtendsReach) {
  // pop 1, peek 4, producer pushes 2 (ku=1), with the post-init slack of
  // peek - pop = 3 tokens on the edge: the peeking consumer depends on
  // the *current* iteration's producer (lag 0) while a plain pop-1
  // consumer would be fully served two iterations back (lag -2).
  auto Peeky = computeInstanceDeps(1, 4, 2, 3, 1, 0);
  auto Plain = computeInstanceDeps(1, 1, 2, 3, 1, 0);
  ASSERT_EQ(Peeky.size(), 1u);
  ASSERT_EQ(Plain.size(), 1u);
  EXPECT_EQ(Peeky[0].JLag, 0);
  EXPECT_EQ(Plain[0].JLag, -2);
}

TEST(RecMII, ZeroForAcyclicGraphs) {
  StreamGraph G = makeFig4Graph();
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  EXPECT_DOUBLE_EQ(computeRecMII(*SS, {5.0, 7.0}), 0.0);
}

TEST(RecMII, FeedbackLoopBoundsII) {
  StreamPtr Loop = feedbackLoopStream(
      {1, 1}, filterStream(makeScaleInt("Body", 2)), {1, 1},
      filterStream(makeScaleInt("LoopId", 1)), /*InitTokens=*/1);
  StreamGraph G = flatten(*Loop);
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  std::vector<double> Delay(G.numNodes(), 10.0);
  double R = computeRecMII(*SS, Delay);
  // The cycle joiner->body->splitter->loop->joiner carries one token:
  // RecMII >= sum of delays on the cycle / 1 distance.
  EXPECT_GT(R, 10.0);
}
