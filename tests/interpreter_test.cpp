//===- tests/interpreter_test.cpp - AST & graph interpreter tests -----------===//

#include "ir/Interpreter.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

ChannelBuffer makeIntChannel(const std::vector<int64_t> &Vals) {
  ChannelBuffer C(TokenType::Int);
  for (int64_t V : Vals)
    C.push(Scalar::makeInt(V));
  return C;
}

} // namespace

TEST(FireFilter, ScaleInt) {
  FilterPtr F = makeScaleInt("S", 7);
  ChannelBuffer In = makeIntChannel({6});
  ChannelBuffer Out(TokenType::Int);
  fireFilter(*F, &In, &Out);
  ASSERT_EQ(Out.size(), 1);
  EXPECT_EQ(Out.pop().asInt(), 42);
  EXPECT_TRUE(In.empty());
}

TEST(FireFilter, MultiRatePushPop) {
  FilterPtr A = makeFig4A();
  ChannelBuffer In = makeIntChannel({5});
  ChannelBuffer Out(TokenType::Int);
  fireFilter(*A, &In, &Out);
  ASSERT_EQ(Out.size(), 2);
  EXPECT_EQ(Out.pop().asInt(), 5);
  EXPECT_EQ(Out.pop().asInt(), 50);
}

TEST(FireFilter, PeekDoesNotConsume) {
  FilterPtr F = makeMovingSum("MS", 3);
  ChannelBuffer In(TokenType::Float);
  for (double V : {1.0, 2.0, 3.0, 4.0})
    In.push(Scalar::makeFloat(V));
  ChannelBuffer Out(TokenType::Float);
  fireFilter(*F, &In, &Out);
  EXPECT_EQ(In.size(), 3); // One pop, peeks left the rest.
  EXPECT_DOUBLE_EQ(Out.pop().asFloat(), 6.0);
  fireFilter(*F, &In, &Out);
  EXPECT_DOUBLE_EQ(Out.pop().asFloat(), 9.0);
}

TEST(FireFilter, StatsCollection) {
  FilterPtr F = makeMovingSum("MS", 4);
  ChannelBuffer In(TokenType::Float);
  for (int I = 0; I < 5; ++I)
    In.push(Scalar::makeFloat(1.0));
  ChannelBuffer Out(TokenType::Float);
  FiringStats S;
  fireFilter(*F, &In, &Out, &S);
  EXPECT_EQ(S.Pops, 1);
  EXPECT_EQ(S.Peeks, 4);
  EXPECT_EQ(S.Pushes, 1);
  EXPECT_EQ(S.MaxPeekDepth, 3);
  EXPECT_GE(S.FloatOps, 4);
}

TEST(FireFilter, IntWrapsTo32Bits) {
  FilterBuilder B("Wrap", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  B.push(B.mul(B.pop(), B.litI(1 << 30)));
  FilterPtr F = B.build();
  ChannelBuffer In = makeIntChannel({8}); // 8 << 30 overflows int32.
  ChannelBuffer Out(TokenType::Int);
  fireFilter(*F, &In, &Out);
  EXPECT_EQ(Out.pop().asInt(),
            static_cast<int32_t>(int64_t(8) * (int64_t(1) << 30)));
}

TEST(FireFilter, BitOpsAndShifts) {
  FilterBuilder B("Bits", TokenType::Int, TokenType::Int);
  B.setRates(1, 4);
  const VarDecl *V = B.declVar("v", B.pop());
  B.push(B.bitAnd(B.ref(V), B.litI(0xF)));
  B.push(B.bitOr(B.ref(V), B.litI(0x100)));
  B.push(B.bitXor(B.ref(V), B.litI(0xFF)));
  B.push(B.shr(B.shl(B.ref(V), B.litI(4)), B.litI(2)));
  FilterPtr F = B.build();
  ChannelBuffer In = makeIntChannel({0xAB});
  ChannelBuffer Out(TokenType::Int);
  fireFilter(*F, &In, &Out);
  EXPECT_EQ(Out.pop().asInt(), 0xB);
  EXPECT_EQ(Out.pop().asInt(), 0x1AB);
  EXPECT_EQ(Out.pop().asInt(), 0xAB ^ 0xFF);
  EXPECT_EQ(Out.pop().asInt(), (0xAB << 4) >> 2);
}

TEST(FireFilter, ControlFlow) {
  FilterBuilder B("Clamp", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *V = B.declVar("v", B.pop());
  B.beginIf(B.gt(B.ref(V), B.litI(10)));
  B.assign(V, B.litI(10));
  B.beginElse();
  B.beginIf(B.lt(B.ref(V), B.litI(0)));
  B.assign(V, B.litI(0));
  B.endIf();
  B.endIf();
  B.push(B.ref(V));
  FilterPtr F = B.build();

  auto RunOne = [&](int64_t X) {
    ChannelBuffer In = makeIntChannel({X});
    ChannelBuffer Out(TokenType::Int);
    fireFilter(*F, &In, &Out);
    return Out.pop().asInt();
  };
  EXPECT_EQ(RunOne(15), 10);
  EXPECT_EQ(RunOne(-3), 0);
  EXPECT_EQ(RunOne(7), 7);
}

TEST(SplitterJoiner, Duplicate) {
  GraphNode N;
  N.Kind = NodeKind::Splitter;
  N.SplitKind = SplitterKind::Duplicate;
  N.Weights = {1, 1, 1};
  ChannelBuffer In = makeIntChannel({9});
  ChannelBuffer O1(TokenType::Int), O2(TokenType::Int), O3(TokenType::Int);
  fireSplitterJoiner(N, {&In}, {&O1, &O2, &O3});
  EXPECT_EQ(O1.pop().asInt(), 9);
  EXPECT_EQ(O2.pop().asInt(), 9);
  EXPECT_EQ(O3.pop().asInt(), 9);
}

TEST(SplitterJoiner, RoundRobinSplit) {
  GraphNode N;
  N.Kind = NodeKind::Splitter;
  N.SplitKind = SplitterKind::RoundRobin;
  N.Weights = {2, 1};
  ChannelBuffer In = makeIntChannel({1, 2, 3});
  ChannelBuffer O1(TokenType::Int), O2(TokenType::Int);
  fireSplitterJoiner(N, {&In}, {&O1, &O2});
  ASSERT_EQ(O1.size(), 2);
  ASSERT_EQ(O2.size(), 1);
  EXPECT_EQ(O1.pop().asInt(), 1);
  EXPECT_EQ(O1.pop().asInt(), 2);
  EXPECT_EQ(O2.pop().asInt(), 3);
}

TEST(SplitterJoiner, RoundRobinJoin) {
  GraphNode N;
  N.Kind = NodeKind::Joiner;
  N.Weights = {1, 2};
  ChannelBuffer I1 = makeIntChannel({10});
  ChannelBuffer I2 = makeIntChannel({20, 30});
  ChannelBuffer Out(TokenType::Int);
  fireSplitterJoiner(N, {&I1, &I2}, {&Out});
  EXPECT_EQ(Out.pop().asInt(), 10);
  EXPECT_EQ(Out.pop().asInt(), 20);
  EXPECT_EQ(Out.pop().asInt(), 30);
}

TEST(GraphInterpreter, PipelineComputesProduct) {
  StreamGraph G = makeScalePipeline();
  GraphInterpreter GI(G);
  GI.feedInput({Scalar::makeInt(1), Scalar::makeInt(2), Scalar::makeInt(3)});
  ASSERT_TRUE(GI.runSteadyState({1, 1, 1}, 3));
  ASSERT_EQ(GI.output().size(), 3u);
  EXPECT_EQ(GI.output()[0].asInt(), 30);
  EXPECT_EQ(GI.output()[1].asInt(), 60);
  EXPECT_EQ(GI.output()[2].asInt(), 90);
}

TEST(GraphInterpreter, MultiRateSteadyState) {
  StreamGraph G = makeFig4Graph();
  GraphInterpreter GI(G);
  // One steady iteration: A fires 3 times (pops 3), B fires 2.
  for (int I = 1; I <= 3; ++I)
    GI.feedInput({Scalar::makeInt(I)});
  ASSERT_TRUE(GI.runSteadyState({3, 2}, 1));
  // A emits 1,10,2,20,3,30; B sums triples: 13, 53.
  ASSERT_EQ(GI.output().size(), 2u);
  EXPECT_EQ(GI.output()[0].asInt(), 13);
  EXPECT_EQ(GI.output()[1].asInt(), 53);
}

TEST(GraphInterpreter, FiringRuleBlocksWithoutInput) {
  StreamGraph G = makeScalePipeline();
  GraphInterpreter GI(G);
  EXPECT_EQ(GI.fireNode(0, 1), 0); // No input fed.
}

TEST(GraphInterpreter, DupSplitJoinDataFlow) {
  StreamGraph G = makeDupSplitGraph();
  std::optional<std::vector<int64_t>> Reps;
  {
    // All nodes fire once per iteration except the joiner output stage.
    Reps = std::vector<int64_t>(G.numNodes(), 1);
    // The round-robin joiner with weights {1,1} pushes 2 per firing, and
    // the Out filter pops 1, so Out fires twice.
    for (const GraphNode &N : G.nodes())
      if (N.isFilter() && N.TheFilter->name() == "Out")
        (*Reps)[N.Id] = 2;
  }
  GraphInterpreter GI(G);
  GI.feedInput({Scalar::makeInt(5)});
  ASSERT_TRUE(GI.runSteadyState(*Reps, 1));
  ASSERT_EQ(GI.output().size(), 2u);
  EXPECT_EQ(GI.output()[0].asInt(), 10);
  EXPECT_EQ(GI.output()[1].asInt(), 15);
}

TEST(GraphInterpreter, ChannelOccupancyTracked) {
  StreamGraph G = makeFig4Graph();
  GraphInterpreter GI(G);
  for (int I = 0; I < 3; ++I)
    GI.feedInput({Scalar::makeInt(I)});
  ASSERT_TRUE(GI.runSteadyState({3, 2}, 1));
  EXPECT_EQ(GI.channel(0).maxOccupancy(), 6);
  EXPECT_EQ(GI.channel(0).totalPushed(), 6);
  EXPECT_EQ(GI.channel(0).totalPopped(), 6);
}
