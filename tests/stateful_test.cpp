//===- tests/stateful_test.cpp - Stateful filter extension tests ------------===//
//
// The paper restricts itself to stateless filters and lists stateful
// handling as future work (Section VII). Our extension: stateful filters
// are first-class in the IR and the interpreters, and the GPU compiler
// rejects them with the paper's restriction.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "ir/Interpreter.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

/// Running-sum accumulator: out[i] = sum of inputs 0..i. Stateful.
FilterPtr makeAccumulator() {
  FilterBuilder B("Accumulator", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *Acc = B.stateScalarI("acc", 0);
  B.assign(Acc, B.add(B.ref(Acc), B.pop()));
  B.push(B.ref(Acc));
  return B.build();
}

/// First-order IIR low-pass: y = a*y + (1-a)*x. Stateful, float.
FilterPtr makeIir(double Alpha) {
  FilterBuilder B("IIR", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  const VarDecl *Y = B.stateScalarF("y", 0.0);
  B.assign(Y, B.add(B.mul(B.ref(Y), B.litF(Alpha)),
                    B.mul(B.pop(), B.litF(1.0 - Alpha))));
  B.push(B.ref(Y));
  return B.build();
}

} // namespace

TEST(Stateful, DetectionOnFilterAndGraph) {
  FilterPtr Acc = makeAccumulator();
  EXPECT_TRUE(Acc->isStateful());
  EXPECT_FALSE(makeScaleInt("S", 2)->isStateful());

  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeScaleInt("Pre", 1)));
  Parts.push_back(filterStream(Acc));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  EXPECT_TRUE(G.hasStatefulFilter());
  EXPECT_FALSE(makeScalePipeline().hasStatefulFilter());
}

TEST(Stateful, StatePersistsAcrossFirings) {
  FilterPtr Acc = makeAccumulator();
  FilterState State = FilterState::initFor(*Acc);
  ChannelBuffer In(TokenType::Int), Out(TokenType::Int);
  for (int64_t V : {1, 2, 3, 4})
    In.push(Scalar::makeInt(V));
  for (int I = 0; I < 4; ++I)
    fireFilter(*Acc, &In, &Out, nullptr, &State);
  EXPECT_EQ(Out.pop().asInt(), 1);
  EXPECT_EQ(Out.pop().asInt(), 3);
  EXPECT_EQ(Out.pop().asInt(), 6);
  EXPECT_EQ(Out.pop().asInt(), 10);
}

TEST(Stateful, InitialValuesRespected) {
  FilterBuilder B("Counter", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *C = B.stateScalarI("c", 100);
  B.popDiscard();
  B.assign(C, B.add(B.ref(C), B.litI(1)));
  B.push(B.ref(C));
  FilterPtr F = B.build();

  FilterState State = FilterState::initFor(*F);
  EXPECT_EQ(State.Slots[C->slot()][0].asInt(), 100);
  ChannelBuffer In(TokenType::Int), Out(TokenType::Int);
  In.push(Scalar::makeInt(0));
  fireFilter(*F, &In, &Out, nullptr, &State);
  EXPECT_EQ(Out.pop().asInt(), 101);
}

TEST(Stateful, GraphInterpreterThreadsStateThrough) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeScaleInt("Pre", 2)));
  Parts.push_back(filterStream(makeAccumulator()));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));

  GraphInterpreter GI(G);
  for (int64_t V : {1, 2, 3})
    GI.feedInput({Scalar::makeInt(V)});
  ASSERT_TRUE(GI.runSteadyState({1, 1}, 3));
  // Inputs doubled then accumulated: 2, 6, 12.
  ASSERT_EQ(GI.output().size(), 3u);
  EXPECT_EQ(GI.output()[0].asInt(), 2);
  EXPECT_EQ(GI.output()[1].asInt(), 6);
  EXPECT_EQ(GI.output()[2].asInt(), 12);
}

TEST(Stateful, IirConverges) {
  FilterPtr F = makeIir(0.5);
  FilterState State = FilterState::initFor(*F);
  ChannelBuffer In(TokenType::Float), Out(TokenType::Float);
  double Last = 0.0;
  for (int I = 0; I < 32; ++I) {
    In.push(Scalar::makeFloat(1.0));
    fireFilter(*F, &In, &Out, nullptr, &State);
    Last = Out.pop().asFloat();
  }
  EXPECT_NEAR(Last, 1.0, 1e-6) << "step response settles at the input";
}

TEST(Stateful, GpuCompilerRejects) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeScaleInt("Pre", 1)));
  Parts.push_back(filterStream(makeAccumulator()));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  CompileOptions Options;
  Options.Sched.Pmax = 4;
  EXPECT_FALSE(compileForGpu(G, Options).has_value())
      << "the paper's restriction: stateless filters only";
}

TEST(Stateful, StatelessStillCompiles) {
  StreamGraph G = makeScalePipeline();
  CompileOptions Options;
  Options.Sched.Pmax = 4;
  EXPECT_TRUE(compileForGpu(G, Options).has_value());
}

TEST(RateValidation, AcceptsConsistentFilters) {
  EXPECT_FALSE(validateFilterRates(*makeScaleInt("S", 2)).has_value());
  EXPECT_FALSE(validateFilterRates(*makeMovingSum("MS", 4)).has_value());
  EXPECT_FALSE(validateFilterRates(*makeFig4A()).has_value());
  EXPECT_FALSE(validateGraphRates(makeDupSplitGraph()).has_value());
}

TEST(RateValidation, CatchesUnderPopping) {
  FilterBuilder B("Bad", TokenType::Int, TokenType::Int);
  B.setRates(2, 1); // Declares pop 2 but only pops once.
  B.push(B.pop());
  FilterPtr F = B.build();
  auto Err = validateFilterRates(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("pop rate 2"), std::string::npos) << *Err;
}

TEST(RateValidation, CatchesOverPushing) {
  FilterBuilder B("Bad", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *V = B.declVar("v", B.pop());
  B.push(B.ref(V));
  B.push(B.ref(V)); // One too many.
  FilterPtr F = B.build();
  auto Err = validateFilterRates(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("push"), std::string::npos) << *Err;
}

TEST(RateValidation, CatchesBranchDependentRates) {
  FilterBuilder B("Cond", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *V = B.declVar("v", B.pop());
  B.beginIf(B.gt(B.ref(V), B.litI(0)));
  B.push(B.ref(V));
  B.endIf();
  FilterPtr F = B.build();
  auto Err = validateFilterRates(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("control-flow dependent"), std::string::npos);
}

TEST(RateValidation, CompilerRejectsBadRates) {
  FilterBuilder B("Bad", TokenType::Int, TokenType::Int);
  B.setRates(3, 1);
  B.push(B.pop()); // Pops 1, declared 3.
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(B.build()));
  Parts.push_back(filterStream(makeScaleInt("Post", 2)));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  CompileOptions Options;
  Options.Sched.Pmax = 4;
  EXPECT_FALSE(compileForGpu(G, Options).has_value());
}
