//===- tests/ir_ast_test.cpp - AST, builder, analyzer tests -----------------===//

#include "ir/Analyzer.h"
#include "ir/AstPrinter.h"
#include "ir/FilterBuilder.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

TEST(FilterBuilder, RatesAndTypes) {
  FilterPtr F = makeScaleInt("S", 3);
  EXPECT_EQ(F->popRate(), 1);
  EXPECT_EQ(F->pushRate(), 1);
  EXPECT_EQ(F->peekRate(), 1);
  EXPECT_FALSE(F->isPeeking());
  EXPECT_EQ(F->inputType(), TokenType::Int);
  EXPECT_EQ(F->outputType(), TokenType::Int);
}

TEST(FilterBuilder, PeekingFilter) {
  FilterPtr F = makeMovingSum("MS", 8);
  EXPECT_EQ(F->peekRate(), 8);
  EXPECT_TRUE(F->isPeeking());
}

TEST(FilterBuilder, FieldsHoldConstants) {
  FilterBuilder B("F", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  const VarDecl *K = B.fieldScalarF("k", 2.5);
  const VarDecl *Tab = B.fieldArrayI("tab", {1, 2, 3});
  B.push(B.mul(B.pop(), B.ref(K)));
  FilterPtr F = B.build();
  EXPECT_DOUBLE_EQ(F->fieldValues(K->slot())[0].asFloat(), 2.5);
  ASSERT_EQ(F->fieldValues(Tab->slot()).size(), 3u);
  EXPECT_EQ(F->fieldValues(Tab->slot())[2].asInt(), 3);
  EXPECT_TRUE(K->isField());
  EXPECT_TRUE(Tab->isArray());
}

TEST(FilterBuilder, ImplicitIntToFloatPromotion) {
  FilterBuilder B("F", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  // int literal + float pop must promote to float.
  const Expr *E = B.add(B.litI(1), B.pop());
  EXPECT_EQ(E->type(), TokenType::Float);
  B.push(E);
  FilterPtr F = B.build();
  EXPECT_EQ(F->pushRate(), 1);
}

TEST(FilterBuilder, ComparisonYieldsInt) {
  FilterBuilder B("F", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  const Expr *C = B.lt(B.litF(1.0), B.litF(2.0));
  EXPECT_EQ(C->type(), TokenType::Int);
  B.push(B.select(C, B.litF(1.0), B.litF(0.0)));
  (void)B.build();
}

TEST(Casting, IsaAndDynCast) {
  FilterBuilder B("F", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const Expr *L = B.litI(42);
  EXPECT_TRUE(isa<IntLiteral>(L));
  EXPECT_FALSE(isa<FloatLiteral>(L));
  EXPECT_EQ(cast<IntLiteral>(L)->value(), 42);
  EXPECT_EQ(dyn_cast<FloatLiteral>(L), nullptr);
  EXPECT_NE(dyn_cast<IntLiteral>(L), nullptr);
  B.push(B.pop());
  (void)B.build();
}

TEST(Analyzer, CountsOpsInStraightLine) {
  FilterPtr F = makeScaleInt("S", 3);
  WorkEstimate WE = analyzeFilter(*F);
  EXPECT_EQ(WE.ChannelReads, 1);
  EXPECT_EQ(WE.ChannelWrites, 1);
  EXPECT_EQ(WE.IntOps, 1); // The multiply.
  EXPECT_EQ(WE.FloatOps, 0);
  EXPECT_FALSE(WE.Approximate);
}

TEST(Analyzer, LoopScaling) {
  FilterPtr F = makeMovingSum("MS", 16);
  WorkEstimate WE = analyzeFilter(*F);
  // 16 peeks + 1 pop.
  EXPECT_EQ(WE.ChannelReads, 17);
  EXPECT_EQ(WE.ChannelWrites, 1);
  // 16 adds in the loop body plus loop overhead.
  EXPECT_GE(WE.FloatOps, 16);
  EXPECT_GE(WE.IntOps, 32); // 2 per iteration of loop bookkeeping.
}

TEST(Analyzer, RegistersGrowWithLocals) {
  FilterBuilder B("Many", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  const Expr *V = B.pop();
  std::vector<const VarDecl *> Vars;
  for (int I = 0; I < 20; ++I) {
    Vars.push_back(B.declVar("v" + std::to_string(I), V));
    V = B.ref(Vars.back());
  }
  B.push(V);
  FilterPtr F = B.build();
  WorkEstimate WE = analyzeFilter(*F);
  EXPECT_GE(WE.Registers, 20);
}

TEST(Analyzer, LargeLocalArraysSpill) {
  FilterBuilder B("Arr", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *A = B.declArray("a", TokenType::Int, 64);
  B.assignIndex(A, B.litI(0), B.pop());
  B.push(B.index(A, B.litI(0)));
  FilterPtr F = B.build();
  WorkEstimate WE = analyzeFilter(*F);
  EXPECT_EQ(WE.LocalArrayBytes, 64 * 4);
  EXPECT_GE(WE.LocalArrayAccesses, 2);
}

TEST(Analyzer, StaticRatesMatchDeclared) {
  FilterPtr F = makeFig4A();
  StaticRates R = computeStaticRates(*F);
  ASSERT_TRUE(R.Pops.has_value());
  ASSERT_TRUE(R.Pushes.has_value());
  EXPECT_EQ(*R.Pops, F->popRate());
  EXPECT_EQ(*R.Pushes, F->pushRate());
}

TEST(Analyzer, StaticRatesThroughLoops) {
  FilterPtr F = makeMovingSum("MS", 4);
  StaticRates R = computeStaticRates(*F);
  ASSERT_TRUE(R.Pops.has_value());
  EXPECT_EQ(*R.Pops, 1);
  EXPECT_EQ(*R.Pushes, 1);
}

TEST(Analyzer, BranchDependentRatesDetected) {
  FilterBuilder B("Cond", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *V = B.declVar("v", B.pop());
  B.beginIf(B.gt(B.ref(V), B.litI(0)));
  B.push(B.ref(V));
  B.endIf();
  FilterPtr F = B.build();
  StaticRates R = computeStaticRates(*F);
  EXPECT_FALSE(R.Pushes.has_value());
}

TEST(Analyzer, ConstFolding) {
  FilterBuilder B("CF", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const VarDecl *N = B.fieldScalarI("n", 6);
  const Expr *E = B.mul(B.ref(N), B.litI(7));
  B.push(B.pop());
  FilterPtr F = B.build();
  std::optional<int64_t> V = tryEvalConstInt(*F, E);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 42);
}

TEST(AstPrinter, SymbolicPrimitives) {
  FilterPtr F = makeMovingSum("MS", 4);
  std::string S = printWorkBody(*F, symbolicChannelLowering());
  EXPECT_NE(S.find("peek(i)"), std::string::npos);
  EXPECT_NE(S.find("push(sum)"), std::string::npos);
  EXPECT_NE(S.find("for (int i = 0; i < 4; i += 1)"), std::string::npos);
  EXPECT_NE(S.find("float sum;"), std::string::npos);
}

TEST(AstPrinter, CustomLowering) {
  FilterPtr F = makeScaleInt("S", 3);
  ChannelLowering L;
  L.Pop = [](const std::string &O) { return "IN[" + O + "]"; };
  L.Peek = [](const std::string &D) { return "IN_PEEK[" + D + "]"; };
  L.Push = [](const std::string &O, const std::string &V) {
    return "OUT[" + O + "] = " + V;
  };
  std::string S = printWorkBody(*F, L);
  EXPECT_NE(S.find("IN[__pop_idx++]"), std::string::npos);
  EXPECT_NE(S.find("OUT[__push_idx++] ="), std::string::npos);
}

TEST(AstPrinter, FieldConstants) {
  FilterBuilder B("F", TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  B.fieldArrayF("h", {1.0, 2.5});
  B.push(B.pop());
  FilterPtr F = B.build();
  std::string S = printFieldConstants(*F, "pfx_");
  EXPECT_NE(S.find("pfx_h[2] = {1.0f, 2.5f}"), std::string::npos);
}

TEST(AstPrinter, ParenthesizationByPrecedence) {
  FilterBuilder B("P", TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  const Expr *E = B.mul(B.add(B.litI(1), B.litI(2)), B.litI(3));
  std::string S = printExpr(E, symbolicChannelLowering());
  EXPECT_EQ(S, "(1 + 2) * 3");
  B.push(B.pop());
  (void)B.build();
}
