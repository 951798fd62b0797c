//===- testing/TestGraphs.h - Shared fixtures for tests ---------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small filters and graphs reused across the unit tests and the fuzzing
/// harness: the src/testing library (GraphGen/Oracles/Reducer) and the
/// test binaries share one set of fixtures.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_TESTING_TESTGRAPHS_H
#define SGPU_TESTING_TESTGRAPHS_H

#include "ir/FilterBuilder.h"
#include "ir/Stream.h"
#include "ir/StreamGraph.h"

#include <vector>

namespace sgpu {
namespace testing {

/// pop 1, push 1: multiplies by an integer constant.
inline FilterPtr makeScaleInt(const std::string &Name, int64_t Factor) {
  FilterBuilder B(Name, TokenType::Int, TokenType::Int);
  B.setRates(1, 1);
  B.push(B.mul(B.pop(), B.litI(Factor)));
  return B.build();
}

/// pop 1, push 1: adds a float constant.
inline FilterPtr makeOffsetFloat(const std::string &Name, double Offset) {
  FilterBuilder B(Name, TokenType::Float, TokenType::Float);
  B.setRates(1, 1);
  B.push(B.add(B.pop(), B.litF(Offset)));
  return B.build();
}

/// The paper's Figure 4 example: A pushes 2 per firing, B pops 3.
inline FilterPtr makeFig4A() {
  FilterBuilder B("A", TokenType::Int, TokenType::Int);
  B.setRates(1, 2);
  const VarDecl *V = B.declVar("v", B.pop());
  B.push(B.ref(V));
  B.push(B.mul(B.ref(V), B.litI(10)));
  return B.build();
}

inline FilterPtr makeFig4B() {
  FilterBuilder B("B", TokenType::Int, TokenType::Int);
  B.setRates(3, 1);
  const VarDecl *S = B.declVar("s", B.pop());
  B.assign(S, B.add(B.ref(S), B.pop()));
  B.assign(S, B.add(B.ref(S), B.pop()));
  B.push(B.ref(S));
  return B.build();
}

/// pop 1, push 1, peek W: moving sum of a W-token window.
inline FilterPtr makeMovingSum(const std::string &Name, int64_t W) {
  FilterBuilder B(Name, TokenType::Float, TokenType::Float);
  B.setRates(1, 1, W);
  const VarDecl *Sum = B.declVar("sum", B.litF(0.0));
  const VarDecl *I = B.beginFor("i", B.litI(0), B.litI(W));
  B.assign(Sum, B.add(B.ref(Sum), B.peek(B.ref(I))));
  B.endFor();
  B.push(B.ref(Sum));
  B.popDiscard();
  return B.build();
}

/// A three-stage int pipeline: x -> 2x -> 2x+... (scale 2, scale 3,
/// scale 5), overall x * 30.
inline StreamGraph makeScalePipeline() {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeScaleInt("S2", 2)));
  Parts.push_back(filterStream(makeScaleInt("S3", 3)));
  Parts.push_back(filterStream(makeScaleInt("S5", 5)));
  return flatten(*pipelineStream(std::move(Parts)));
}

/// The Figure 4 multirate pipeline A(1->2) -> B(3->1).
inline StreamGraph makeFig4Graph() {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeFig4A()));
  Parts.push_back(filterStream(makeFig4B()));
  return flatten(*pipelineStream(std::move(Parts)));
}

/// Duplicate split into (x*2, x*3) joined round-robin.
inline StreamGraph makeDupSplitGraph() {
  std::vector<StreamPtr> Branches;
  Branches.push_back(filterStream(makeScaleInt("Twice", 2)));
  Branches.push_back(filterStream(makeScaleInt("Thrice", 3)));
  std::vector<StreamPtr> Parts;
  Parts.push_back(duplicateSplitJoin(std::move(Branches), {1, 1}));
  Parts.push_back(filterStream(makeScaleInt("Out", 1)));
  return flatten(*pipelineStream(std::move(Parts)));
}

/// A deep single-rate int pipeline of \p Stages scale filters; every
/// stage depends on the previous one, which makes it the canonical
/// fixture for dependence-order schedule mutations.
inline StreamGraph makeDeepScalePipeline(int Stages) {
  std::vector<StreamPtr> Parts;
  for (int I = 0; I < Stages; ++I)
    Parts.push_back(
        filterStream(makeScaleInt("D" + std::to_string(I), 2 + I % 3)));
  return flatten(*pipelineStream(std::move(Parts)));
}

} // namespace testing
} // namespace sgpu

#endif // SGPU_TESTING_TESTGRAPHS_H
