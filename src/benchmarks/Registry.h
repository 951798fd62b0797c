//===- benchmarks/Registry.h - Table I benchmark suite ----------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eight StreamIt 2.1.1 benchmarks of the paper's Table I, ported to
/// the builder DSL: Bitonic, BitonicRec, DCT, DES, FFT, Filterbank,
/// FMRadio and MatrixMult. Graph shapes, rates and peeking structure
/// follow the originals; a few constant tables (DES S-boxes, round keys)
/// are synthetic-but-deterministic stand-ins with identical rates, noted
/// in DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_BENCHMARKS_REGISTRY_H
#define SGPU_BENCHMARKS_REGISTRY_H

#include "ir/Stream.h"
#include "ir/Type.h"

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace sgpu {
namespace bench {

/// Bitonic sorting network for 8 integers (iterative network).
StreamPtr buildBitonic();
/// Recursive bitonic sorting network for 8 integers.
StreamPtr buildBitonicRec();
/// 8x8 two-dimensional Discrete Cosine Transform.
StreamPtr buildDct();
/// DES encryption over bit-token streams (16 Feistel rounds).
StreamPtr buildDes();
/// Radix-2 FFT over 16-point complex frames.
StreamPtr buildFft();
/// 8-branch multirate analysis/synthesis filter bank.
StreamPtr buildFilterbank();
/// Software FM radio with a 10-band equalizer.
StreamPtr buildFmRadio();
/// Blocked 4x4 matrix multiply.
StreamPtr buildMatrixMult();

/// One registry entry.
struct BenchmarkSpec {
  std::string Name;
  std::string Description;
  StreamPtr (*Build)();
  TokenType InputType;
  /// Paper Table I reference values, for the Table I bench printout.
  int PaperFilters;
  int PaperPeeking;
};

/// Prints the benchmark's name, so gtest names parameterized tests by
/// it rather than by the struct's raw bytes.
inline void PrintTo(const BenchmarkSpec &Spec, std::ostream *OS) {
  *OS << Spec.Name;
}

/// All eight Table I benchmarks in the paper's order.
const std::vector<BenchmarkSpec> &allBenchmarks();

/// Lookup by name; null when unknown.
const BenchmarkSpec *findBenchmark(const std::string &Name);

/// Deterministic program input for a benchmark.
std::vector<Scalar> makeBenchmarkInput(const BenchmarkSpec &Spec,
                                       int64_t Tokens, uint64_t Seed = 42);

} // namespace bench
} // namespace sgpu

#endif // SGPU_BENCHMARKS_REGISTRY_H
