//===- service/GraphHash.h - Content-addressed schedule keys ----*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives the content-addressed cache key of a compile request: a
/// SHA-256 over the *canonical form* of (flattened stream graph, machine
/// model, semantic compile options). The canonical form deliberately
/// excludes everything that cannot change the compile result:
///
///  - filter / splitter / joiner *names* (a renamed filter is the same
///    program; nodes are identified by their flatten-order index),
///  - source-text accidents (whitespace, comments, declaration spelling
///    — the hash is taken after parsing and flattening, never over text),
///  - execution-engine knobs that are determinism-invariant by the
///    repo's own tests (`NumWorkers`, `IIWindow` — final II and report
///    are identical at any worker count).
///
/// Everything that *can* change the result is included: graph structure
/// and rates, work-function bodies (printed through the symbolic AST
/// printer), field constants, the full GpuArch parameter set, strategy,
/// coarsening, timing model, and the solver budget knobs (a different
/// node budget can cut the search at a different incumbent).
///
/// Option spellings are canonicalized through the same functions the CLI
/// parsers use (`parseStrategyName`/`strategyOptionName`,
/// `parseTimingModelKind`/`timingModelKindName`), so "SWP" and "swp"
/// cannot hash apart. See DESIGN.md "Scheduling as a service".
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_SERVICE_GRAPHHASH_H
#define SGPU_SERVICE_GRAPHHASH_H

#include "core/Compiler.h"
#include "ir/StreamGraph.h"

#include <string>

namespace sgpu {
namespace service {

/// Version of the canonical form below. Bump whenever canonicalization
/// output changes; old cache entries then miss by key and are replaced.
/// v2: warp_sched= and config_select= joined the canonical options.
/// v3: schema= (the kernel-schema mode, codegen/schema/) joined the
/// canonical options — a warp-specialized compile produces a different
/// schedule report than a global one, so v2 keys must not alias it.
/// v4: machine= (gpu/hybrid) plus the CPU core count and per-core cache
/// budget joined the canonical options — hybrid schedules assign
/// instances to CPU cores, so gpu-mode keys must not alias them.
/// v5: dram= (GpuArch::DramBytes) joined the arch line — the hybrid
/// memory bound changes the answer, so machines that differ only in
/// device memory must not share a key.
constexpr int kCanonicalFormVersion = 5;

/// Renders \p G in the canonical name-free text form described above.
std::string canonicalizeGraph(const StreamGraph &G);

/// Renders the semantic subset of \p Options (strategy, coarsening,
/// timing model, machine model, solver budgets) with canonical
/// spellings, one `key=value` per line in a fixed order.
std::string canonicalizeOptions(const CompileOptions &Options);

/// The cache key: 64 hex characters of
/// SHA-256(canonical header + graph + options).
std::string graphHash(const StreamGraph &G, const CompileOptions &Options);

} // namespace service
} // namespace sgpu

#endif // SGPU_SERVICE_GRAPHHASH_H
