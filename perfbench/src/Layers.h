//===- perfbench/src/Layers.h - Traced per-layer replays --------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs' view of the layers. replayCompile() re-runs one
/// compile stage by stage through the public functions, in the order
/// compileSwp() calls them, with a benchmark span around each stage:
///
///   flatten -> SteadyState::compute -> profileGraph ->
///   selectExecutionConfig -> computeGpuSteadyState + scheduleSwp ->
///   selectSchemaAssignment -> buildSwpKernelDesc + simulateKernel ->
///   KernelSchema::emit
///
/// replayServiceLayers() pushes programs through the daemon's hit path
/// outside the daemon: parseStreamProgram, flatten, graphHash and a
/// scratch ScheduleCache with a disk directory. LayerTotals carries every
/// per-layer metric; each workload fills what it exercises.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "core/Compiler.h"
#include "ir/Stream.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Every per-layer metric of the benchmark, per corpus pass.
struct LayerTotals {
  double ParserS = 0, FlattenS = 0, SdfS = 0;
  double Nodes = 0, Edges = 0;
  double ProfileSweepS = 0, ProfileSelectS = 0, ProfileCells = 0;
  double CycleProfileRuns = 0;
  double SchedS = 0, BnbS = 0, IIAttempts = 0, ExactFrac = 0, RelaxPct = 0;
  double BnbNodes = 0, BudgetCuts = 0, Incumbents = 0, LpSolves = 0;
  double Pivots = 0;
  double SchemaSelectS = 0, QueueEdges = 0;
  double EmitS = 0, CudaKb = 0;
  double KernelS = 0, WarpsIssued = 0, KernelCycles = 0, Transactions = 0;
  double StallFrac = 0;
  double HashS = 0, LookupMs = 0, InsertMs = 0;
  double HitMs = 0, MissMs = 0, TransportMs = 0;
  double HitRate = 0, CacheMb = 0, Coalesced = 0, Busy = 0;
  double Coverage = 0, OverheadFrac = 0;
};

/// Appends every per-layer metric of \p L to \p Out.
void addLayerMetrics(RunResult &Out, const LayerTotals &L);

/// What one replayed compile produced.
struct ReplayOutcome {
  int Nodes = 0, Edges = 0;
  sgpu::ScheduleResult Sched;
  sgpu::SchemaKind Schema = sgpu::SchemaKind::GlobalChannel;
  int QueueEdges = 0;
  sgpu::KernelSimResult Sim;
  double Speedup = 0.0;
  size_t CudaBytes = 0;
  /// Registry counter deltas over the replay, by counter name.
  std::map<std::string, int64_t> Counters;
};

/// Replays compileForGpu(flatten(Root), O) plus the emit, stage by stage,
/// recording one span per stage under a root span named "compile".
/// Supports the GPU machine and the SWP strategies (what the workloads
/// compile). Returns std::nullopt where compileForGpu would.
std::optional<ReplayOutcome> replayCompile(const sgpu::Stream &Root,
                                           const sgpu::CompileOptions &O,
                                           const std::string &Item,
                                           SpanLog &Log);

/// Adds one pass of replayed compiles to \p L: stage span totals from
/// \p Log (spans from index \p From on) and the outcomes' counts and
/// counter deltas. Returns the seconds the stage spans cover.
double addCompilePass(LayerTotals &L, const SpanLog &Log, size_t From,
                      const std::vector<ReplayOutcome> &Outcomes);

/// One program pushed through the service-layer replay.
struct ServiceProgram {
  std::string Item;
  std::string Source;              ///< `.str` text, or empty ...
  const sgpu::Stream *Root = nullptr; ///< ... for a registry program.
  std::string ReportJson;          ///< The value to cache.
};

/// Parses (sources only), flattens, hashes and inserts every program into
/// a fresh ScheduleCache persisted under the new directory \p CacheDir
/// (kept afterwards, like the served workload's), then looks each key
/// up and checks the cached value. Fills ParserS, HashS, InsertMs and
/// LookupMs of \p L; lookup mismatches are failures of \p Out.
void replayServiceLayers(const std::vector<ServiceProgram> &Programs,
                         const sgpu::CompileOptions &O,
                         const std::string &CacheDir, LayerTotals &L,
                         RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
