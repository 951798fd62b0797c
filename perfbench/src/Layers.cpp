//===- perfbench/src/Layers.cpp - Traced per-layer replays ----------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "codegen/schema/SchemaSelect.h"
#include "core/CpuBaseline.h"
#include "ir/Analyzer.h"
#include "parser/Parser.h"
#include "profile/Profiler.h"
#include "service/GraphHash.h"
#include "service/ScheduleCache.h"

#include <algorithm>

using namespace sgpu;

namespace perfbench {

void addLayerMetrics(RunResult &Out, const LayerTotals &L) {
  Out.add("parser.s", "s", L.ParserS);
  Out.add("ir.flatten_s", "s", L.FlattenS);
  Out.add("ir.nodes", "count", L.Nodes);
  Out.add("ir.edges", "count", L.Edges);
  Out.add("sdf.s", "s", L.SdfS);
  Out.add("profile.sweep_s", "s", L.ProfileSweepS);
  Out.add("profile.select_s", "s", L.ProfileSelectS);
  Out.add("profile.cells", "count", L.ProfileCells);
  Out.add("cyclesim.profile_runs", "count", L.CycleProfileRuns);
  Out.add("sched.s", "s", L.SchedS);
  Out.add("sched.bnb_s", "s", L.BnbS);
  Out.add("sched.ii_attempts", "count", L.IIAttempts);
  Out.add("sched.exact_frac", "ratio", L.ExactFrac);
  Out.add("sched.relax_pct", "%", L.RelaxPct);
  Out.add("ilp.bnb_nodes", "count", L.BnbNodes);
  Out.add("ilp.budget_cuts", "count", L.BudgetCuts);
  Out.add("ilp.incumbents", "count", L.Incumbents);
  Out.add("ilp.lp_solves", "count", L.LpSolves);
  Out.add("ilp.pivots", "count", L.Pivots);
  Out.add("schema.select_s", "s", L.SchemaSelectS);
  Out.add("schema.queue_edges", "count", L.QueueEdges);
  Out.add("codegen.emit_s", "s", L.EmitS);
  Out.add("codegen.cuda_kb", "KB", L.CudaKb);
  Out.add("sim.kernel_s", "s", L.KernelS);
  Out.add("cyclesim.warps_issued", "count", L.WarpsIssued);
  Out.add("sim.kernel_cycles", "cycles", L.KernelCycles);
  Out.add("sim.transactions", "count", L.Transactions);
  Out.add("sim.stall_frac", "ratio", L.StallFrac);
  Out.add("service.hash_s", "s", L.HashS);
  Out.add("cache.lookup_ms", "ms", L.LookupMs);
  Out.add("cache.insert_ms", "ms", L.InsertMs);
  Out.add("service.hit_ms", "ms", L.HitMs);
  Out.add("service.miss_ms", "ms", L.MissMs);
  Out.add("transport.ms", "ms", L.TransportMs);
  Out.add("cache.hit_rate", "ratio", L.HitRate);
  Out.add("cache.mb", "MB", L.CacheMb);
  Out.add("service.coalesced", "count", L.Coalesced);
  Out.add("service.busy", "count", L.Busy);
  Out.add("trace.coverage", "ratio", L.Coverage);
  Out.add("trace.overhead_frac", "ratio", L.OverheadFrac);
}

namespace {

/// The stages of one compile, each under its own span.
std::optional<ReplayOutcome> replayStages(const Stream &Root,
                                          const CompileOptions &O,
                                          const std::string &Item,
                                          SpanLog &Log) {
  Span Whole(Log, "compile", Item);
  ReplayOutcome Out;

  std::optional<StreamGraph> G;
  {
    Span S(Log, "ir.flatten", Item);
    G.emplace(flatten(Root));
  }
  Out.Nodes = G->numNodes();
  Out.Edges = G->numEdges();

  // compileForGpu's admission checks, then the rate solve.
  std::optional<SteadyState> SS;
  {
    Span S(Log, "sdf", Item);
    if (!G->validate() && !G->hasStatefulFilter() && !validateGraphRates(*G))
      SS = SteadyState::compute(*G);
  }
  if (!SS)
    return std::nullopt;

  // compileSwp: the timing model, the Fig. 6 sweep and Alg. 7. The
  // workloads keep ConfigSelect at Auto, so one model serves both.
  const LayoutKind Layout = layoutFor(O.Strat);
  std::unique_ptr<TimingModel> Model =
      createTimingModel(O.Timing, O.Arch, O.WarpSched);
  std::optional<ProfileTable> PT;
  {
    Span S(Log, "profile.sweep", Item);
    PT.emplace(profileGraph(O.Arch, *G, Layout, O.Sched.NumWorkers,
                            /*NumFirings=*/0, Model.get()));
  }
  std::optional<ExecutionConfig> Config;
  {
    Span S(Log, "profile.select", Item);
    Config = selectExecutionConfig(*SS, *PT);
  }
  if (!Config)
    return std::nullopt;

  GpuSteadyState GSS;
  std::optional<ScheduleResult> SR;
  {
    Span S(Log, "sched", Item);
    GSS = computeGpuSteadyState(SS->repetitions(), Config->Threads);
    SchedulerOptions SO = O.Sched;
    SO.Pmax = std::min(SO.Pmax, O.Arch.NumSMs);
    SR = scheduleSwp(*G, *SS, *Config, GSS, SO);
  }
  if (!SR)
    return std::nullopt;

  SchemaAssignment Schema;
  {
    Span S(Log, "schema.select", Item);
    Schema.Edges.assign(G->numEdges(), EdgeSchema::GlobalChannel);
    Schema.QueueCapTokens.assign(G->numEdges(), 0);
    if (O.Schema != SchemaMode::Global) {
      SchemaAssignment Warp = selectSchemaAssignment(
          O.Arch, *G, *SS, *Config, GSS, SR->Schedule,
          SchemaKind::WarpSpecialized, O.Coarsening);
      if (O.Schema == SchemaMode::Warp) {
        Schema = std::move(Warp);
      } else if (Warp.numQueueEdges() > 0) {
        KernelDesc GlobalDesc = buildSwpKernelDesc(
            O.Arch, *G, *Config, SR->Schedule, Layout, O.Coarsening);
        KernelDesc WarpDesc = buildSwpKernelDesc(
            O.Arch, *G, *Config, SR->Schedule, Layout, O.Coarsening, &Warp);
        if (Model->simulateKernel(WarpDesc).TotalCycles <
            Model->simulateKernel(GlobalDesc).TotalCycles)
          Schema = std::move(Warp);
      }
    }
  }

  {
    Span S(Log, "sim.kernel", Item);
    KernelDesc Desc = buildSwpKernelDesc(O.Arch, *G, *Config, SR->Schedule,
                                         Layout, O.Coarsening, &Schema);
    Out.Sim = Model->simulateKernel(Desc);
  }
  double GpuPerIter = Out.Sim.TotalCycles /
                      (static_cast<double>(GSS.Multiplier) *
                       static_cast<double>(O.Coarsening));
  Out.Speedup = speedupOverCpu(cpuCyclesPerBaseIteration(*SS, O.Cpu),
                               O.Cpu.ClockGHz, GpuPerIter,
                               O.Arch.CoreClockGHz);

  {
    Span S(Log, "codegen.emit", Item);
    CudaEmitOptions EmitOpts;
    EmitOpts.Layout = Layout;
    EmitOpts.Coarsening = O.Coarsening;
    Out.CudaBytes = createKernelSchema(Schema.Kind)
                        ->emit(*G, *SS, *Config, GSS, SR->Schedule, Schema,
                               EmitOpts)
                        .size();
  }
  Out.Schema = Schema.Kind;
  Out.QueueEdges = Schema.numQueueEdges();
  Out.Sched = std::move(*SR);
  return Out;
}

} // namespace

std::optional<ReplayOutcome> replayCompile(const Stream &Root,
                                           const CompileOptions &O,
                                           const std::string &Item,
                                           SpanLog &Log) {
  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
  std::optional<ReplayOutcome> Out = replayStages(Root, O, Item, Log);
  if (Out) {
    MetricsRegistry::Snapshot After = MetricsRegistry::global().snapshot();
    for (const char *Name :
         {"profile.cells", "cyclesim.profile_runs", "cyclesim.warps_issued",
          "bnb.nodes_solved", "bnb.budget_cuts", "bnb.incumbents",
          "simplex.lp_solves", "simplex.pivots"})
      Out->Counters[Name] = counterDelta(Before, After, Name);
  }
  return Out;
}

double addCompilePass(LayerTotals &L, const SpanLog &Log, size_t From,
                      const std::vector<ReplayOutcome> &Outcomes) {
  L.FlattenS = Log.totalSeconds("ir.flatten", From);
  L.SdfS = Log.totalSeconds("sdf", From);
  L.ProfileSweepS = Log.totalSeconds("profile.sweep", From);
  L.ProfileSelectS = Log.totalSeconds("profile.select", From);
  L.SchedS = Log.totalSeconds("sched", From);
  L.SchemaSelectS = Log.totalSeconds("schema.select", From);
  L.KernelS = Log.totalSeconds("sim.kernel", From);
  L.EmitS = Log.totalSeconds("codegen.emit", From);

  int Ran = 0, Decided = 0;
  double Relax = 0.0, Stall = 0.0, SmTotal = 0.0;
  for (const ReplayOutcome &R : Outcomes) {
    auto Count = [&R](const char *Name) {
      auto It = R.Counters.find(Name);
      return It == R.Counters.end() ? 0.0 : double(It->second);
    };
    L.ProfileCells += Count("profile.cells");
    L.CycleProfileRuns += Count("cyclesim.profile_runs");
    L.WarpsIssued += Count("cyclesim.warps_issued");
    L.BnbNodes += Count("bnb.nodes_solved");
    L.BudgetCuts += Count("bnb.budget_cuts");
    L.Incumbents += Count("bnb.incumbents");
    L.LpSolves += Count("simplex.lp_solves");
    L.Pivots += Count("simplex.pivots");
    L.Nodes += R.Nodes;
    L.Edges += R.Edges;
    L.BnbS += R.Sched.SolverSeconds;
    L.IIAttempts += R.Sched.IIAttempts;
    if (R.Sched.SolverNodes > 0 || R.Sched.SolverSeconds > 0.0) {
      ++Ran;
      Decided += R.Sched.UsedIlp ? 1 : 0;
    }
    Relax += R.Sched.RelaxationPercent;
    L.QueueEdges += R.QueueEdges;
    L.CudaKb += static_cast<double>(R.CudaBytes) / 1024.0;
    L.KernelCycles += R.Sim.TotalCycles;
    L.Transactions += R.Sim.Transactions;
    for (const SmBreakdown &B : R.Sim.PerSm) {
      Stall += B.StallCycles;
      SmTotal += B.TotalCycles;
    }
  }
  if (Ran > 0)
    L.ExactFrac = static_cast<double>(Decided) / Ran;
  if (!Outcomes.empty())
    L.RelaxPct = Relax / static_cast<double>(Outcomes.size());
  if (SmTotal > 0.0)
    L.StallFrac = Stall / SmTotal;
  return L.FlattenS + L.SdfS + L.ProfileSweepS + L.ProfileSelectS +
         L.SchedS + L.SchemaSelectS + L.KernelS + L.EmitS;
}

void replayServiceLayers(const std::vector<ServiceProgram> &Programs,
                         const CompileOptions &O,
                         const std::string &CacheDir, LayerTotals &L,
                         RunResult &Out) {
  service::ScheduleCache::Options CO;
  CO.Dir = CacheDir;
  service::ScheduleCache Cache(CO);
  SpanLog &Log = Out.Spans;
  const size_t From = Log.spans().size();

  std::vector<std::string> Keys;
  for (const ServiceProgram &P : Programs) {
    StreamPtr Parsed;
    if (!P.Source.empty()) {
      Span S(Log, "parser", P.Item);
      Parsed = parseStreamProgram(P.Source);
    }
    const Stream *Root = Parsed ? Parsed.get() : P.Root;
    if (!Root) {
      Out.fail("service replay: cannot parse " + P.Item);
      Keys.emplace_back();
      continue;
    }
    std::optional<StreamGraph> G;
    {
      Span S(Log, "svc.flatten", P.Item);
      G.emplace(flatten(*Root));
    }
    {
      Span S(Log, "service.hash", P.Item);
      Keys.push_back(service::graphHash(*G, O));
    }
    {
      Span S(Log, "cache.insert", P.Item);
      Cache.insert(Keys.back(), P.ReportJson);
    }
  }
  for (size_t I = 0; I < Programs.size(); ++I) {
    if (Keys[I].empty())
      continue;
    std::optional<std::string> Hit;
    {
      Span S(Log, "cache.lookup", Programs[I].Item);
      Hit = Cache.lookup(Keys[I]);
    }
    if (!Hit || *Hit != Programs[I].ReportJson)
      Out.fail("service replay: cached value differs for " +
               Programs[I].Item);
  }
  L.ParserS = Log.totalSeconds("parser", From);
  L.HashS = Log.totalSeconds("service.hash", From);
  L.InsertMs = 1e3 * median(Log.durations("cache.insert", From));
  L.LookupMs = 1e3 * median(Log.durations("cache.lookup", From));
}

} // namespace perfbench
