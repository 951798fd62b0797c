//===- core/ReportWriter.cpp - Compile report serialization ------------------===//

#include "core/ReportWriter.h"

#include "support/Json.h"
#include "support/Metrics.h"

using namespace sgpu;

std::string sgpu::reportToJson(const StreamGraph &G,
                               const CompileReport &R) {
  JsonWriter W;
  W.beginObject();
  W.writeString("strategy", strategyName(R.Strat));
  W.writeInt("coarsening", R.Coarsening);
  W.writeString("layout", R.Layout == LayoutKind::Shuffled ? "shuffled"
                                                           : "sequential");
  W.writeString("timing_model", timingModelKindName(R.Timing));

  // Machine model: which processor set the schedule targets. Hybrid
  // compiles additionally surface the class layout, the solved per-class
  // coarsening values and how many instances landed on the host.
  W.beginObject("machine");
  W.writeString("mode", machineModeName(R.Machine));
  if (R.Machine == MachineMode::Hybrid) {
    W.beginArray("classes");
    for (size_t C = 0; C < R.MachineDesc.Classes.size(); ++C) {
      const ProcessorClass &PC = R.MachineDesc.Classes[C];
      W.beginObject();
      W.writeString("kind", procClassKindName(PC.Kind));
      W.writeInt("count", PC.Count);
      W.writeInt("mem_bytes", PC.MemBytes);
      if (C < R.Schedule.ClassCoarsening.size())
        W.writeInt("coarsening", R.Schedule.ClassCoarsening[C]);
      W.endObject();
    }
    W.endArray();
    W.writeInt("cpu_resident_instances", R.CpuResidentInstances);
  }
  W.endObject();

  // Kernel-schema decision (codegen/schema/): what was requested, what
  // was chosen, and which edges became shared-memory queues.
  W.beginObject("schema");
  W.writeString("requested", schemaModeName(R.RequestedSchema));
  W.writeString("selected", schemaKindName(R.Schema.Kind));
  W.writeInt("queue_edges", R.Schema.numQueueEdges());
  W.writeInt("shared_queue_bytes", R.Schema.SharedQueueBytes);
  W.beginArray("edges");
  for (size_t E = 0; E < R.Schema.Edges.size(); ++E) {
    W.beginObject();
    W.writeInt("edge", static_cast<int64_t>(E));
    W.writeString("schema", edgeSchemaName(R.Schema.Edges[E]));
    if (R.Schema.isQueue(static_cast<int>(E)))
      W.writeInt("cap_tokens", R.Schema.QueueCapTokens[E]);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  W.beginObject("graph");
  W.writeInt("nodes", G.numNodes());
  W.writeInt("edges", G.numEdges());
  W.writeInt("filters", G.numFilterNodes());
  W.writeInt("peeking_filters", G.numPeekingFilters());
  W.endObject();

  W.beginObject("execution_config");
  W.writeInt("reg_limit", R.Config.RegLimit);
  W.writeInt("block_threads", R.Config.NumThreads);
  W.beginArray("per_node_threads");
  for (int64_t T : R.Config.Threads)
    W.writeInt(T);
  W.endArray();
  W.endObject();

  W.beginObject("scheduling");
  W.writeDouble("res_mii", R.SchedStats.ResMII);
  W.writeDouble("rec_mii", R.SchedStats.RecMII);
  W.writeDouble("final_ii", R.SchedStats.FinalII);
  W.writeDouble("relaxation_percent", R.SchedStats.RelaxationPercent);
  W.writeInt("ii_attempts", R.SchedStats.IIAttempts);
  W.writeInt("bnb_nodes", R.SchedStats.SolverNodes);
  W.writeBool("used_ilp", R.SchedStats.UsedIlp);
  W.writeInt("stage_span", R.Schedule.stageSpan());

  // Solver-engine telemetry (see DESIGN.md "Solver engineering").
  W.beginObject("solver");
  W.writeInt("lp_solves", R.SchedStats.SolverLpSolves);
  W.writeInt("simplex_iterations", R.SchedStats.SolverSimplexIters);
  W.writeInt("pivots", R.SchedStats.SolverPivots);
  W.writeDouble("seconds", R.SchedStats.SolverSeconds);
  W.writeInt("workers", R.SchedStats.WorkersUsed);
  W.writeInt("warm_starts", R.SchedStats.SolverWarmStarts);
  W.beginArray("ii_wall_seconds");
  for (double S : R.SchedStats.IIWallSeconds)
    W.writeDouble(S);
  W.endArray();
  W.endObject();
  W.endObject();

  W.beginArray("instances");
  for (const ScheduledInstance &SI : R.Schedule.Instances) {
    W.beginObject();
    W.writeString("node", G.node(SI.Node).Name);
    W.writeInt("k", SI.K);
    W.writeInt("sm", SI.Sm);
    if (R.Machine == MachineMode::Hybrid)
      W.writeString("class",
                    procClassKindName(R.MachineDesc.classOf(SI.Sm).Kind));
    W.writeDouble("o", SI.O);
    W.writeInt("f", SI.F);
    W.endObject();
  }
  W.endArray();

  W.beginObject("metrics");
  W.writeDouble("gpu_cycles_per_base_iter", R.GpuCyclesPerBaseIteration);
  W.writeDouble("cpu_cycles_per_base_iter", R.CpuCyclesPerBaseIteration);
  W.writeDouble("speedup", R.Speedup);
  W.writeInt("buffer_bytes", R.BufferBytes);
  W.writeDouble("pipeline_latency_cycles", R.PipelineLatencyCycles);
  W.writeDouble("tokens_per_kilocycle", R.TokensPerKiloCycle);
  W.endObject();

  W.beginObject("kernel_sim");
  W.writeDouble("total_cycles", R.KernelSim.TotalCycles);
  W.writeDouble("fill_cycles", R.KernelSim.FillCycles);
  W.writeDouble("transactions", R.KernelSim.Transactions);
  W.writeString("warp_sched", warpSchedPolicyName(R.WarpSched));
  W.beginArray("per_sm");
  for (const SmBreakdown &B : R.KernelSim.PerSm) {
    W.beginObject();
    W.writeDouble("busy_cycles", B.BusyCycles);
    W.writeDouble("stall_cycles", B.StallCycles);
    W.writeDouble("total_cycles", B.TotalCycles);
    W.writeDouble("fetch_busy_cycles", B.FetchBusyCycles);
    W.writeDouble("fetch_stall_cycles", B.FetchStallCycles);
    W.writeDouble("operand_stall_cycles", B.OperandStallCycles);
    W.writeDouble("mem_stall_cycles", B.MemStallCycles);
    W.writeInt("warp_instrs", B.WarpInstrs);
    W.writeInt("transactions", B.Transactions);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  // Process-wide observability counters accumulated so far (see
  // DESIGN.md "Observability"). Callers that want per-compile deltas
  // reset the registry before compiling, as perf_gate does.
  W.beginObject("pipeline_metrics");
  MetricsRegistry::global().writeJson(W);
  W.endObject();

  W.endObject();
  return W.str();
}
