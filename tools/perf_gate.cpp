//===- tools/perf_gate.cpp - CI perf-regression gate -------------------------===//
//
// Replays the paper's eight Table I benchmarks through the SWP compiler,
// collects the pipeline metrics registry around each compile (per-stage
// wall time, simplex pivots, B&B node lifecycle, II candidates, schedule
// quality) and compares the counts against a
// checked-in baseline with per-class relative thresholds. CI runs this
// after the Release build and fails the PR on regression; the emitted
// perf_report.json is uploaded as an artifact either way.
//
// Usage:
//   perf_gate [--baseline=FILE] [--out=FILE] [--trace-out=FILE]
//             [--update] [--jobs=N] [--count-rel=F] [--quality-rel=F]
//             [--time-rel=F] [--gate-times]
//
// Exit status: 0 gate passed (or --update), 1 regression, 2 usage/IO.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Registry.h"
#include "codegen/CudaEmitter.h"
#include "core/Compiler.h"
#include "ir/StreamGraph.h"
#include "support/Metrics.h"
#include "support/PerfGate.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace sgpu;
using namespace sgpu::bench;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: perf_gate [options]\n"
      "  --baseline=FILE  checked-in baseline (default "
      "tools/perf_baseline.json)\n"
      "  --out=FILE       machine-readable report (default "
      "perf_report.json)\n"
      "  --trace-out=FILE also write a Chrome trace of the whole run\n"
      "  --update         rewrite the baseline from this run and exit 0\n"
      "  --jobs=N         scheduling-engine workers (default 4)\n"
      "  --count-rel=F    counter growth allowance (default 0.35)\n"
      "  --quality-rel=F  II/speedup allowance (default 0.02)\n"
      "  --time-rel=F     stage-time allowance (default 0.75)\n"
      "  --gate-times     fail on stage-time regressions too\n");
}

bool startsWith(const char *Arg, const char *Prefix) {
  return std::strncmp(Arg, Prefix, std::strlen(Prefix)) == 0;
}

/// Compiles one benchmark with the gate's fixed configuration and turns
/// the registry delta into a sample. Every Count-class metric is
/// deterministic run to run (only wall times vary): each MILP is a
/// serial search, and it is cut on a node budget instead of the default
/// wall-clock budget, so hard searches (Bitonic, DES) stop at the same
/// node on any machine.
PerfSample measureBenchmark(const BenchmarkSpec &Spec, int Jobs) {
  MetricsRegistry::global().reset();

  TraceSpan Span("perf_gate.benchmark", "perf");
  Span.argStr("benchmark", Spec.Name);

  PerfSample S;
  S.Name = Spec.Name;

  StreamPtr Program = Spec.Build();
  StreamGraph G = flatten(*Program);

  CompileOptions Options;
  Options.Strat = Strategy::Swp;
  Options.Coarsening = 8;
  Options.Sched.Pmax = 16;
  Options.Sched.NumWorkers = Jobs;
  // Wall clock must never be the reason a search stops: give it a
  // budget no gate run will hit and cap nodes and simplex iterations
  // instead. 400 nodes is roughly what the default 2 s budget bought
  // on the reference machine; the iteration cap bounds graphs whose
  // single LP relaxation would otherwise run for minutes (Bitonic).
  Options.Sched.TimeBudgetSeconds = 300.0;
  Options.Sched.MaxIlpNodes = 400;
  Options.Sched.MaxLpIterations = 2000;
  std::optional<CompileReport> R = compileForGpu(G, Options);
  if (!R) {
    S.Metrics["compile.failed"] = 1.0;
    return S;
  }

  // Exercise code generation so its counters gate too.
  auto SS = SteadyState::compute(G);
  CudaEmitOptions EmitOpts;
  EmitOpts.Layout = R->Layout;
  EmitOpts.Coarsening = Options.Coarsening;
  emitCudaSource(G, *SS, R->Config, R->GSS, R->Schedule, EmitOpts);

  // Replay the final schedule through the cycle simulator: its event
  // counts (warps issued, transactions, stall cycles) are pure functions
  // of the schedule, so they gate as Count-class metrics and catch
  // simulator regressions the analytic numbers cannot see.
  auto CycleModel =
      createTimingModel(TimingModelKind::Cycle, Options.Arch);
  KernelDesc Desc =
      buildSwpKernelDesc(Options.Arch, G, R->Config, R->Schedule,
                         R->Layout, Options.Coarsening);
  KernelSimResult Sim = CycleModel->simulateKernel(Desc);

  MetricsRegistry::Snapshot Snap = MetricsRegistry::global().snapshot();
  for (const auto &[Name, Val] : Snap.Counters)
    S.Metrics[Name] = static_cast<double>(Val);
  for (const auto &[Name, H] : Snap.Histograms)
    if (classifyMetric(Name) == MetricClass::Time)
      S.Metrics[Name] = H.Sum;

  S.Metrics["final_ii"] = R->SchedStats.FinalII;
  S.Metrics["speedup"] = R->Speedup;
  S.Metrics["cyclesim.kernel_cycles"] = Sim.TotalCycles;
  S.Metrics["buffer_bytes"] = static_cast<double>(R->BufferBytes);
  return S;
}

} // namespace

int main(int argc, char **argv) {
  std::string BaselinePath = "tools/perf_baseline.json";
  std::string OutPath = "perf_report.json";
  std::string TraceOut;
  bool Update = false;
  int Jobs = 4;
  PerfThresholds Thresholds;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (startsWith(Arg, "--baseline=")) {
      BaselinePath = Arg + 11;
    } else if (startsWith(Arg, "--out=")) {
      OutPath = Arg + 6;
    } else if (startsWith(Arg, "--trace-out=")) {
      TraceOut = Arg + 12;
    } else if (std::strcmp(Arg, "--update") == 0) {
      Update = true;
    } else if (startsWith(Arg, "--jobs=")) {
      Jobs = std::atoi(Arg + 7);
      if (Jobs < 1) {
        std::fprintf(stderr, "error: jobs must be >= 1\n");
        return 2;
      }
    } else if (startsWith(Arg, "--count-rel=")) {
      Thresholds.CountRel = std::atof(Arg + 12);
    } else if (startsWith(Arg, "--quality-rel=")) {
      Thresholds.QualityRel = std::atof(Arg + 14);
    } else if (startsWith(Arg, "--time-rel=")) {
      Thresholds.TimeRel = std::atof(Arg + 11);
    } else if (std::strcmp(Arg, "--gate-times") == 0) {
      Thresholds.GateTimes = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage();
      return 2;
    }
  }

  if (TraceOut.empty())
    traceInitFromEnv(&TraceOut);
  if (!TraceOut.empty()) {
    traceSetEnabled(true);
    traceSetThreadName("perf_gate");
  }

  std::vector<PerfSample> Measured;
  for (const BenchmarkSpec &Spec : allBenchmarks()) {
    PerfSample S = measureBenchmark(Spec, Jobs);
    std::printf("%-12s pivots=%-8.0f bnb_nodes=%-6.0f ii=%-8.4g "
                "speedup=%-7.4g stage_s=%.3f\n",
                S.Name.c_str(), S.Metrics["simplex.pivots"],
                S.Metrics["bnb.nodes_solved"], S.Metrics["final_ii"],
                S.Metrics["speedup"],
                S.Metrics["stage.compile.total.seconds"]);
    Measured.push_back(std::move(S));
  }

  auto WriteFile = [](const std::string &Path,
                      const std::string &Body) -> bool {
    std::ofstream Out(Path, std::ios::binary);
    if (!Out)
      return false;
    Out << Body;
    return static_cast<bool>(Out);
  };

  if (!TraceOut.empty() && !traceWriteFile(TraceOut))
    std::fprintf(stderr, "warning: cannot write trace file '%s'\n",
                 TraceOut.c_str());

  if (Update) {
    std::string Doc = perfSamplesToJson(Measured);
    if (!WriteFile(BaselinePath, Doc) || !WriteFile(OutPath, Doc)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   BaselinePath.c_str());
      return 2;
    }
    std::printf("baseline updated: %s\n", BaselinePath.c_str());
    return 0;
  }

  std::ifstream In(BaselinePath, std::ios::binary);
  if (!In) {
    std::fprintf(stderr,
                 "error: cannot open baseline '%s' (run with --update "
                 "to create it)\n",
                 BaselinePath.c_str());
    WriteFile(OutPath, perfSamplesToJson(Measured));
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Err;
  std::optional<std::vector<PerfSample>> Baseline =
      parsePerfSamples(Buf.str(), &Err);
  if (!Baseline) {
    std::fprintf(stderr, "error: malformed baseline '%s': %s\n",
                 BaselinePath.c_str(), Err.c_str());
    WriteFile(OutPath, perfSamplesToJson(Measured));
    return 2;
  }

  PerfComparison Cmp = comparePerf(*Baseline, Measured, Thresholds);
  if (!WriteFile(OutPath, perfSamplesToJson(Measured, &Cmp)))
    std::fprintf(stderr, "warning: cannot write report '%s'\n",
                 OutPath.c_str());

  for (const PerfFinding &F : Cmp.Findings)
    std::fprintf(stderr, "%s %s\n", F.Fails ? "FAIL" : "note",
                 F.str().c_str());
  std::printf("perf gate: %s (%zu finding%s, report: %s)\n",
              Cmp.Pass ? "PASS" : "FAIL", Cmp.Findings.size(),
              Cmp.Findings.size() == 1 ? "" : "s", OutPath.c_str());
  return Cmp.Pass ? 0 : 1;
}
