//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads of the repository benchmark share: the run
/// arguments, sample statistics (median plus the highest percentile with
/// at least ten samples beyond it), the benchmark's own span recorder
/// (spans wrap calls into the layers' public functions from outside;
/// nothing inside src/ is instrumented for the benchmark), registry
/// counter deltas, and the result document every run writes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Metrics.h"

#include <chrono>
#include <sched.h>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 40;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Command-line arguments shared by every workload.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;       ///< Draw seed: order, constants, check inputs.
  uint64_t CorpusSeed = 1; ///< GraphGen corpus seed (served).
  int Seconds = 10;        ///< Run length; scales the amount of work.
  bool Trace = false;      ///< Traced per-layer run instead of end to end.
  std::string WorkDir;     ///< Scratch space inside the checkout.
  std::string OutPath;     ///< Result document path.
};

/// Summary of a latency sample: the median plus the tail percentile.
struct LatencySummary {
  double Median = 0.0;
  double Tail = 0.0;
  double TailPercentile = 50.0;
  int64_t Samples = 0;
};

/// Median and the highest of {99.9, 99, 95, 90, 75} with at least ten
/// samples beyond it; with fewer than forty samples none qualifies and
/// the tail is the median (p50).
LatencySummary summarize(std::vector<double> V);

double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// A run repeats each timed step (passes, request rounds) and reports the
/// fastest repeat: on a shared host noise only ever adds time, and the
/// host's speed drifts over seconds, so the least-disturbed repeat of a
/// run is what repeats from run to run. 0 for an empty sample.
double minimum(const std::vector<double> &V);
/// The same for rates (requests per second).
double maximum(const std::vector<double> &V);

/// Pins the calling thread to the K-th CPU it may run on (round robin)
/// until destroyed. The CPUs of a shared host run at different speeds
/// (a busy sibling thread costs up to half), so single-threaded
/// measurements are spread over all of them. Threads created under the
/// pin inherit it: only single-threaded work may run pinned.
class CpuPin {
public:
  explicit CpuPin(int K);
  ~CpuPin();
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

/// One reported metric with the bookkeeping the result document keeps.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  int64_t Samples = 1;
  double Percentile = -1.0; ///< For tail metrics; -1 otherwise.
};

/// One span recorded by the benchmark around a call into a layer.
struct SpanRecord {
  std::string Name;
  std::string Item; ///< The program (request) the span belongs to.
  int Parent = -1;  ///< Index of the enclosing span, -1 for roots.
  double StartUs = 0.0;
  double DurUs = 0.0;
};

/// In-memory span log, written out with the result document.
class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// Opens a span and returns its index; close it with end().
  int begin(const std::string &Name, const std::string &Item);
  /// Closes span \p Id.
  void end(int Id);

  const std::vector<SpanRecord> &spans() const { return Spans; }
  /// Sum of the durations (seconds) of the spans named \p Name, counting
  /// only spans with index >= \p From (so one pass can be summed alone).
  double totalSeconds(const std::string &Name, size_t From = 0) const;
  /// Durations (seconds) of the spans named \p Name from index \p From.
  std::vector<double> durations(const std::string &Name,
                                size_t From = 0) const;

private:
  Clock::time_point Epoch;
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;
};

/// RAII helper around SpanLog::begin/end.
class Span {
public:
  Span(SpanLog &Log, const std::string &Name, const std::string &Item)
      : Log(Log), Id(Log.begin(Name, Item)) {}
  ~Span() { Log.end(Id); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog &Log;
  int Id;
};

/// Registry counter deltas between two snapshots.
int64_t counterDelta(const sgpu::MetricsRegistry::Snapshot &Before,
                     const sgpu::MetricsRegistry::Snapshot &After,
                     const std::string &Name);

/// Per-program row of the compile workloads (one per program per pass).
struct ProgramRow {
  std::string Program;
  int Pass = 0;
  double CompileMs = 0.0;
  double FinalII = 0.0;
  double Speedup = 0.0;
  double KernelCycles = 0.0;
  std::string Schema;
  bool UsedIlp = false;
  double SolverSeconds = 0.0;
  int64_t BudgetCuts = 0;
  std::string Check; ///< "ok" or the first check failure.
};

/// Everything a workload hands back to main() for the result document.
struct RunResult {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Failures;      ///< First few failure messages.
  std::vector<std::string> Determinism;   ///< Determinism-probe diffs.
  std::vector<Metric> Metrics;
  std::vector<ProgramRow> Rows;
  std::map<std::string, double> Facts;    ///< Extra named numbers.
  /// Raw latency samples (ms) behind the latency metrics.
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, std::string> Notes;
  SpanLog Spans;

  void fail(const std::string &Msg);
  void add(const std::string &Name, const std::string &Unit, double Value,
           int64_t Samples = 1);
  /// Adds `<Prefix>_p50_ms` and `<Prefix>_tail_ms` for a run split into
  /// rounds, and keeps the samples for the result document: each round is
  /// summarized on its own, and the metrics are the minima over rounds of
  /// the rounds' medians and tails.
  void addRoundLatency(const std::string &Prefix,
                       const std::vector<std::vector<double>> &Rounds);
  /// The same for a run that times each item (program) once per pass:
  /// \p Passes[P][I] is item I's latency in pass P. Each item is reduced
  /// to its fastest pass, and the metrics summarize those.
  void addItemLatency(const std::string &Prefix,
                      const std::vector<std::vector<double>> &Passes);
};

/// Each item's minimum over passes (\p Passes[P][I] as above).
std::vector<double> itemMinima(const std::vector<std::vector<double>> &Passes);

/// Flushes the dirty data of the file system holding \p Dir, so that the
/// write-back of earlier file writes (an earlier run's cache entries)
/// does not land inside a timed region.
void syncFileSystem(const std::string &Dir);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

/// A name part no other run shares (process id and start time), for
/// the cache directories runs leave under the work directory.
std::string runTag();

int runCompileWorkload(const RunArgs &Args, RunResult &Out);
int runServedWorkload(const RunArgs &Args, RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
