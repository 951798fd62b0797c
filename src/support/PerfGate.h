//===- support/PerfGate.h - Perf-baseline comparison logic ------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison core of `tools/perf_gate`: per-benchmark metric
/// samples are checked against a checked-in baseline with configurable
/// relative thresholds. Metrics fall into three classes:
///
///   Count    machine-independent work counters (simplex pivots, B&B
///            nodes, II candidates, buffer bytes...) — gated strictly;
///   Quality  schedule quality (final II, modelled speedup) — gated
///            tightest, a change here means the compiler got worse;
///   Time     wall-clock (stage.*.seconds) — reported and
///            compared, but only *gating* when GateTimes is set, because
///            CI machines differ from the machines baselines were
///            recorded on.
///
/// "Worse" respects direction: most metrics regress upward (more pivots,
/// higher II), `speedup` regresses downward. A benchmark missing from
/// the baseline, or a baseline metric that vanished from the measured
/// run, fails the gate outright. Lives in support (not tools) so the
/// threshold logic is unit-testable against the library.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_SUPPORT_PERFGATE_H
#define SGPU_SUPPORT_PERFGATE_H

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sgpu {

/// One benchmark's measured metrics.
struct PerfSample {
  std::string Name;
  std::map<std::string, double> Metrics;
};

/// Relative regression allowances, per metric class.
struct PerfThresholds {
  double CountRel = 0.35;   ///< Counters may grow up to +35%.
  double QualityRel = 0.02; ///< II / speedup may move up to 2%.
  double TimeRel = 0.75;    ///< Stage times may grow up to +75%.
  bool GateTimes = false;   ///< Fail (not just report) time regressions.
};

enum class MetricClass : uint8_t { Count, Quality, Time };

/// Classifies by name: "*.seconds" are Time,
/// "final_ii" / "speedup" are Quality, everything else Count.
MetricClass classifyMetric(std::string_view Name);

/// True for metrics where larger is better (currently only "speedup").
bool metricBiggerIsBetter(std::string_view Name);

/// One comparison outcome worth reporting.
struct PerfFinding {
  enum class Kind : uint8_t {
    Regression,      ///< Outside the class threshold, gates.
    TimeRegression,  ///< Outside TimeRel but GateTimes is off: warning.
    MissingBenchmark,///< Benchmark absent from the baseline: gates.
    MissingMetric,   ///< Baseline metric absent from this run: gates.
    NewMetric        ///< Measured metric absent from baseline: warning.
  };

  Kind K = Kind::Regression;
  std::string Benchmark;
  std::string Metric;
  double Baseline = 0.0;
  double Measured = 0.0;
  double Limit = 0.0; ///< The threshold the value was held to.
  bool Fails = false;

  std::string str() const;
};

/// Full gate verdict.
struct PerfComparison {
  bool Pass = true;
  std::vector<PerfFinding> Findings; ///< Failures first.
};

/// Compares \p Measured against \p Baseline under \p Thresholds.
PerfComparison comparePerf(const std::vector<PerfSample> &Baseline,
                           const std::vector<PerfSample> &Measured,
                           const PerfThresholds &Thresholds = {});

/// Serializes samples (plus an optional comparison) as the
/// perf_report.json / perf_baseline.json document.
std::string perfSamplesToJson(const std::vector<PerfSample> &Samples,
                              const PerfComparison *Comparison = nullptr);

/// Parses a perf_baseline.json / perf_report.json document back into
/// samples; std::nullopt (with \p Err filled) on malformed input.
std::optional<std::vector<PerfSample>>
parsePerfSamples(std::string_view Json, std::string *Err = nullptr);

} // namespace sgpu

#endif // SGPU_SUPPORT_PERFGATE_H
