//===- support/PerfGate.cpp - Perf-baseline comparison logic -----------------===//

#include "support/PerfGate.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace sgpu;

MetricClass sgpu::classifyMetric(std::string_view Name) {
  auto EndsWith = [&](std::string_view Suffix) {
    return Name.size() >= Suffix.size() &&
           Name.substr(Name.size() - Suffix.size()) == Suffix;
  };
  if (EndsWith(".seconds"))
    return MetricClass::Time;
  if (Name == "final_ii" || Name == "speedup")
    return MetricClass::Quality;
  return MetricClass::Count;
}

bool sgpu::metricBiggerIsBetter(std::string_view Name) {
  return Name == "speedup";
}

std::string PerfFinding::str() const {
  char Buf[256];
  switch (K) {
  case Kind::MissingBenchmark:
    return Benchmark + ": missing from baseline (rerun with --update)";
  case Kind::MissingMetric:
    return Benchmark + "/" + Metric + ": in baseline but not measured";
  case Kind::NewMetric:
    return Benchmark + "/" + Metric +
           ": measured but not in baseline (consider --update)";
  case Kind::Regression:
  case Kind::TimeRegression:
    std::snprintf(Buf, sizeof(Buf),
                  "%s/%s: %.6g -> %.6g (limit %.6g, %+.1f%%)%s",
                  Benchmark.c_str(), Metric.c_str(), Baseline, Measured,
                  Limit,
                  Baseline != 0.0 ? (Measured / Baseline - 1.0) * 100.0
                                  : 0.0,
                  K == Kind::TimeRegression ? " [time, not gated]" : "");
    return Buf;
  }
  return "";
}

PerfComparison sgpu::comparePerf(const std::vector<PerfSample> &Baseline,
                                 const std::vector<PerfSample> &Measured,
                                 const PerfThresholds &Thresholds) {
  PerfComparison Out;

  auto BaseFor = [&](const std::string &Name) -> const PerfSample * {
    for (const PerfSample &S : Baseline)
      if (S.Name == Name)
        return &S;
    return nullptr;
  };

  for (const PerfSample &M : Measured) {
    const PerfSample *B = BaseFor(M.Name);
    if (!B) {
      PerfFinding F;
      F.K = PerfFinding::Kind::MissingBenchmark;
      F.Benchmark = M.Name;
      F.Fails = true;
      Out.Findings.push_back(std::move(F));
      continue;
    }

    for (const auto &[Name, BaseVal] : B->Metrics) {
      auto It = M.Metrics.find(Name);
      if (It == M.Metrics.end()) {
        PerfFinding F;
        F.K = PerfFinding::Kind::MissingMetric;
        F.Benchmark = M.Name;
        F.Metric = Name;
        F.Baseline = BaseVal;
        F.Fails = true;
        Out.Findings.push_back(std::move(F));
        continue;
      }
      double Val = It->second;
      MetricClass MC = classifyMetric(Name);
      double Rel = MC == MetricClass::Time      ? Thresholds.TimeRel
                   : MC == MetricClass::Quality ? Thresholds.QualityRel
                                                : Thresholds.CountRel;
      // Direction-aware limit; a zero baseline allows an absolute slack
      // of Rel so tiny noisy values do not divide by zero.
      bool Bigger = metricBiggerIsBetter(Name);
      double Limit = Bigger ? BaseVal * (1.0 - Rel)
                            : (BaseVal == 0.0 ? Rel : BaseVal * (1.0 + Rel));
      bool Worse = Bigger ? Val < Limit : Val > Limit;
      if (!Worse)
        continue;
      PerfFinding F;
      F.K = MC == MetricClass::Time && !Thresholds.GateTimes
                ? PerfFinding::Kind::TimeRegression
                : PerfFinding::Kind::Regression;
      F.Benchmark = M.Name;
      F.Metric = Name;
      F.Baseline = BaseVal;
      F.Measured = Val;
      F.Limit = Limit;
      F.Fails = F.K == PerfFinding::Kind::Regression;
      Out.Findings.push_back(std::move(F));
    }

    for (const auto &[Name, Val] : M.Metrics)
      if (!B->Metrics.count(Name)) {
        PerfFinding F;
        F.K = PerfFinding::Kind::NewMetric;
        F.Benchmark = M.Name;
        F.Metric = Name;
        F.Measured = Val;
        Out.Findings.push_back(std::move(F));
      }
  }

  std::stable_sort(Out.Findings.begin(), Out.Findings.end(),
                   [](const PerfFinding &A, const PerfFinding &B) {
                     return A.Fails > B.Fails;
                   });
  for (const PerfFinding &F : Out.Findings)
    if (F.Fails)
      Out.Pass = false;
  return Out;
}

std::string sgpu::perfSamplesToJson(const std::vector<PerfSample> &Samples,
                                    const PerfComparison *Comparison) {
  JsonWriter W;
  W.beginObject();
  W.writeString("schema", "sgpu-perf-v1");
  W.beginArray("benchmarks");
  for (const PerfSample &S : Samples) {
    W.beginObject();
    W.writeString("name", S.Name);
    W.beginObject("metrics");
    for (const auto &[Name, Val] : S.Metrics)
      W.writeDouble(Name, Val);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  if (Comparison) {
    W.beginObject("comparison");
    W.writeBool("pass", Comparison->Pass);
    W.beginArray("findings");
    for (const PerfFinding &F : Comparison->Findings) {
      W.beginObject();
      W.writeString("benchmark", F.Benchmark);
      W.writeString("metric", F.Metric);
      W.writeDouble("baseline", F.Baseline);
      W.writeDouble("measured", F.Measured);
      W.writeBool("fails", F.Fails);
      W.writeString("detail", F.str());
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();
  return W.str();
}

std::optional<std::vector<PerfSample>>
sgpu::parsePerfSamples(std::string_view Json, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return std::nullopt;
  };
  std::optional<JsonValue> Doc = JsonValue::parse(Json, Err);
  if (!Doc)
    return std::nullopt;
  const JsonValue *Benchmarks = Doc->find("benchmarks");
  if (!Benchmarks || !Benchmarks->isArray())
    return Fail("missing 'benchmarks' array");
  std::vector<PerfSample> Samples;
  for (const JsonValue &B : Benchmarks->elements()) {
    const JsonValue *Name = B.find("name");
    const JsonValue *Metrics = B.find("metrics");
    if (!Name || !Name->isString() || !Metrics || !Metrics->isObject())
      return Fail("benchmark entry needs 'name' and 'metrics'");
    PerfSample S;
    S.Name = Name->asString();
    for (const auto &[Key, V] : Metrics->members()) {
      if (!V.isNumber())
        return Fail("metric '" + Key + "' is not a number");
      S.Metrics[Key] = V.asNumber();
    }
    Samples.push_back(std::move(S));
  }
  return Samples;
}
