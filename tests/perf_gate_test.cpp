//===- tests/perf_gate_test.cpp - JSON reader + perf gate logic tests --------===//

#include "support/PerfGate.h"

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace sgpu;

namespace {

// --- JsonValue reader ------------------------------------------------------

TEST(JsonReader, ScalarsAndNesting) {
  std::string Err;
  std::optional<JsonValue> Doc = JsonValue::parse(
      R"({"a": 1.5, "b": "two\nlines", "c": [true, false, null, -3e2],)"
      R"( "d": {"nested": "x"}})",
      &Err);
  ASSERT_TRUE(Doc) << Err;
  ASSERT_TRUE(Doc->isObject());
  EXPECT_DOUBLE_EQ(Doc->find("a")->asNumber(), 1.5);
  EXPECT_EQ(Doc->find("b")->asString(), "two\nlines");
  const JsonValue *C = Doc->find("c");
  ASSERT_TRUE(C && C->isArray());
  ASSERT_EQ(C->elements().size(), 4u);
  EXPECT_TRUE(C->elements()[0].asBool());
  EXPECT_FALSE(C->elements()[1].asBool());
  EXPECT_EQ(C->elements()[2].kind(), JsonValue::Kind::Null);
  EXPECT_DOUBLE_EQ(C->elements()[3].asNumber(), -300.0);
  EXPECT_EQ(Doc->find("d")->find("nested")->asString(), "x");
  EXPECT_EQ(Doc->find("missing"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "{\"a\":1} trailing", "\"unterminated", "[1,2"}) {
    std::string Err;
    EXPECT_FALSE(JsonValue::parse(Bad, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(JsonReader, DepthLimited) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::parse(Deep));
  std::string Ok(32, '[');
  Ok += std::string(32, ']');
  EXPECT_TRUE(JsonValue::parse(Ok));
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonWriter W;
  W.beginObject();
  W.writeString("s", "quote \" slash \\ nl \n");
  W.writeDouble("d", 0.125);
  W.writeInt("i", -42);
  W.writeBool("t", true);
  W.endObject();
  std::optional<JsonValue> Doc = JsonValue::parse(W.str());
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->find("s")->asString(), "quote \" slash \\ nl \n");
  EXPECT_DOUBLE_EQ(Doc->find("d")->asNumber(), 0.125);
  EXPECT_DOUBLE_EQ(Doc->find("i")->asNumber(), -42.0);
  EXPECT_TRUE(Doc->find("t")->asBool());
}

// --- Metric classification -------------------------------------------------

TEST(PerfGate, MetricClassification) {
  EXPECT_EQ(classifyMetric("simplex.pivots"), MetricClass::Count);
  EXPECT_EQ(classifyMetric("bnb.nodes_solved"), MetricClass::Count);
  EXPECT_EQ(classifyMetric("buffer_bytes"), MetricClass::Count);
  EXPECT_EQ(classifyMetric("stage.compile.total.seconds"),
            MetricClass::Time);
  EXPECT_EQ(classifyMetric("final_ii"), MetricClass::Quality);
  EXPECT_EQ(classifyMetric("speedup"), MetricClass::Quality);
  EXPECT_TRUE(metricBiggerIsBetter("speedup"));
  EXPECT_FALSE(metricBiggerIsBetter("final_ii"));
  EXPECT_FALSE(metricBiggerIsBetter("simplex.pivots"));
}

// --- Gate comparison -------------------------------------------------------

PerfSample sample(const std::string &Name,
                  std::map<std::string, double> Metrics) {
  PerfSample S;
  S.Name = Name;
  S.Metrics = std::move(Metrics);
  return S;
}

TEST(PerfGate, IdenticalRunsPass) {
  std::vector<PerfSample> Base = {
      sample("FMRadio", {{"simplex.pivots", 1000},
                         {"final_ii", 50.0},
                         {"speedup", 10.0},
                         {"stage.core.schedule.seconds", 0.5}})};
  PerfComparison Cmp = comparePerf(Base, Base);
  EXPECT_TRUE(Cmp.Pass);
  EXPECT_TRUE(Cmp.Findings.empty());
}

TEST(PerfGate, CountRegressionGatesAtThreshold) {
  std::vector<PerfSample> Base = {
      sample("DCT", {{"simplex.pivots", 1000}})};
  // +30% is inside the default 35% allowance.
  PerfComparison Ok =
      comparePerf(Base, {sample("DCT", {{"simplex.pivots", 1300}})});
  EXPECT_TRUE(Ok.Pass);
  // +40% is outside.
  PerfComparison Bad =
      comparePerf(Base, {sample("DCT", {{"simplex.pivots", 1400}})});
  EXPECT_FALSE(Bad.Pass);
  ASSERT_EQ(Bad.Findings.size(), 1u);
  EXPECT_EQ(Bad.Findings[0].K, PerfFinding::Kind::Regression);
  EXPECT_TRUE(Bad.Findings[0].Fails);
  EXPECT_EQ(Bad.Findings[0].Metric, "simplex.pivots");
  // Counters shrinking is an improvement, never gated.
  PerfComparison Better =
      comparePerf(Base, {sample("DCT", {{"simplex.pivots", 10}})});
  EXPECT_TRUE(Better.Pass);
}

TEST(PerfGate, QualityIsGatedTightAndDirectionAware) {
  std::vector<PerfSample> Base = {
      sample("FFT", {{"final_ii", 100.0}, {"speedup", 20.0}})};
  // II creeping up 3% fails the 2% quality threshold.
  EXPECT_FALSE(
      comparePerf(Base, {sample("FFT", {{"final_ii", 103.0},
                                        {"speedup", 20.0}})})
          .Pass);
  // Speedup regresses *downward*.
  EXPECT_FALSE(
      comparePerf(Base, {sample("FFT", {{"final_ii", 100.0},
                                        {"speedup", 19.0}})})
          .Pass);
  // Movement inside 2% (or improvement) passes.
  EXPECT_TRUE(
      comparePerf(Base, {sample("FFT", {{"final_ii", 101.0},
                                        {"speedup", 25.0}})})
          .Pass);
}

TEST(PerfGate, TimeRegressionsWarnUnlessGated) {
  std::vector<PerfSample> Base = {
      sample("DES", {{"stage.profile.sweep.seconds", 1.0}})};
  std::vector<PerfSample> Slow = {
      sample("DES", {{"stage.profile.sweep.seconds", 10.0}})};
  PerfComparison Cmp = comparePerf(Base, Slow);
  EXPECT_TRUE(Cmp.Pass); // Reported, not gated.
  ASSERT_EQ(Cmp.Findings.size(), 1u);
  EXPECT_EQ(Cmp.Findings[0].K, PerfFinding::Kind::TimeRegression);
  EXPECT_FALSE(Cmp.Findings[0].Fails);

  PerfThresholds Strict;
  Strict.GateTimes = true;
  PerfComparison Gated = comparePerf(Base, Slow, Strict);
  EXPECT_FALSE(Gated.Pass);
  EXPECT_EQ(Gated.Findings[0].K, PerfFinding::Kind::Regression);
}

TEST(PerfGate, MissingBenchmarkAndMetricFail) {
  std::vector<PerfSample> Base = {
      sample("Bitonic", {{"simplex.pivots", 10}})};
  // Measured benchmark absent from the baseline.
  PerfComparison NoBench =
      comparePerf(Base, {sample("Unknown", {{"simplex.pivots", 10}})});
  EXPECT_FALSE(NoBench.Pass);
  EXPECT_EQ(NoBench.Findings[0].K, PerfFinding::Kind::MissingBenchmark);
  // Baseline metric that vanished from the run.
  PerfComparison NoMetric = comparePerf(Base, {sample("Bitonic", {})});
  EXPECT_FALSE(NoMetric.Pass);
  EXPECT_EQ(NoMetric.Findings[0].K, PerfFinding::Kind::MissingMetric);
  // A new measured metric only warns.
  PerfComparison Extra = comparePerf(
      Base, {sample("Bitonic", {{"simplex.pivots", 10}, {"new.thing", 1}})});
  EXPECT_TRUE(Extra.Pass);
  ASSERT_EQ(Extra.Findings.size(), 1u);
  EXPECT_EQ(Extra.Findings[0].K, PerfFinding::Kind::NewMetric);
}

TEST(PerfGate, FailuresSortFirst) {
  std::vector<PerfSample> Base = {sample("A", {{"simplex.pivots", 100}})};
  std::vector<PerfSample> Run = {
      sample("A", {{"simplex.pivots", 200}, {"new.counter", 5}})};
  PerfComparison Cmp = comparePerf(Base, Run);
  ASSERT_EQ(Cmp.Findings.size(), 2u);
  EXPECT_TRUE(Cmp.Findings[0].Fails);
  EXPECT_FALSE(Cmp.Findings[1].Fails);
}

TEST(PerfGate, ZeroBaselineUsesAbsoluteSlack) {
  std::vector<PerfSample> Base = {sample("B", {{"sdf.rate_inconsistent", 0}})};
  // Within the absolute slack of CountRel.
  EXPECT_TRUE(
      comparePerf(Base, {sample("B", {{"sdf.rate_inconsistent", 0}})}).Pass);
  EXPECT_FALSE(
      comparePerf(Base, {sample("B", {{"sdf.rate_inconsistent", 3}})}).Pass);
}

// --- Report serialization round trip ---------------------------------------

TEST(PerfGate, SamplesRoundTripThroughJson) {
  std::vector<PerfSample> Samples = {
      sample("FMRadio", {{"simplex.pivots", 1234},
                         {"final_ii", 56.5},
                         {"stage.core.schedule.seconds", 0.25}}),
      sample("DCT", {{"bnb.nodes_solved", 7}})};
  std::string Doc = perfSamplesToJson(Samples);
  std::string Err;
  std::optional<std::vector<PerfSample>> Back =
      parsePerfSamples(Doc, &Err);
  ASSERT_TRUE(Back) << Err;
  ASSERT_EQ(Back->size(), 2u);
  EXPECT_EQ((*Back)[0].Name, "FMRadio");
  EXPECT_DOUBLE_EQ((*Back)[0].Metrics.at("final_ii"), 56.5);
  EXPECT_DOUBLE_EQ((*Back)[1].Metrics.at("bnb.nodes_solved"), 7.0);

  // With a comparison attached, the document still parses and the
  // verdict is readable.
  PerfComparison Cmp = comparePerf(Samples, Samples);
  std::string WithCmp = perfSamplesToJson(Samples, &Cmp);
  std::optional<JsonValue> Parsed = JsonValue::parse(WithCmp);
  ASSERT_TRUE(Parsed);
  EXPECT_TRUE(Parsed->find("comparison")->find("pass")->asBool());
  EXPECT_EQ(Parsed->find("schema")->asString(), "sgpu-perf-v1");
}

TEST(PerfGate, ParseRejectsBadDocuments) {
  std::string Err;
  EXPECT_FALSE(parsePerfSamples("{}", &Err));
  EXPECT_FALSE(parsePerfSamples("{\"benchmarks\": [{}]}", &Err));
  EXPECT_FALSE(parsePerfSamples(
      "{\"benchmarks\": [{\"name\":\"A\",\"metrics\":{\"m\":\"x\"}}]}",
      &Err));
  EXPECT_FALSE(parsePerfSamples("not json", &Err));
}

} // namespace
