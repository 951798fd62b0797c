//===- tests/service_test.cpp - Scheduling-as-a-service tests ---------------===//
//
// Covers the sgpu-served stack bottom-up: the SHA-256 primitive, the
// content-addressed cache key (whitespace / rename / option-spelling
// invariance — the canonicalization regression suite), the two-tier
// ScheduleCache (LRU eviction, disk persistence, corrupt-entry
// recovery), the wire protocol, and the Service policies (coalescing of
// concurrent identical requests, admission-control shedding) without a
// socket in the loop.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "benchmarks/Registry.h"
#include "parser/Parser.h"
#include "service/GraphHash.h"
#include "service/Protocol.h"
#include "service/ScheduleCache.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

using namespace sgpu;
using namespace sgpu::service;

namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  fs::path P = fs::path(::testing::TempDir()) / ("sgpu_service_" + Name);
  fs::remove_all(P);
  fs::create_directories(P);
  return P.string();
}

StreamGraph graphFromSource(const std::string &Src) {
  ParseDiagnostic Diag;
  StreamPtr S = parseStreamProgram(Src, &Diag);
  EXPECT_NE(S, nullptr) << Diag.str();
  StreamGraph G = flatten(*S);
  EXPECT_FALSE(G.validate().has_value());
  return G;
}

/// A small two-filter pipeline; the \p Scale parameter perturbs a body
/// constant so tests can mint distinct programs cheaply.
std::string tinyProgram(int Scale = 2) {
  return "pipeline P {\n"
         "  filter A(int -> int, pop 1, push 1) { push(pop() * " +
         std::to_string(Scale) +
         "); }\n"
         "  filter B(int -> int, pop 1, push 1) { push(pop() + 1); }\n"
         "}\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// Sha256
//===----------------------------------------------------------------------===//

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(
      sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a': exercises many compression rounds and the buffered
  // update path.
  EXPECT_EQ(
      sha256Hex(std::string(1000000, 'a')),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string Msg =
      "the quick brown fox jumps over the lazy dog, repeatedly, until the "
      "message spans several compression blocks of the hash function";
  Sha256 H;
  for (size_t I = 0; I < Msg.size(); I += 7)
    H.update(std::string_view(Msg).substr(I, 7));
  EXPECT_EQ(H.digestHex(), sha256Hex(Msg));
}

//===----------------------------------------------------------------------===//
// GraphHash: canonicalization invariants
//===----------------------------------------------------------------------===//

TEST(GraphHash, WhitespaceAndCommentsDoNotChangeTheKey) {
  StreamGraph A = graphFromSource(tinyProgram());
  StreamGraph B = graphFromSource(
      "  pipeline   P {  // a comment\n"
      "filter A(int->int, pop 1, push 1)\n"
      "{\n  push( pop( ) * 2 ) ;\n}\n"
      "  /* another comment */\n"
      "filter B(int->int,pop 1,push 1){ push(pop()+1); } }\n");
  CompileOptions Opts;
  EXPECT_EQ(graphHash(A, Opts), graphHash(B, Opts));
}

TEST(GraphHash, FilterRenamesDoNotChangeTheKey) {
  StreamGraph A = graphFromSource(tinyProgram());
  StreamGraph B = graphFromSource(
      "pipeline Completely {\n"
      "  filter Different(int -> int, pop 1, push 1) { push(pop() * 2); }\n"
      "  filter Names(int -> int, pop 1, push 1) { push(pop() + 1); }\n"
      "}\n");
  CompileOptions Opts;
  EXPECT_EQ(graphHash(A, Opts), graphHash(B, Opts));
}

TEST(GraphHash, RatesAndBodiesChangeTheKey) {
  CompileOptions Opts;
  StreamGraph Base = graphFromSource(tinyProgram());
  const std::string BaseKey = graphHash(Base, Opts);

  // A different body constant is a different program...
  StreamGraph OtherBody = graphFromSource(tinyProgram(/*Scale=*/3));
  EXPECT_NE(graphHash(OtherBody, Opts), BaseKey);

  // ... and so is a different rate signature.
  StreamGraph OtherRates = graphFromSource(
      "pipeline P {\n"
      "  filter A(int -> int, pop 2, push 2) "
      "{ push(pop() * 2); push(pop() * 2); }\n"
      "  filter B(int -> int, pop 1, push 1) { push(pop() + 1); }\n"
      "}\n");
  EXPECT_NE(graphHash(OtherRates, Opts), BaseKey);
}

TEST(GraphHash, ExecutionKnobsAreExcludedSemanticOptionsIncluded) {
  StreamGraph G = graphFromSource(tinyProgram());

  CompileOptions A, B;
  A.Sched.NumWorkers = 1;
  A.Sched.IIWindow = 1;
  B.Sched.NumWorkers = 8;
  B.Sched.IIWindow = 4;
  EXPECT_EQ(graphHash(G, A), graphHash(G, B))
      << "worker count is determinism-invariant and must not split the key";

  CompileOptions C;
  C.Coarsening = 4;
  EXPECT_NE(graphHash(G, A), graphHash(G, C));

  CompileOptions D;
  D.Strat = Strategy::Serial;
  EXPECT_NE(graphHash(G, A), graphHash(G, D));

  CompileOptions E;
  E.Arch.NumSMs = 4;
  EXPECT_NE(graphHash(G, A), graphHash(G, E))
      << "the machine model is part of the key";
}

// Canonical form v3 added the `schema=` line. The schema mode must split
// the key space, and every v2-era envelope (same payload, no schema
// line, "v2" header) must miss cleanly against a v3-populated cache —
// a stale warp-less entry aliasing a warp compile would hand back the
// wrong schedule report.
TEST(GraphHash, SchemaModeSplitsTheKeyAndV2EnvelopesInvalidate) {
  StreamGraph G = graphFromSource(tinyProgram());

  CompileOptions Global;
  CompileOptions Warp;
  Warp.Schema = SchemaMode::Warp;
  CompileOptions Auto;
  Auto.Schema = SchemaMode::Auto;
  EXPECT_NE(graphHash(G, Global), graphHash(G, Warp));
  EXPECT_NE(graphHash(G, Global), graphHash(G, Auto));
  EXPECT_NE(graphHash(G, Warp), graphHash(G, Auto));

  // The canonical options carry the new line for every mode (including
  // the default — an absent line would make global hash like v2).
  EXPECT_NE(canonicalizeOptions(Global).find("schema=global\n"),
            std::string::npos);
  EXPECT_NE(canonicalizeOptions(Warp).find("schema=warp\n"),
            std::string::npos);

  // Reconstruct the v2 envelope of the same request: the v2 canonical
  // payload is today's minus the schema line, hashed under the old
  // version header.
  std::string V2Options = canonicalizeOptions(Global);
  const size_t Line = V2Options.find("schema=global\n");
  ASSERT_NE(Line, std::string::npos);
  V2Options.erase(Line, std::string("schema=global\n").size());
  Sha256 V2;
  V2.update("sgpu-canon v2\n");
  V2.update(canonicalizeGraph(G));
  V2.update(V2Options);
  const std::string V2Key = V2.digestHex();
  const std::string V3Key = graphHash(G, Global);
  EXPECT_NE(V2Key, V3Key);

  // End to end: a cache freshly populated under v3 keys must miss for
  // the v2 key — the old entry is unreachable, never silently reused.
  ScheduleCache C({/*MaxBytes=*/1 << 20, /*Dir=*/""});
  C.insert(V3Key, "v3-schedule-report");
  EXPECT_TRUE(C.lookup(V3Key).has_value());
  EXPECT_FALSE(C.lookup(V2Key).has_value())
      << "a v2-era envelope aliased a v3 entry";
}

// A hybrid machine bounds each SM's coarsening by its share of device
// memory, so DramBytes changes the answer (DCT deploys SWP8 at 512 MiB
// and SWP1 at 1 MiB). Machines that differ only there must not share a
// cache entry.
TEST(GraphHash, DramBytesSplitsTheKeyOfAHybridCompile) {
  const bench::BenchmarkSpec *Dct = bench::findBenchmark("DCT");
  ASSERT_NE(Dct, nullptr);
  StreamPtr Program = Dct->Build();
  StreamGraph G = flatten(*Program);

  CompileOptions Big;
  Big.Machine = MachineMode::Hybrid;
  Big.Arch.DramBytes = 512ll << 20;
  CompileOptions Small = Big;
  Small.Arch.DramBytes = 1ll << 20;
  EXPECT_NE(graphHash(G, Big), graphHash(G, Small));
}

TEST(GraphHash, OptionSpellingsCanonicalizeThroughTheCliParser) {
  // The CLI and the protocol share parseStrategyName, so case variants
  // resolve to the same Strategy before any canonicalization happens.
  EXPECT_EQ(parseStrategyName("SWP"), parseStrategyName("swp"));
  EXPECT_EQ(parseStrategyName("Serial"), Strategy::Serial);
  // "sas" is the paper's name for the serial assignment baseline.
  EXPECT_EQ(parseStrategyName("sas"), Strategy::Serial);
  EXPECT_FALSE(parseStrategyName("swizzle").has_value());

  std::string Err;
  std::optional<CompileRequest> R1 = parseCompileRequest(
      R"({"source":"x","options":{"strategy":"SWP"}})", &Err);
  std::optional<CompileRequest> R2 = parseCompileRequest(
      R"({"source":"x","options":{"strategy":"swp"}})", &Err);
  ASSERT_TRUE(R1 && R2);
  EXPECT_EQ(canonicalizeOptions(R1->Options), canonicalizeOptions(R2->Options));
}

//===----------------------------------------------------------------------===//
// ScheduleCache
//===----------------------------------------------------------------------===//

TEST(ScheduleCache, MemoryHitAndMiss) {
  ScheduleCache C({/*MaxBytes=*/1 << 20, /*Dir=*/""});
  EXPECT_FALSE(C.lookup("k1").has_value());
  C.insert("k1", "v1");
  ASSERT_TRUE(C.lookup("k1").has_value());
  EXPECT_EQ(*C.lookup("k1"), "v1");
  EXPECT_EQ(C.stats().MemHits, 2);
  EXPECT_EQ(C.stats().Misses, 1);
  EXPECT_EQ(C.entryCount(), 1);
}

TEST(ScheduleCache, ByteBudgetEvictsLeastRecentlyUsed) {
  ScheduleCache C({/*MaxBytes=*/100, /*Dir=*/""});
  C.insert("a", std::string(60, 'A'));
  C.insert("b", std::string(60, 'B'));
  // 120 bytes > 100: "a" (LRU) must have been evicted.
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_TRUE(C.lookup("b").has_value());
  EXPECT_EQ(C.stats().Evictions, 1);
  EXPECT_LE(C.sizeBytes(), 100);

  // Touching an entry protects it: refresh "b", insert "c", then "b"
  // must survive over... (with two 60-byte values only one fits, and it
  // is the most recent).
  C.insert("c", std::string(60, 'C'));
  EXPECT_FALSE(C.lookup("b").has_value());
  EXPECT_TRUE(C.lookup("c").has_value());
}

TEST(ScheduleCache, OversizedValueIsStillCached) {
  ScheduleCache C({/*MaxBytes=*/10, /*Dir=*/""});
  C.insert("big", std::string(1000, 'x'));
  EXPECT_TRUE(C.lookup("big").has_value())
      << "the budget is a high-water mark, not a hard refusal";
  EXPECT_EQ(C.entryCount(), 1);
}

TEST(ScheduleCache, DiskPersistenceSurvivesRestartAndDropMemory) {
  const std::string Dir = freshDir("persist");
  const std::string Key(64, 'a');
  {
    ScheduleCache C({/*MaxBytes=*/1 << 20, Dir});
    C.insert(Key, "{\"ii\":42}");

    // Same instance, memory dropped: the disk tier serves it back.
    C.dropMemory();
    ASSERT_TRUE(C.lookup(Key).has_value());
    EXPECT_EQ(*C.lookup(Key), "{\"ii\":42}");
    EXPECT_EQ(C.stats().DiskHits, 1);
    EXPECT_EQ(C.stats().MemHits, 1); // The re-lookup after promotion.
  }
  // A fresh cache over the same directory (daemon restart).
  ScheduleCache C2({/*MaxBytes=*/1 << 20, Dir});
  ASSERT_TRUE(C2.lookup(Key).has_value());
  EXPECT_EQ(*C2.lookup(Key), "{\"ii\":42}");
  EXPECT_EQ(C2.stats().DiskHits, 1);
}

TEST(ScheduleCache, CorruptEntriesAreDeletedAndMissed) {
  const std::string Dir = freshDir("corrupt");
  ScheduleCache C({/*MaxBytes=*/1 << 20, Dir});
  const std::string Key(64, 'b');
  C.insert(Key, "payload");
  C.dropMemory();

  // Truncate/garble the on-disk entry.
  const std::string Path = C.entryPath(Key);
  ASSERT_TRUE(fs::exists(Path));
  std::ofstream(Path, std::ios::trunc) << "{not json";

  EXPECT_FALSE(C.lookup(Key).has_value());
  EXPECT_EQ(C.stats().Corrupt, 1);
  EXPECT_FALSE(fs::exists(Path)) << "corrupt entries are deleted";

  // A re-insert repairs the entry.
  C.insert(Key, "payload2");
  C.dropMemory();
  ASSERT_TRUE(C.lookup(Key).has_value());
  EXPECT_EQ(*C.lookup(Key), "payload2");
}

TEST(ScheduleCache, SchemaVersionAndKeyMismatchInvalidate) {
  const std::string Dir = freshDir("schema");
  ScheduleCache C({/*MaxBytes=*/1 << 20, Dir});
  const std::string Key(64, 'c');

  // Hand-write an envelope with a future schema version.
  {
    JsonWriter W;
    W.beginObject();
    W.writeInt("schema", kCacheSchemaVersion + 1);
    W.writeString("key", Key);
    W.writeString("report_text", "{}");
    W.endObject();
    fs::create_directories(Dir);
    std::ofstream(C.entryPath(Key), std::ios::trunc) << W.str();
  }
  EXPECT_FALSE(C.lookup(Key).has_value());
  EXPECT_EQ(C.stats().Corrupt, 1);

  // An entry whose embedded key disagrees with its filename (renamed or
  // swapped file) is equally invalid.
  {
    JsonWriter W;
    W.beginObject();
    W.writeInt("schema", kCacheSchemaVersion);
    W.writeString("key", std::string(64, 'd'));
    W.writeString("report_text", "{}");
    W.endObject();
    std::ofstream(C.entryPath(Key), std::ios::trunc) << W.str();
  }
  EXPECT_FALSE(C.lookup(Key).has_value());
  EXPECT_EQ(C.stats().Corrupt, 2);
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RejectsMalformedRequests) {
  std::string Err;
  EXPECT_FALSE(parseCompileRequest("not json", &Err).has_value());
  EXPECT_FALSE(parseCompileRequest("[1,2]", &Err).has_value());
  // Exactly one of benchmark/source.
  EXPECT_FALSE(parseCompileRequest("{}", &Err).has_value());
  EXPECT_FALSE(parseCompileRequest(
                   R"({"benchmark":"DES","source":"x"})", &Err)
                   .has_value());
  // Unknown option keys are errors, not silent defaults.
  EXPECT_FALSE(parseCompileRequest(
                   R"({"source":"x","options":{"coarsning":8}})", &Err)
                   .has_value());
  EXPECT_NE(Err.find("coarsning"), std::string::npos);
  // Unknown enum values too.
  EXPECT_FALSE(parseCompileRequest(
                   R"({"source":"x","options":{"strategy":"warp"}})", &Err)
                   .has_value());
}

TEST(Protocol, ParsesOptionsAndFlags) {
  std::string Err;
  std::optional<CompileRequest> R = parseCompileRequest(
      R"({"id":"q7","benchmark":"DES","no_cache":true,)"
      R"("options":{"coarsening":4,"sms":2,"timing_model":"cycle",)"
      R"("schema":"auto"}})",
      &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->Id, "q7");
  EXPECT_EQ(R->Benchmark, "DES");
  EXPECT_TRUE(R->NoCache);
  EXPECT_EQ(R->Options.Coarsening, 4);
  EXPECT_EQ(R->Options.Sched.Pmax, 2);
  EXPECT_EQ(R->Options.Timing, TimingModelKind::Cycle);
  EXPECT_EQ(R->Options.Schema, SchemaMode::Auto);

  // Unknown schema spellings are rejected like every other enum.
  EXPECT_FALSE(parseCompileRequest(
                   R"({"source":"x","options":{"schema":"queues"}})", &Err)
                   .has_value());
  EXPECT_NE(Err.find("queues"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Service: end-to-end over handleLine (no socket)
//===----------------------------------------------------------------------===//

namespace {

/// Parses a response frame and returns its "status".
std::string responseStatus(const std::string &Frame) {
  std::optional<JsonValue> Doc = JsonValue::parse(Frame);
  if (!Doc || !Doc->isObject())
    return "<unparseable>";
  const JsonValue *S = Doc->find("status");
  return S && S->isString() ? S->asString() : "<missing>";
}

std::string requestFor(const std::string &Source) {
  return R"({"source":")" + JsonWriter::escape(Source) + R"("})";
}

} // namespace

TEST(Service, CacheHitRoundTripAndEquivalentSourcesHit) {
  ServiceOptions O;
  O.Cache.Dir = freshDir("svc_roundtrip");
  O.Workers = 1;
  Service Svc(O);

  std::string R1 = Svc.handleLine(requestFor(tinyProgram()));
  std::optional<JsonValue> D1 = JsonValue::parse(R1);
  ASSERT_TRUE(D1) << R1;
  EXPECT_EQ(responseStatus(R1), "ok");
  EXPECT_EQ(D1->find("cache")->asString(), "miss");
  const std::string Key = D1->find("key")->asString();
  ASSERT_TRUE(D1->find("report")->isObject());

  // The identical request hits.
  std::string R2 = Svc.handleLine(requestFor(tinyProgram()));
  std::optional<JsonValue> D2 = JsonValue::parse(R2);
  EXPECT_EQ(D2->find("cache")->asString(), "hit");
  EXPECT_EQ(D2->find("key")->asString(), Key);

  // A reformatted, renamed — but semantically identical — program hits
  // the same entry (the canonicalization regression, end to end).
  std::string R3 = Svc.handleLine(requestFor(
      "pipeline Renamed {\n"
      "  filter First (int->int, pop 1, push 1) { push( pop() * 2 ); }\n"
      "  filter Second(int->int, pop 1, push 1) { push( pop() + 1 ); }\n"
      "}\n"));
  std::optional<JsonValue> D3 = JsonValue::parse(R3);
  EXPECT_EQ(D3->find("cache")->asString(), "hit");
  EXPECT_EQ(D3->find("key")->asString(), Key);

  // no_cache bypasses lookup but still answers.
  std::string R4 = Svc.handleLine(
      R"({"no_cache":true,"source":")" + JsonWriter::escape(tinyProgram()) +
      R"("})");
  std::optional<JsonValue> D4 = JsonValue::parse(R4);
  EXPECT_EQ(responseStatus(R4), "ok");
  EXPECT_EQ(D4->find("cache")->asString(), "miss");
}

TEST(Service, ErrorResponses) {
  ServiceOptions O;
  O.Workers = 1;
  Service Svc(O);

  EXPECT_EQ(responseStatus(Svc.handleLine("garbage")), "error");
  EXPECT_EQ(responseStatus(Svc.handleLine(R"({"benchmark":"NoSuch"})")),
            "error");
  EXPECT_EQ(responseStatus(
                Svc.handleLine(R"({"source":"filter F(int"})")),
            "error");
}

TEST(Service, CorruptDiskEntryIsResolvedByResolving) {
  ServiceOptions O;
  O.Cache.Dir = freshDir("svc_corrupt");
  O.Workers = 1;
  Service Svc(O);

  std::string R1 = Svc.handleLine(requestFor(tinyProgram()));
  ASSERT_EQ(responseStatus(R1), "ok");
  const std::string Key = JsonValue::parse(R1)->find("key")->asString();

  // Garble the persisted entry and drop the memory tier: the next
  // request must fall through to a fresh solve, not fail.
  std::ofstream(Svc.cache().entryPath(Key), std::ios::trunc) << "XXX";
  Svc.cache().dropMemory();

  std::string R2 = Svc.handleLine(requestFor(tinyProgram()));
  std::optional<JsonValue> D2 = JsonValue::parse(R2);
  EXPECT_EQ(responseStatus(R2), "ok");
  EXPECT_EQ(D2->find("cache")->asString(), "miss");

  // And the entry is repaired on disk: a third request hits again.
  Svc.cache().dropMemory();
  std::string R3 = Svc.handleLine(requestFor(tinyProgram()));
  EXPECT_EQ(JsonValue::parse(R3)->find("cache")->asString(), "hit");
}

TEST(Service, CoalescingAndAdmissionControl) {
  // One compile worker, two admission slots. A slow blocker (Bitonic
  // with a bounded solver budget) occupies the worker; a second unique
  // request becomes a queued leader; an identical third coalesces onto
  // it; a fourth unique request finds both slots taken and is shed.
  ServiceOptions O;
  O.Workers = 1;
  O.MaxQueue = 2;
  O.RetryAfterMs = 123;
  Service Svc(O);

  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();

  std::string BlockerResp;
  std::thread Blocker([&] {
    BlockerResp = Svc.handleLine(
        R"({"benchmark":"Bitonic","options":{"time_budget_s":2}})");
  });
  while (Svc.pendingSolves() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Leader for the tiny program: queued behind the blocker.
  std::string LeaderResp;
  std::thread Leader(
      [&] { LeaderResp = Svc.handleLine(requestFor(tinyProgram())); });
  while (Svc.pendingSolves() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Identical request: coalesces onto the leader's in-flight solve
  // (its key is in the in-flight map until the solve finishes, which
  // cannot happen while the blocker owns the only worker).
  std::string FollowerResp;
  std::thread Follower(
      [&] { FollowerResp = Svc.handleLine(requestFor(tinyProgram())); });

  // A unique request while both admission slots are taken: shed.
  std::string ShedResp = Svc.handleLine(requestFor(tinyProgram(/*Scale=*/5)));
  std::optional<JsonValue> ShedDoc = JsonValue::parse(ShedResp);
  EXPECT_EQ(responseStatus(ShedResp), "busy");
  EXPECT_EQ(static_cast<int>(ShedDoc->find("retry_after_ms")->asNumber()),
            123);

  Blocker.join();
  Leader.join();
  Follower.join();

  EXPECT_EQ(responseStatus(BlockerResp), "ok");
  EXPECT_EQ(responseStatus(LeaderResp), "ok");
  EXPECT_EQ(responseStatus(FollowerResp), "ok");
  std::optional<JsonValue> FollowerDoc = JsonValue::parse(FollowerResp);
  const JsonValue *Coalesced = FollowerDoc->find("coalesced");
  ASSERT_NE(Coalesced, nullptr);
  EXPECT_TRUE(Coalesced->asBool());

  // Follower and leader return byte-identical reports: one solve served
  // both.
  std::optional<JsonValue> LeaderDoc = JsonValue::parse(LeaderResp);
  EXPECT_EQ(LeaderDoc->find("key")->asString(),
            FollowerDoc->find("key")->asString());

  MetricsRegistry::Snapshot After = MetricsRegistry::global().snapshot();
  auto Delta = [&](const char *Name) {
    return After.Counters[Name] - Before.Counters[Name];
  };
  EXPECT_EQ(Delta("service.solves"), 2) << "blocker + one coalesced solve";
  EXPECT_EQ(Delta("service.coalesced"), 1);
  EXPECT_EQ(Delta("service.shed"), 1);
  EXPECT_EQ(Delta("service.requests"), 4);
}
