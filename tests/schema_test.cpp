//===- tests/schema_test.cpp - Kernel schema subsystem tests ----------------===//
//
// Covers the codegen/schema/ subsystem end to end: option spellings, the
// budgeted per-edge queue selection, the cost-model rebate (queue edges
// cost zero device transactions), the Auto compile-both-keep-faster
// policy, functional equivalence of the warp-specialized execution with
// queue-semantics validation on, and the diagnostics a corrupted
// assignment must produce instead of crashing.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Registry.h"
#include "codegen/CudaEmitter.h"
#include "codegen/schema/SchemaSelect.h"
#include "core/Compiler.h"
#include "core/ReportWriter.h"
#include "gpusim/FunctionalSim.h"
#include "gpusim/cyclesim/Coalescer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

/// Pmax=1 pins every instance to SM 0, making every channel edge
/// structurally same-SM — the selection then exercises the budget and
/// eligibility rules rather than the placement accident of a wide run.
CompileOptions schemaOptions(SchemaMode M, int Pmax = 1) {
  CompileOptions O;
  O.Schema = M;
  O.Sched.Pmax = Pmax;
  O.Sched.TimeBudgetSeconds = 0.5;
  return O;
}

StreamGraph benchmarkGraph(const std::string &Name) {
  const bench::BenchmarkSpec *Spec = bench::findBenchmark(Name);
  EXPECT_NE(Spec, nullptr) << Name << " missing from the registry";
  StreamPtr S = Spec->Build();
  return flatten(*S);
}

std::vector<Scalar> intInput(int64_t N, uint64_t Seed = 1) {
  Rng R(Seed);
  std::vector<Scalar> V;
  for (int64_t I = 0; I < N; ++I)
    V.push_back(Scalar::makeInt(R.nextInt(100)));
  return V;
}

std::vector<Scalar> floatInput(int64_t N, uint64_t Seed = 2) {
  Rng R(Seed);
  std::vector<Scalar> V;
  for (int64_t I = 0; I < N; ++I)
    V.push_back(Scalar::makeFloat(R.nextFloat(2.0f)));
  return V;
}

} // namespace

TEST(Schema, OptionSpellingsRoundTrip) {
  for (SchemaMode M : {SchemaMode::Global, SchemaMode::Warp, SchemaMode::Auto}) {
    auto Parsed = parseSchemaMode(schemaModeName(M));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, M);
  }
  EXPECT_STREQ(schemaKindName(SchemaKind::GlobalChannel), "global");
  EXPECT_STREQ(schemaKindName(SchemaKind::WarpSpecialized), "warp");
  EXPECT_STREQ(edgeSchemaName(EdgeSchema::GlobalChannel), "global");
  EXPECT_STREQ(edgeSchemaName(EdgeSchema::SharedQueue), "queue");
  EXPECT_FALSE(parseSchemaMode("queues").has_value());
  EXPECT_FALSE(parseSchemaMode("").has_value());
}

TEST(Schema, GlobalRequestKeepsEveryEdgeGlobal) {
  StreamGraph G = makeScalePipeline();
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Global));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->RequestedSchema, SchemaMode::Global);
  EXPECT_EQ(R->Schema.Kind, SchemaKind::GlobalChannel);
  EXPECT_EQ(R->Schema.numQueueEdges(), 0);
  EXPECT_EQ(R->Schema.SharedQueueBytes, 0);
  ASSERT_EQ(R->Schema.Edges.size(), static_cast<size_t>(G.numEdges()));
}

TEST(Schema, WarpSelectionIsDeterministicAndBudgeted) {
  StreamGraph G = benchmarkGraph("DCT");
  CompileOptions O = schemaOptions(SchemaMode::Warp, /*Pmax=*/4);
  auto A = compileForGpu(G, O);
  auto B = compileForGpu(G, O);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Schema.Kind, SchemaKind::WarpSpecialized);
  EXPECT_EQ(A->Schema.Edges, B->Schema.Edges);
  EXPECT_EQ(A->Schema.QueueCapTokens, B->Schema.QueueCapTokens);
  EXPECT_EQ(A->Schema.SharedQueueBytes, B->Schema.SharedQueueBytes);

  const GpuArch Arch = GpuArch::geForce8800GTS512();
  EXPECT_LE(A->Schema.SharedQueueBytes,
            Arch.SharedMemPerSM - SchemaSharedReserveBytes);
  ASSERT_EQ(A->Schema.Edges.size(), static_cast<size_t>(G.numEdges()));
  ASSERT_EQ(A->Schema.QueueCapTokens.size(),
            static_cast<size_t>(G.numEdges()));
  for (int E = 0; E < G.numEdges(); ++E) {
    if (A->Schema.isQueue(E))
      EXPECT_GT(A->Schema.QueueCapTokens[E], 0) << "edge " << E;
    else
      EXPECT_EQ(A->Schema.QueueCapTokens[E], 0) << "edge " << E;
  }
}

TEST(Schema, ViaQueueStreamsCostZeroDeviceTransactions) {
  MemStream S;
  S.Count = 4;
  S.KeyRate = 4;
  S.Layout = LayoutKind::Shuffled;
  const int64_t Threads = 128;
  ASSERT_GT(streamTransactions(S, Threads), 0);
  ASSERT_GT(warpAccessTransactions(S, /*BaseThread=*/0, /*Lanes=*/32, 0), 0);
  S.ViaQueue = true;
  EXPECT_EQ(streamTransactions(S, Threads), 0);
  EXPECT_EQ(warpAccessTransactions(S, /*BaseThread=*/0, /*Lanes=*/32, 0), 0);
  S.IsWrite = true;
  EXPECT_EQ(streamTransactions(S, Threads), 0);
}

TEST(Schema, QueueEdgesCutDeviceTraffic) {
  StreamGraph GGlobal = makeDeepScalePipeline(6);
  auto Global = compileForGpu(GGlobal, schemaOptions(SchemaMode::Global));
  StreamGraph GWarp = makeDeepScalePipeline(6);
  auto Warp = compileForGpu(GWarp, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(Global && Warp);
  // Pmax=1 on an init-free 1:1 pipeline: the selection must admit queue
  // edges, and every admitted edge removes its device transactions.
  ASSERT_GE(Warp->Schema.numQueueEdges(), 1);
  EXPECT_LT(Warp->KernelSim.Transactions, Global->KernelSim.Transactions);
  // Same schedule both times (the schema decision happens after
  // scheduling, never feeding back into II).
  EXPECT_EQ(Warp->Schedule.II, Global->Schedule.II);
}

TEST(Schema, AutoKeepsTheFasterSchema) {
  StreamGraph G1 = makeDeepScalePipeline(6);
  auto Global = compileForGpu(G1, schemaOptions(SchemaMode::Global));
  StreamGraph G2 = makeDeepScalePipeline(6);
  auto Warp = compileForGpu(G2, schemaOptions(SchemaMode::Warp));
  StreamGraph G3 = makeDeepScalePipeline(6);
  auto Auto = compileForGpu(G3, schemaOptions(SchemaMode::Auto));
  ASSERT_TRUE(Global && Warp && Auto);
  EXPECT_EQ(Auto->RequestedSchema, SchemaMode::Auto);
  const double Best = std::min(Global->KernelSim.TotalCycles,
                               Warp->KernelSim.TotalCycles);
  EXPECT_DOUBLE_EQ(Auto->KernelSim.TotalCycles, Best);
  if (Warp->KernelSim.TotalCycles < Global->KernelSim.TotalCycles)
    EXPECT_EQ(Auto->Schema.Kind, SchemaKind::WarpSpecialized);
  else
    EXPECT_EQ(Auto->Schema.Kind, SchemaKind::GlobalChannel);
}

TEST(Schema, WarpFunctionalRunMatchesReference) {
  StreamGraph G = makeDeepScalePipeline(6);
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(R.has_value());
  ASSERT_GE(R->Schema.numQueueEdges(), 1);
  SwpFunctionalSim Sim(G, *SteadyState::compute(G), R->Config, R->GSS,
                       R->Schedule, &R->Schema);
  auto SS = SteadyState::compute(G);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(3));
  auto Err = checkScheduleAgainstReference(G, *SS, R->Config, R->GSS,
                                           R->Schedule, In, 3, &R->Schema);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

TEST(Schema, MultiRateWarpFunctionalRunMatchesReference) {
  StreamGraph G = makeFig4Graph();
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(R.has_value());
  auto SS = SteadyState::compute(G);
  SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &R->Schema);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(2));
  auto Err = checkScheduleAgainstReference(G, *SS, R->Config, R->GSS,
                                           R->Schedule, In, 2, &R->Schema);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

// A peeking edge can never be a shared ring (the slack tokens would need
// host pre-seeding); forcing one into the assignment must produce the
// eligibility diagnostic naming the edge and schema, not an assert.
TEST(Schema, IneligiblePeekEdgeIsDiagnosed) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeOffsetFloat("Off", 1.0)));
  Parts.push_back(filterStream(makeMovingSum("Sum", 4)));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Global));
  ASSERT_TRUE(R.has_value());

  int PeekEdge = -1;
  for (const ChannelEdge &E : G.edges())
    if (E.PeekRate != E.ConsRate || E.InitTokens != 0) {
      PeekEdge = E.Id;
      break;
    }
  ASSERT_GE(PeekEdge, 0) << "moving-sum pipeline lost its peeking edge";

  SchemaAssignment Tampered = R->Schema;
  Tampered.Kind = SchemaKind::WarpSpecialized;
  Tampered.Edges[PeekEdge] = EdgeSchema::SharedQueue;
  Tampered.QueueCapTokens[PeekEdge] = 64;

  SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &Tampered);
  std::vector<Scalar> In = floatInput(Sim.inputTokensNeeded(1));
  FunctionalRunResult Res = Sim.run(In, 1);
  ASSERT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("edge " + std::to_string(PeekEdge)),
            std::string::npos)
      << Res.Error;
  EXPECT_NE(Res.Error.find("schema 'queue'"), std::string::npos) << Res.Error;
}

TEST(Schema, ZeroCapacityQueueIsDiagnosed) {
  StreamGraph G = makeDeepScalePipeline(6);
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(R.has_value());
  ASSERT_GE(R->Schema.numQueueEdges(), 1);

  SchemaAssignment Tampered = R->Schema;
  int QueueEdge = -1;
  for (int E = 0; E < G.numEdges(); ++E)
    if (Tampered.isQueue(E)) {
      QueueEdge = E;
      break;
    }
  ASSERT_GE(QueueEdge, 0);
  Tampered.QueueCapTokens[QueueEdge] = 0;

  SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &Tampered);
  std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(1));
  FunctionalRunResult Res = Sim.run(In, 1);
  ASSERT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("no ring capacity"), std::string::npos)
      << Res.Error;
  EXPECT_NE(Res.Error.find("edge " + std::to_string(QueueEdge)),
            std::string::npos)
      << Res.Error;
}

// Shrinking a backlogged ring below its stage-distance requirement must
// trip the invocation-boundary capacity check with the offending edge,
// the resident token count, and the declared capacity in the message.
TEST(Schema, UndersizedQueueIsDiagnosed) {
  // The greedy selection favours same-stage rings (the smallest per
  // byte), whose backlog drains within each invocation — an undersized
  // capacity there never shows at a boundary. To exercise the boundary
  // check, find an edge that is structurally ELIGIBLE for a queue but
  // whose consumer sits in a strictly later stage, and force it queued
  // with a 1-token ring: the cross-stage backlog cannot fit, and the
  // run must name the edge, the resident tokens, and the capacity.
  for (const char *Bench : {"Bitonic", "DCT", "FMRadio"}) {
    StreamGraph G = benchmarkGraph(Bench);
    auto SS = SteadyState::compute(G);
    ASSERT_TRUE(SS.has_value());
    auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp, /*Pmax=*/4));
    if (!R)
      continue;

    int Backlogged = -1;
    for (const ChannelEdge &E : G.edges()) {
      if (E.InitTokens != 0 || E.PeekRate != E.ConsRate)
        continue;
      if (SS->initFirings()[E.Src] != 0 || SS->initFirings()[E.Dst] != 0)
        continue;
      int Sm = -1;
      bool Spread = false;
      int64_t MinSrcF = std::numeric_limits<int64_t>::max();
      int64_t MaxDstF = std::numeric_limits<int64_t>::min();
      for (const ScheduledInstance &SI : R->Schedule.Instances) {
        if (SI.Node != E.Src && SI.Node != E.Dst)
          continue;
        if (Sm < 0)
          Sm = SI.Sm;
        else if (SI.Sm != Sm)
          Spread = true;
        if (SI.Node == E.Src)
          MinSrcF = std::min(MinSrcF, SI.F);
        if (SI.Node == E.Dst)
          MaxDstF = std::max(MaxDstF, SI.F);
      }
      if (!Spread && MaxDstF > MinSrcF) {
        Backlogged = E.Id;
        break;
      }
    }
    if (Backlogged < 0)
      continue;

    SchemaAssignment Tampered = R->Schema;
    Tampered.Kind = SchemaKind::WarpSpecialized;
    Tampered.Edges[Backlogged] = EdgeSchema::SharedQueue;
    Tampered.QueueCapTokens[Backlogged] = 1;
    SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &Tampered);
    std::vector<Scalar> In = intInput(Sim.inputTokensNeeded(2));
    FunctionalRunResult Res = Sim.run(In, 2);
    ASSERT_FALSE(Res.Ok);
    EXPECT_NE(Res.Error.find("ring capacity"), std::string::npos)
        << Res.Error;
    EXPECT_NE(Res.Error.find("edge " + std::to_string(Backlogged)),
              std::string::npos)
        << Res.Error;
    return;
  }
  FAIL() << "no fixture produced an eligible cross-stage edge; the "
            "schedules or the fixtures changed";
}

TEST(Schema, ReportJsonCarriesTheDecision) {
  StreamGraph G = makeDeepScalePipeline(6);
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(R.has_value());
  ASSERT_GE(R->Schema.numQueueEdges(), 1);
  std::string Json = reportToJson(G, *R);
  EXPECT_NE(Json.find("\"schema\""), std::string::npos);
  EXPECT_NE(Json.find("\"requested\":\"warp\""), std::string::npos);
  EXPECT_NE(Json.find("\"selected\":\"warp\""), std::string::npos);
  EXPECT_NE(Json.find("\"queue\""), std::string::npos);
}

// The warp emitter must render every queue-assigned edge as a shared
// ring with its selected capacity, and keep the software iteration
// barrier that separates pipeline iterations.
TEST(Schema, WarpEmitterRendersTheAssignment) {
  StreamGraph G = makeDeepScalePipeline(6);
  auto SS = SteadyState::compute(G);
  ASSERT_TRUE(SS.has_value());
  auto R = compileForGpu(G, schemaOptions(SchemaMode::Warp));
  ASSERT_TRUE(R.has_value());
  ASSERT_GE(R->Schema.numQueueEdges(), 1);
  CudaEmitOptions EO;
  EO.Coarsening = R->Coarsening;
  std::string Src =
      createKernelSchema(SchemaKind::WarpSpecialized)
          ->emit(G, *SS, R->Config, R->GSS, R->Schedule, R->Schema, EO);
  EXPECT_NE(Src.find("q_wait"), std::string::npos);
  EXPECT_NE(Src.find("q_publish"), std::string::npos);
  EXPECT_NE(Src.find("__shared__"), std::string::npos);
  for (int E = 0; E < G.numEdges(); ++E)
    if (R->Schema.isQueue(E))
      EXPECT_NE(Src.find("q_e" + std::to_string(E)), std::string::npos)
          << "queue edge " << E << " missing its shared ring";
}
