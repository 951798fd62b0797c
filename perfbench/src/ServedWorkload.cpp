//===- perfbench/src/ServedWorkload.cpp - The served workload -------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// An in-process service::Service (default options, a fresh cache
// directory) behind service::Server on a Unix socket, driven closed-loop
// by two client threads of this process.
//
//   Phase A (cold)  every corpus program once, over two persistent
//                   connections: the eight Table I programs by name and
//                   GraphGen programs (corpus seed) sent as `.str` text.
//   Phase B (mixed) one connection per request. Hits are repeats of
//                   phase-A programs, four per program per round in a
//                   seed-shuffled order. Misses are never-seen
//                   programs: each GraphGen corpus program once more with
//                   its accumulator constants redrawn from the seed, so
//                   its key is new while its compile cost (rates, shape)
//                   is that of the original. Misses sit at fixed, evenly
//                   spaced slots, so the seed moves which programs are
//                   hit and the constants, not the load shape.
//
// Failures: error or busy responses, lost connections, malformed frames,
// and hits whose key or report differs from the miss that filled it.
// The traced run adds a replay of the corpus through the service layers
// (parser, flatten, graphHash, a scratch ScheduleCache on disk) and
// through the compile stages (Layers.h).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "benchmarks/Registry.h"
#include "parser/Parser.h"
#include "service/Server.h"
#include "service/Service.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "testing/DslPrinter.h"
#include "testing/GraphGen.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace sgpu;

namespace perfbench {

namespace {

/// Two clients: with a handler thread per connection and up to four solve
/// workers, more clients than half the host's four cores measured the
/// scheduler rather than the daemon.
constexpr int NumClients = 2;
constexpr int NumGraphGen = 96; ///< GraphGen programs in the corpus.
constexpr int HitsPerProgram = 4; ///< Phase-B hits per program per round.

/// A blocking line-framed Unix-socket client.
class Client {
public:
  Client() = default;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
           0;
  }

  /// Sends \p Line plus a newline and reads one response line.
  bool roundTrip(const std::string &Line, std::string &Response) {
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
    Response = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    return true;
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// One corpus program.
struct CorpusProgram {
  std::string Name;
  std::string Source; ///< `.str` text; empty for a Table I program.
  std::string Line;   ///< The phase-A request.
};

/// One request of phase B.
struct PhaseBRequest {
  std::string Line;
  int Program = -1; ///< Corpus index for a repeat, -1 for a new program.
};

/// A parsed response: the head fields plus a digest of the report.
struct Response {
  bool Transport = false; ///< A full response line arrived.
  double ClientMs = 0.0;
  std::string Status, Cache, Key, Error;
  bool Coalesced = false;
  double ElapsedMs = 0.0;
  size_t ReportHash = 0;
  std::string Report; ///< Kept for phase A only.
};

Response parseResponse(const std::string &Line, bool KeepReport) {
  Response R;
  R.Transport = true;
  size_t At = Line.find(",\"report\":");
  std::optional<JsonValue> Head =
      JsonValue::parse(At == std::string::npos ? Line
                                               : Line.substr(0, At) + "}");
  if (!Head || !Head->isObject()) {
    R.Status = "malformed";
    return R;
  }
  auto Str = [&](const char *K) {
    const JsonValue *V = Head->find(K);
    return V && V->isString() ? V->asString() : std::string();
  };
  R.Status = Str("status");
  R.Cache = Str("cache");
  R.Key = Str("key");
  R.Error = Str("error");
  if (const JsonValue *C = Head->find("coalesced"))
    R.Coalesced = C->asBool();
  if (const JsonValue *E = Head->find("elapsed_ms"))
    R.ElapsedMs = E->asNumber();
  if (At != std::string::npos) {
    std::string_view Report(Line.data() + At + 10, Line.size() - At - 11);
    R.ReportHash = std::hash<std::string_view>()(Report);
    if (KeepReport)
      R.Report = std::string(Report);
  }
  return R;
}

/// Adds \p Offset to every filter's accumulator constant.
void redrawConstants(testing::StreamSpec &S, int64_t Offset) {
  if (S.K == testing::StreamSpec::Kind::Filter)
    S.F.AccInit += Offset;
  for (testing::StreamSpec &C : S.Children)
    redrawConstants(C, Offset);
}

std::string sourceBody(const std::string &Source) {
  return "\"source\":\"" + JsonWriter::escape(Source) + "\"";
}

/// Inputs plus a running server.
struct Setup {
  std::vector<CorpusProgram> Corpus;
  std::vector<std::vector<PhaseBRequest>> Rounds; ///< Phase B.
  std::string Dir, Socket;
  std::unique_ptr<service::Service> Svc;
  std::unique_ptr<service::Server> Srv;

  /// Stops the daemon. Its cache directory is kept: deleting a run's
  /// thousand cache files slowed the disk writes of the next runs by up
  /// to 2x on a virtual disk (freed blocks are trimmed on the host), so
  /// every run writes to a new directory instead (see runTag).
  void stop() {
    if (Srv)
      Srv->stop();
    Srv.reset();
    Svc.reset();
  }
};

/// Generates the corpus and every request (single-threaded).
bool makeInputs(const RunArgs &A, int NumRounds, Setup &S, std::string &Err) {
  // The corpus: GraphGen seeds 1000 * corpus_seed + i, printable only,
  // with the eight Table I programs at evenly spaced positions.
  std::vector<testing::GraphSpec> Specs;
  std::vector<CorpusProgram> Gen;
  for (uint64_t Seed = 1000 * A.CorpusSeed;
       static_cast<int>(Gen.size()) < NumGraphGen; ++Seed) {
    testing::GraphSpec Spec = testing::generateGraphSpec(Seed);
    testing::DslPrintResult P =
        testing::printStreamDsl(*testing::buildStream(Spec));
    if (!P.Ok)
      continue;
    Gen.push_back({"gg" + std::to_string(Seed), P.Text, ""});
    Specs.push_back(std::move(Spec));
  }
  const std::vector<bench::BenchmarkSpec> &Table1 = bench::allBenchmarks();
  const size_t Total = Gen.size() + Table1.size();
  for (size_t I = 0, G = 0, T = 0; I < Total; ++I) {
    bool TakeTable1 =
        T < Table1.size() &&
        I >= static_cast<size_t>((T + 0.5) * Total / Table1.size());
    if (TakeTable1) {
      S.Corpus.push_back({Table1[T].Name, "",
                          "\"benchmark\":\"" + Table1[T].Name + "\""});
      ++T;
    } else {
      S.Corpus.push_back(Gen[G++]);
      S.Corpus.back().Line = sourceBody(S.Corpus.back().Source);
    }
  }
  for (size_t I = 0; I < S.Corpus.size(); ++I)
    S.Corpus[I].Line =
        "{\"id\":\"a" + std::to_string(I) + "\"," + S.Corpus[I].Line + "}";

  // Phase B, round by round: every corpus program repeated HitsPerProgram
  // times in a seed-shuffled order, plus one redrawn-constant variant of
  // each GraphGen program at evenly spaced slots. Every round holds the
  // same requests, so the seed moves the order, not the mix.
  Rng R(A.Seed * 0x9e3779b97f4a7c15ull + 3);
  const int Misses = static_cast<int>(Specs.size());
  std::vector<int> Deck;
  for (int P = 0; P < static_cast<int>(S.Corpus.size()); ++P)
    Deck.insert(Deck.end(), HitsPerProgram, P);
  const int Requests = static_cast<int>(Deck.size()) + Misses;
  S.Rounds.resize(NumRounds);
  for (int Round = 0; Round < NumRounds; ++Round) {
    for (size_t I = Deck.size(); I > 1; --I)
      std::swap(Deck[I - 1], Deck[R.nextInt(int64_t(I))]);
    int NextMiss = 0, NextHit = 0;
    for (int I = 0; I < Requests; ++I) {
      PhaseBRequest Req;
      std::string Body;
      bool MissSlot =
          NextMiss < Misses &&
          I >= static_cast<int>((NextMiss + 0.5) * Requests / Misses);
      if (MissSlot) {
        testing::GraphSpec Spec = Specs[NextMiss++];
        redrawConstants(Spec.Root, 10 + Round * 1000 + R.nextInt(1000));
        testing::DslPrintResult P =
            testing::printStreamDsl(*testing::buildStream(Spec));
        if (!P.Ok) {
          Err = "cannot print a redrawn program";
          return false;
        }
        Body = sourceBody(P.Text);
      } else {
        Req.Program = Deck[NextHit++];
        const CorpusProgram &C = S.Corpus[Req.Program];
        Body = C.Source.empty() ? "\"benchmark\":\"" + C.Name + "\""
                                : sourceBody(C.Source);
      }
      Req.Line = "{\"id\":\"b" + std::to_string(Round) + "-" +
                 std::to_string(I) + "\"," + Body + "}";
      S.Rounds[Round].push_back(std::move(Req));
    }
  }
  return true;
}

/// Starts the daemon: default options, a fresh cache directory.
bool startDaemon(const RunArgs &A, int Repeat, Setup &S, std::string &Err) {
  std::string Tag = runTag() + "-" + std::to_string(Repeat);
  S.Dir = A.WorkDir + "/served-" + Tag;
  S.Socket = A.WorkDir + "/s" + Tag + ".sock";
  service::ServiceOptions SO;
  SO.Cache.Dir = S.Dir + "/cache";
  S.Svc = std::make_unique<service::Service>(SO);
  service::ServerOptions Opts;
  Opts.UnixPath = S.Socket;
  S.Srv = std::make_unique<service::Server>(*S.Svc, Opts);
  return S.Srv->start(&Err);
}

/// Runs \p Count requests on NumClients closed-loop client threads;
/// \p Send performs request I and fills its response.
double runClients(int Count, const std::function<void(int Client, int I)> &Send) {
  std::atomic<int> Next{0};
  auto Start = Clock::now();
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      for (int I; (I = Next.fetch_add(1)) < Count;)
        Send(T, I);
    });
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

} // namespace

int runServedWorkload(const RunArgs &Args, RunResult &Out) {
  // Run length: phase A, then one phase-B round per second of --seconds
  // (half as many in the traced run, which also replays the corpus).
  const int NumRounds = std::max(2, Args.Trace ? Args.Seconds / 2 : Args.Seconds);
  std::filesystem::create_directories(Args.WorkDir);
  syncFileSystem(Args.WorkDir);

  // Set-up: corpus generation, request building, daemon start. Repeated;
  // the last one stays up.
  std::vector<double> SetupTimes;
  Setup S;
  for (int K = 0; K < SetupRepeats; ++K) {
    S.stop();
    S = Setup();
    std::string Err;
    auto Start = Clock::now();
    bool Ok;
    {
      CpuPin Pin(K);
      Ok = makeInputs(Args, NumRounds, S, Err);
    }
    if (!Ok || !startDaemon(Args, K, S, Err)) {
      std::fprintf(stderr, "perfbench: served set-up failed: %s\n",
                   Err.c_str());
      S.stop();
      return 3;
    }
    SetupTimes.push_back(secondsSince(Start));
  }

  // Phase A: every corpus program once over persistent connections.
  std::vector<Response> A(S.Corpus.size());
  {
    std::vector<std::unique_ptr<Client>> Conns(NumClients);
    double Wall = runClients(int(A.size()), [&](int T, int I) {
      std::string Line;
      auto Start = Clock::now();
      if (!Conns[T]) {
        Conns[T] = std::make_unique<Client>();
        if (!Conns[T]->connect(S.Socket)) {
          Conns[T].reset();
          return;
        }
      }
      if (!Conns[T]->roundTrip(S.Corpus[I].Line, Line)) {
        Conns[T].reset();
        return;
      }
      double Ms = 1e3 * secondsSince(Start);
      A[I] = parseResponse(Line, /*KeepReport=*/true);
      A[I].ClientMs = Ms;
    });
    Out.Facts["phase_a_wall_s"] = Wall;
  }

  // Phase B: one connection per request, round by round.
  std::vector<std::vector<Response>> B(S.Rounds.size());
  std::vector<double> RoundWalls;
  for (size_t Round = 0; Round < S.Rounds.size(); ++Round) {
    const std::vector<PhaseBRequest> &Reqs = S.Rounds[Round];
    std::vector<Response> &Resps = B[Round];
    Resps.resize(Reqs.size());
    RoundWalls.push_back(runClients(int(Reqs.size()), [&](int, int I) {
      std::string Line;
      auto Start = Clock::now();
      Client C;
      if (!C.connect(S.Socket) || !C.roundTrip(Reqs[I].Line, Line))
        return;
      double Ms = 1e3 * secondsSince(Start);
      Resps[I] = parseResponse(Line, /*KeepReport=*/false);
      Resps[I].ClientMs = Ms;
    }));
  }
  service::ScheduleCache::Stats CacheStats = S.Svc->cache().stats();
  double CacheMb = double(S.Svc->cache().sizeBytes()) / (1024.0 * 1024.0);
  S.Srv->stop();

  // Output checks and samples, outside the timed region.
  std::map<std::string, size_t> Filled; // Key -> report digest of its miss.
  std::vector<double> ColdMs, Speedups, HitSvcMs, MissSvcMs, Transport;
  std::vector<std::vector<double>> WarmMs(B.size());
  // Misses per round; phase A is round 0, phase-B round R is round R + 1.
  std::vector<std::vector<double>> ColdRounds(B.size() + 1);
  int64_t Coalesced = 0, Busy = 0;
  auto Account = [&](const Response &R, const std::string &What,
                     int Program, int Round) {
    ++Out.Attempted;
    if (!R.Transport)
      return Out.fail(What + ": connection lost");
    if (R.Status == "busy") {
      ++Busy;
      return Out.fail(What + ": busy");
    }
    if (R.Status != "ok")
      return Out.fail(What + ": " + R.Status + " " + R.Error);
    Coalesced += R.Coalesced ? 1 : 0;
    if (R.Cache == "hit") {
      auto It = Filled.find(R.Key);
      bool KeyOk = Program < 0 || R.Key == A[Program].Key;
      if (!KeyOk || It == Filled.end() || It->second != R.ReportHash)
        return Out.fail(What + ": hit differs from the miss that filled " +
                        R.Key);
      if (Round >= 0) {
        WarmMs[Round].push_back(R.ClientMs);
        HitSvcMs.push_back(R.ElapsedMs);
        Transport.push_back(R.ClientMs - R.ElapsedMs);
      }
      return;
    }
    Filled.emplace(R.Key, R.ReportHash);
    ColdMs.push_back(R.ClientMs);
    ColdRounds[Round + 1].push_back(R.ClientMs);
    MissSvcMs.push_back(R.ElapsedMs);
  };
  for (size_t I = 0; I < A.size(); ++I) {
    Account(A[I], "phase A " + S.Corpus[I].Name, -1, -1);
    if (A[I].Status != "ok")
      continue;
    std::optional<JsonValue> Report = JsonValue::parse(A[I].Report);
    const JsonValue *M = Report ? Report->find("metrics") : nullptr;
    const JsonValue *Sp = M ? M->find("speedup") : nullptr;
    if (!Sp || !Sp->isNumber() || !(Sp->asNumber() > 0.0)) {
      Out.fail("phase A " + S.Corpus[I].Name + ": report has no speedup");
      continue;
    }
    Speedups.push_back(Sp->asNumber());
  }
  std::vector<double> Rps;
  for (size_t Round = 0; Round < B.size(); ++Round) {
    for (size_t I = 0; I < B[Round].size(); ++I)
      Account(B[Round][I],
              "phase B request " + std::to_string(Round) + "-" +
                  std::to_string(I),
              S.Rounds[Round][I].Program, int(Round));
    Rps.push_back(double(B[Round].size()) / RoundWalls[Round]);
  }

  if (!Args.Trace) {
    Out.add("setup_s", "s", median(SetupTimes),
            int64_t(SetupTimes.size()));
    Out.add("compile_s", "s", Out.Facts["phase_a_wall_s"],
            int64_t(A.size()));
    Out.add("speedup_geomean", "x", geomean(Speedups),
            int64_t(Speedups.size()));
    Out.add("ok_frac", "ratio",
            1.0 - double(Out.Failed) / double(std::max<int64_t>(1, Out.Attempted)),
            Out.Attempted);
    Out.add("peak_rss_mb", "MB", peakRssMb());
    // cold_p50_ms is per round, like warm_p50_ms; cold_tail_ms is over
    // every miss, pooled, because the compiles that set it (one or two
    // per round) would fall below any per-round tail percentile.
    std::vector<double> ColdMedians;
    for (const std::vector<double> &R : ColdRounds)
      if (!R.empty())
        ColdMedians.push_back(median(R));
    LatencySummary Cold = summarize(ColdMs);
    Out.Samples["cold_ms"] = ColdMs;
    Out.add("cold_p50_ms", "ms", minimum(ColdMedians), Cold.Samples);
    Out.Metrics.push_back(
        {"cold_tail_ms", "ms", Cold.Tail, Cold.Samples, Cold.TailPercentile});
    Out.Facts["cold_rounds"] = double(ColdMedians.size());
    Out.addRoundLatency("warm", WarmMs);
    Out.add("served_rps", "req/s", maximum(Rps), int64_t(Rps.size()));
  } else {
    LayerTotals L;
    // The service layers, replayed over the corpus with the phase-A
    // reports as the cached values.
    std::vector<ServiceProgram> SvcProgs;
    std::vector<StreamPtr> Roots;
    for (size_t I = 0; I < S.Corpus.size(); ++I) {
      const CorpusProgram &C = S.Corpus[I];
      const bench::BenchmarkSpec *Spec =
          C.Source.empty() ? bench::findBenchmark(C.Name) : nullptr;
      Roots.push_back(Spec ? Spec->Build() : parseStreamProgram(C.Source));
      if (A[I].Status == "ok")
        SvcProgs.push_back({C.Name, C.Source, Roots.back().get(),
                            A[I].Report});
    }
    replayServiceLayers(SvcProgs, CompileOptions(),
                        Args.WorkDir + "/layers-" + runTag(), L, Out);

    // The compile stages, replayed over the corpus with the options the
    // service solves under.
    CompileOptions O;
    O.Sched.NumWorkers = 1;
    O.Sched.IIWindow = 1;
    const size_t From = Out.Spans.spans().size();
    std::vector<ReplayOutcome> Outcomes;
    double DaemonSolveMs = 0.0;
    for (size_t I = 0; I < S.Corpus.size(); ++I) {
      ++Out.Attempted;
      if (!Roots[I]) {
        Out.fail("replay: cannot parse " + S.Corpus[I].Name);
        continue;
      }
      std::optional<ReplayOutcome> R =
          replayCompile(*Roots[I], O, S.Corpus[I].Name, Out.Spans);
      if (!R) {
        Out.fail("replay failed for " + S.Corpus[I].Name);
        continue;
      }
      DaemonSolveMs += A[I].ElapsedMs;
      Outcomes.push_back(std::move(*R));
    }
    double Covered = addCompilePass(L, Out.Spans, From, Outcomes);
    double Replayed = Out.Spans.totalSeconds("compile", From);
    L.Coverage = Replayed > 0 ? Covered / Replayed : 0.0;
    // Against the daemon's own solve time for the same programs, which
    // ran four at a time in phase A.
    L.OverheadFrac = DaemonSolveMs > 0 ? 1e3 * Replayed / DaemonSolveMs - 1.0
                                       : 0.0;

    L.HitMs = median(HitSvcMs);
    L.MissMs = median(MissSvcMs);
    L.TransportMs = median(Transport);
    int64_t Lookups =
        CacheStats.MemHits + CacheStats.DiskHits + CacheStats.Misses;
    L.HitRate = Lookups > 0 ? double(CacheStats.MemHits + CacheStats.DiskHits) /
                                  double(Lookups)
                            : 0.0;
    L.CacheMb = CacheMb;
    L.Coalesced = double(Coalesced);
    L.Busy = double(Busy);
    addLayerMetrics(Out, L);
  }

  double PhaseBWall = 0.0;
  for (double W : RoundWalls)
    PhaseBWall += W;
  Out.Facts["phase_b_wall_s"] = PhaseBWall;
  Out.Facts["phase_b_rounds"] = double(B.size());
  Out.Facts["corpus_programs"] = double(S.Corpus.size());
  Out.Facts["cold_samples"] = double(ColdMs.size());
  S.stop();
  std::filesystem::remove(S.Socket);
  syncFileSystem(Args.WorkDir);
  return 0;
}

} // namespace perfbench
