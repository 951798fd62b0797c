//===- perfbench/src/main.cpp - Repository benchmark driver ---------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload and writes its result document. perfbench/run.py
// builds this binary and calls it; see perfbench/README.md.
//
// Usage:
//   perfbench --workload table1|table1-cycle|served --seed N --seconds S
//             --trace 0|1 --workdir DIR --out FILE [--corpus-seed N]
//
// The last stdout line is the one-line summary
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <sstream>
#include <unistd.h>

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

CpuPin::CpuPin(int K) {
  if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  int N = CPU_COUNT(&Saved);
  for (int Cpu = 0, Seen = 0; N > 0 && Cpu < CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Saved) || Seen++ != K % N)
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
    break;
  }
}

CpuPin::~CpuPin() {
  if (Pinned)
    sched_setaffinity(0, sizeof(Saved), &Saved);
}

double minimum(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

double maximum(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::max_element(V.begin(), V.end());
}

LatencySummary summarize(std::vector<double> V) {
  LatencySummary S;
  S.Samples = static_cast<int64_t>(V.size());
  if (V.empty())
    return S;
  S.Median = median(V);
  std::sort(V.begin(), V.end());
  const int64_t N = S.Samples;
  // Nearest rank: the p-th percentile is the ceil(p/100 * N)-th value.
  auto Rank = [N](double P) {
    return static_cast<int64_t>(std::ceil(P / 100.0 * static_cast<double>(N) -
                                          1e-9));
  };
  S.Tail = S.Median;
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    int64_t R = std::max<int64_t>(1, Rank(P));
    if (N - R >= 10) {
      S.Tail = V[R - 1];
      S.TailPercentile = P;
      break;
    }
  }
  return S;
}

int SpanLog::begin(const std::string &Name, const std::string &Item) {
  SpanRecord R;
  R.Name = Name;
  R.Item = Item;
  R.Parent = Open.empty() ? -1 : Open.back();
  R.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                  .count();
  Spans.push_back(std::move(R));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void SpanLog::end(int Id) {
  double NowUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  SpanRecord &R = Spans[Id];
  R.DurUs = NowUs - R.StartUs;
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double SpanLog::totalSeconds(const std::string &Name, size_t From) const {
  double Sum = 0.0;
  for (double D : durations(Name, From))
    Sum += D;
  return Sum;
}

std::vector<double> SpanLog::durations(const std::string &Name,
                                       size_t From) const {
  std::vector<double> Out;
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Name == Name)
      Out.push_back(Spans[I].DurUs * 1e-6);
  return Out;
}

int64_t counterDelta(const sgpu::MetricsRegistry::Snapshot &Before,
                     const sgpu::MetricsRegistry::Snapshot &After,
                     const std::string &Name) {
  auto Get = [&Name](const sgpu::MetricsRegistry::Snapshot &S) -> int64_t {
    auto It = S.Counters.find(Name);
    return It == S.Counters.end() ? 0 : It->second;
  };
  return Get(After) - Get(Before);
}

void RunResult::fail(const std::string &Msg) {
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Msg);
  std::fprintf(stderr, "perfbench: FAIL %s\n", Msg.c_str());
}

void RunResult::add(const std::string &Name, const std::string &Unit,
                    double Value, int64_t Samples) {
  Metric M;
  M.Name = Name;
  M.Unit = Unit;
  M.Value = Value;
  M.Samples = Samples;
  Metrics.push_back(M);
}

void RunResult::addRoundLatency(
    const std::string &Prefix, const std::vector<std::vector<double>> &Rounds) {
  std::vector<double> Medians, Tails, All;
  double Percentile = 50.0;
  for (const std::vector<double> &R : Rounds) {
    LatencySummary S = summarize(R);
    Medians.push_back(S.Median);
    Tails.push_back(S.Tail);
    Percentile = S.TailPercentile;
    All.insert(All.end(), R.begin(), R.end());
  }
  Samples[Prefix + "_ms"] = All;
  add(Prefix + "_p50_ms", "ms", minimum(Medians), int64_t(All.size()));
  Metric Tail;
  Tail.Name = Prefix + "_tail_ms";
  Tail.Unit = "ms";
  Tail.Value = minimum(Tails);
  Tail.Samples = int64_t(All.size());
  Tail.Percentile = Percentile;
  Metrics.push_back(Tail);
  Facts[Prefix + "_rounds"] = double(Rounds.size());
}

std::vector<double> itemMinima(
    const std::vector<std::vector<double>> &Passes) {
  std::vector<double> Out;
  for (size_t I = 0; !Passes.empty() && I < Passes.front().size(); ++I) {
    std::vector<double> Item;
    for (const std::vector<double> &P : Passes)
      if (I < P.size())
        Item.push_back(P[I]);
    Out.push_back(minimum(Item));
  }
  return Out;
}

void RunResult::addItemLatency(const std::string &Prefix,
                               const std::vector<std::vector<double>> &Passes) {
  std::vector<double> All;
  for (const std::vector<double> &P : Passes)
    All.insert(All.end(), P.begin(), P.end());
  Samples[Prefix + "_ms"] = All;
  LatencySummary S = summarize(itemMinima(Passes));
  add(Prefix + "_p50_ms", "ms", S.Median, int64_t(All.size()));
  Metric Tail;
  Tail.Name = Prefix + "_tail_ms";
  Tail.Unit = "ms";
  Tail.Value = S.Tail;
  Tail.Samples = int64_t(All.size());
  Tail.Percentile = S.TailPercentile;
  Metrics.push_back(Tail);
}

void syncFileSystem(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::syncfs(Fd);
  ::close(Fd);
}

std::string runTag() {
  static const std::string Tag =
      std::to_string(::getpid()) + "-" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                     std::chrono::microseconds(1));
  return Tag;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

} // namespace perfbench

using namespace perfbench;

namespace {

/// A JSON number with every digit kept; null for non-finite values.
std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string summaryLine(const RunResult &R) {
  std::ostringstream OS;
  OS << "{\"correct\": " << (R.Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    OS << (I ? ", " : "") << "\"" << M.Name << "\": {\"value\": "
       << num(M.Value) << ", \"unit\": \"" << M.Unit << "\"}";
  }
  OS << "}}";
  return OS.str();
}

std::string resultDocument(const RunArgs &A, const RunResult &R) {
  using sgpu::JsonWriter;
  JsonWriter W;
  W.beginObject();
  W.writeString("workload", A.Workload);
  W.writeInt("seed", static_cast<int64_t>(A.Seed));
  W.writeInt("corpus_seed", static_cast<int64_t>(A.CorpusSeed));
  W.writeInt("seconds", A.Seconds);
  W.writeBool("trace", A.Trace);
  W.writeBool("correct", R.Failed == 0);
  W.writeInt("attempted", R.Attempted);
  W.writeInt("failed", R.Failed);
  W.beginArray("metrics");
  for (const Metric &M : R.Metrics) {
    W.beginObject();
    W.writeString("name", M.Name);
    W.writeString("unit", M.Unit);
    W.writeRaw("value", num(M.Value));
    W.writeString("workload", A.Workload);
    W.writeInt("seed", static_cast<int64_t>(A.Seed));
    W.writeInt("samples", M.Samples);
    if (M.Percentile >= 0.0)
      W.writeRaw("percentile", num(M.Percentile));
    W.endObject();
  }
  W.endArray();
  W.beginArray("programs");
  for (const ProgramRow &P : R.Rows) {
    W.beginObject();
    W.writeString("program", P.Program);
    W.writeInt("pass", P.Pass);
    W.writeRaw("compile_ms", num(P.CompileMs));
    W.writeRaw("final_ii", num(P.FinalII));
    W.writeRaw("speedup", num(P.Speedup));
    W.writeRaw("kernel_cycles", num(P.KernelCycles));
    W.writeString("schema", P.Schema);
    W.writeBool("used_ilp", P.UsedIlp);
    W.writeRaw("solver_seconds", num(P.SolverSeconds));
    W.writeInt("budget_cuts", P.BudgetCuts);
    W.writeString("check", P.Check);
    W.endObject();
  }
  W.endArray();
  W.beginArray("failures");
  for (const std::string &F : R.Failures)
    W.writeString(F);
  W.endArray();
  W.beginArray("determinism_diffs");
  for (const std::string &D : R.Determinism)
    W.writeString(D);
  W.endArray();
  W.beginObject("facts");
  for (const auto &[K, V] : R.Facts)
    W.writeRaw(K, num(V));
  W.endObject();
  W.beginObject("notes");
  for (const auto &[K, V] : R.Notes)
    W.writeString(K, V);
  W.endObject();
  W.beginObject("samples");
  for (const auto &[K, V] : R.Samples) {
    W.beginArray(K);
    for (double X : V)
      W.writeRaw("", num(X));
    W.endArray();
  }
  W.endObject();
  W.beginArray("spans");
  for (const SpanRecord &S : R.Spans.spans()) {
    W.beginObject();
    W.writeString("name", S.Name);
    W.writeString("item", S.Item);
    W.writeInt("parent", S.Parent);
    W.writeRaw("start_us", num(S.StartUs));
    W.writeRaw("dur_us", num(S.DurUs));
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

bool parseArgs(int argc, char **argv, RunArgs &A) {
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Flag.c_str());
      return false;
    }
    std::string V = argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--corpus-seed")
      A.CorpusSeed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atoi(V.c_str());
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--workdir")
      A.WorkDir = V;
    else if (Flag == "--out")
      A.OutPath = V;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", Flag.c_str());
      return false;
    }
  }
  if (A.Seconds < 1 || A.WorkDir.empty() || A.OutPath.empty()) {
    std::fprintf(stderr, "perfbench: need --seconds >= 1, --workdir, --out\n");
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  RunArgs Args;
  if (!parseArgs(argc, argv, Args))
    return 2;

  RunResult Result;
  int Rc;
  if (Args.Workload == "table1" || Args.Workload == "table1-cycle") {
    Rc = runCompileWorkload(Args, Result);
  } else if (Args.Workload == "served") {
    Rc = runServedWorkload(Args, Result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Args.Workload.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;
  if (Result.Attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 3;
  }
  for (const std::string &D : Result.Determinism)
    std::fprintf(stderr, "perfbench: determinism: %s\n", D.c_str());

  std::ofstream Doc(Args.OutPath, std::ios::trunc);
  Doc << resultDocument(Args, Result) << "\n";
  if (!Doc.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 Args.OutPath.c_str());
    return 3;
  }
  std::printf("%s\n", summaryLine(Result).c_str());
  return 0;
}
