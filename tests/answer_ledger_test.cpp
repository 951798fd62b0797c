//===- tests/answer_ledger_test.cpp - Table I answer ledger ------------------===//
//
// Compiles the eight Table I programs under both timing models (SWP8,
// 16 SMs, schema=auto) and diffs every answer field against
// tests/golden/answers.json exactly: execution config, MII and the bound
// that set it, final II, relaxation, stage span, whether the exact
// solver decided, queue edges, simulated cycles and transactions,
// speedup and buffer footprint. Doubles are printed with 17 significant
// digits, so any drift in the last bit shows.
//
// The solver runs on perf_gate's deterministic caps (node and simplex
// iteration budgets, a wall-clock budget no run reaches), so a row is a
// pure function of the program and the options. The ledger must read the
// same at one and at four engine workers.
//
// Regenerate after an intentional answer change with:
//   SGPU_UPDATE_GOLDEN=1 ./build/tests/answer_ledger_test
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Registry.h"
#include "core/Compiler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sgpu;

namespace {

const std::string LedgerPath =
    std::string(SGPU_SOURCE_DIR) + "/tests/golden/answers.json";

std::string num(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// One ledger row: the answer of \p Spec under \p Timing at \p Jobs.
std::string answerRow(const bench::BenchmarkSpec &Spec,
                      TimingModelKind Timing, int Jobs) {
  CompileOptions O;
  O.Strat = Strategy::Swp;
  O.Coarsening = 8;
  O.Sched.Pmax = 16;
  O.Timing = Timing;
  O.Schema = SchemaMode::Auto;
  O.Sched.NumWorkers = Jobs;
  O.Sched.TimeBudgetSeconds = 300.0;
  O.Sched.MaxIlpNodes = 400;
  O.Sched.MaxLpIterations = 2000;

  StreamPtr Program = Spec.Build();
  StreamGraph G = flatten(*Program);
  std::optional<CompileReport> R = compileForGpu(G, O);

  std::string Row = "{\"program\":\"" + Spec.Name + "\",\"timing\":\"" +
                    timingModelKindName(Timing) + "\"";
  if (!R)
    return Row + ",\"compiled\":false}";
  const ScheduleResult &S = R->SchedStats;
  Row += ",\"regs\":" + std::to_string(R->Config.RegLimit);
  Row += ",\"threads\":" + std::to_string(R->Config.NumThreads);
  Row += ",\"mii\":" + num(S.MII);
  Row += std::string(",\"mii_bound\":\"") +
         (S.ResMII >= S.RecMII ? "res" : "rec") + "\"";
  Row += ",\"final_ii\":" + num(S.FinalII);
  Row += ",\"relax_pct\":" + num(S.RelaxationPercent);
  Row += ",\"stage_span\":" + std::to_string(R->Schedule.stageSpan());
  Row += std::string(",\"used_ilp\":") + (S.UsedIlp ? "true" : "false");
  Row += ",\"queue_edges\":" + std::to_string(R->Schema.numQueueEdges());
  Row += ",\"kernel_cycles\":" + num(R->KernelSim.TotalCycles);
  Row += ",\"transactions\":" + num(double(R->KernelSim.Transactions));
  Row += ",\"speedup\":" + num(R->Speedup);
  Row += ",\"buffer_bytes\":" + std::to_string(R->BufferBytes);
  return Row + "}";
}

/// All sixteen rows, one per line.
std::vector<std::string> ledgerRows(int Jobs) {
  std::vector<std::string> Rows;
  for (TimingModelKind Timing :
       {TimingModelKind::Analytic, TimingModelKind::Cycle})
    for (const bench::BenchmarkSpec &Spec : bench::allBenchmarks())
      Rows.push_back(answerRow(Spec, Timing, Jobs));
  return Rows;
}

std::string renderLedger(const std::vector<std::string> &Rows) {
  std::string Out = "{\"schema\":\"sgpu-answers-v1\",\"rows\":[\n";
  for (size_t I = 0; I < Rows.size(); ++I)
    Out += Rows[I] + (I + 1 < Rows.size() ? ",\n" : "\n");
  return Out + "]}\n";
}

/// The golden rows: every line of the ledger that holds one.
std::vector<std::string> readLedgerRows() {
  std::ifstream In(LedgerPath);
  EXPECT_TRUE(In.good())
      << LedgerPath << " is missing; regenerate with SGPU_UPDATE_GOLDEN=1";
  std::vector<std::string> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("{\"program\"", 0) != 0)
      continue;
    if (!Line.empty() && Line.back() == ',')
      Line.pop_back();
    Rows.push_back(Line);
  }
  return Rows;
}

void checkLedger(int Jobs) {
  std::vector<std::string> Rows = ledgerRows(Jobs);
  if (Jobs == 1 && std::getenv("SGPU_UPDATE_GOLDEN")) {
    std::ofstream Out(LedgerPath);
    ASSERT_TRUE(Out.good()) << "cannot write " << LedgerPath;
    Out << renderLedger(Rows);
    SUCCEED() << "regenerated " << LedgerPath;
    return;
  }
  std::vector<std::string> Golden = readLedgerRows();
  ASSERT_EQ(Golden.size(), Rows.size()) << LedgerPath << " row count";
  for (size_t I = 0; I < Rows.size(); ++I)
    EXPECT_EQ(Rows[I], Golden[I])
        << "answer drifted at --jobs=" << Jobs
        << "; if the change is intentional, regenerate with "
           "SGPU_UPDATE_GOLDEN=1 and name the row in CHANGES.md";
}

} // namespace

TEST(AnswerLedger, MatchesGoldenAtOneWorker) { checkLedger(1); }

TEST(AnswerLedger, MatchesGoldenAtFourWorkers) { checkLedger(4); }
