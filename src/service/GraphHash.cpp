//===- service/GraphHash.cpp - Content-addressed schedule keys ------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//

#include "service/GraphHash.h"

#include "gpusim/TimingModel.h"
#include "ir/AstPrinter.h"
#include "support/Check.h"
#include "support/Sha256.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace sgpu {
namespace service {

namespace {

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

const char *tokenTypeTag(TokenType Ty) {
  return Ty == TokenType::Int ? "i" : "f";
}

/// Scalars print bit-exactly: int as decimal, float via %a (hex float)
/// so canonically equal graphs cannot drift through decimal rounding.
void appendScalar(std::string &Out, const Scalar &S) {
  if (S.Ty == TokenType::Int)
    appendf(Out, "i%" PRId64, S.asInt());
  else
    appendf(Out, "f%a", S.asFloat());
}

void appendScalarTable(std::string &Out, const char *Tag,
                       const std::vector<Scalar> &Values) {
  appendf(Out, " %s[", Tag);
  for (const Scalar &S : Values) {
    appendScalar(Out, S);
    Out += ' ';
  }
  Out += ']';
}

/// A filter node, without its name: rates, types, constants, and the
/// work-function body as rendered by the symbolic AST printer (local
/// variable names do appear — they are part of the parsed program, not
/// of the filter's identity the satellite invariants cover).
void appendFilter(std::string &Out, const Filter &F) {
  appendf(Out, " filter %s->%s pop=%" PRId64 " push=%" PRId64
               " peek=%" PRId64 "\n",
          tokenTypeTag(F.inputType()), tokenTypeTag(F.outputType()),
          F.popRate(), F.pushRate(), F.peekRate());
  const WorkFunction &W = F.work();
  for (int Slot = 0; Slot < W.numFieldSlots(); ++Slot)
    appendScalarTable(Out, "field", F.fieldValues(Slot));
  if (F.isStateful())
    for (int Slot = 0; Slot < W.numStateSlots(); ++Slot)
      appendScalarTable(Out, "state", F.stateInit(Slot));
  Out += "body{\n";
  Out += printWorkBody(F, symbolicChannelLowering(), /*Indent=*/0);
  Out += "}\n";
}

} // namespace

std::string canonicalizeGraph(const StreamGraph &G) {
  std::string Out;
  appendf(Out, "graph nodes=%d edges=%d entry=%d exit=%d\n", G.numNodes(),
          G.numEdges(), G.entryNode(), G.exitNode());
  for (const GraphNode &N : G.nodes()) {
    appendf(Out, "node %d ", N.Id);
    switch (N.Kind) {
    case NodeKind::Filter:
      appendFilter(Out, *N.TheFilter);
      break;
    case NodeKind::Splitter:
    case NodeKind::Joiner:
      appendf(Out, "%s %s ty=%s w=[",
              N.isSplitter() ? "splitter" : "joiner",
              N.SplitKind == SplitterKind::Duplicate ? "dup" : "rr",
              tokenTypeTag(N.Ty));
      for (int64_t W : N.Weights)
        appendf(Out, "%" PRId64 " ", W);
      Out += "]\n";
      break;
    }
  }
  // Edges already carry the port order through their position in the
  // endpoints' InEdges/OutEdges lists; emitting src/dst plus rates in
  // edge-id order pins the whole connectivity.
  for (const ChannelEdge &E : G.edges())
    appendf(Out,
            "edge %d %d->%d ty=%s prod=%" PRId64 " cons=%" PRId64
            " peek=%" PRId64 " init=%" PRId64 "\n",
            E.Id, E.Src, E.Dst, tokenTypeTag(E.Ty), E.ProdRate, E.ConsRate,
            E.PeekRate, E.InitTokens);
  return Out;
}

std::string canonicalizeOptions(const CompileOptions &O) {
  std::string Out;
  Out += "options\n";
  appendf(Out, "strategy=%s\n", strategyOptionName(O.Strat));
  appendf(Out, "machine=%s\n", machineModeName(O.Machine));
  appendf(Out, "timing=%s\n", timingModelKindName(O.Timing));
  appendf(Out, "warp_sched=%s\n", warpSchedPolicyName(O.WarpSched));
  appendf(Out, "config_select=%s\n", configSelectModeName(O.ConfigSelect));
  appendf(Out, "schema=%s\n", schemaModeName(O.Schema));
  appendf(Out, "coarsening=%d\n", O.Coarsening);
  appendf(Out, "serial_threads=%d\n", O.SerialThreads);

  const GpuArch &A = O.Arch;
  appendf(Out,
          "arch sms=%d su=%d warp=%d tpsm=%d tpb=%d bpsm=%d regs=%d "
          "shmem=%" PRId64 " clk=%a lat=%d cpt=%a cwi=%a sfu=%a mlp=%a "
          "launch=%" PRId64 " dram=%" PRId64 "\n",
          A.NumSMs, A.ScalarUnitsPerSM, A.WarpSize, A.MaxThreadsPerSM,
          A.MaxThreadsPerBlock, A.MaxBlocksPerSM, A.RegistersPerSM,
          A.SharedMemPerSM, A.CoreClockGHz, A.MemLatencyCycles,
          A.ChipCyclesPerTxn, A.CyclesPerWarpInstr, A.SfuCyclesPerWarpInstr,
          A.MemoryLevelParallelism, A.KernelLaunchCycles, A.DramBytes);

  const SchedulerOptions &S = O.Sched;
  appendf(Out,
          "sched pmax=%d budget=%a nodes=%d lpiters=%d relax=%a "
          "maxrelax=%a stages=%" PRId64 " ilp=%d maxinst=%d attempts=%d "
          "force=%d\n",
          S.Pmax, S.TimeBudgetSeconds, S.MaxIlpNodes, S.MaxLpIterations,
          S.RelaxFactor, S.MaxRelaxFactor, S.MaxStages, S.UseIlp ? 1 : 0,
          S.MaxIlpInstances, S.MaxIlpAttempts,
          S.IlpEvenIfHeuristicSucceeds ? 1 : 0);

  const CpuModel &C = O.Cpu;
  appendf(Out,
          "cpu clk=%a alu=%a transc=%a chan=%a firing=%a cores=%d "
          "cache=%" PRId64 "\n",
          C.ClockGHz, C.CyclesPerAluOp, C.CyclesPerTransc,
          C.CyclesPerChannelOp, C.CyclesPerFiring, C.NumCores,
          C.CacheBytesPerCore);
  // NumWorkers and IIWindow are intentionally absent: the speculative
  // II window commits the same II as the serial loop and the profile
  // sweep fills the same table at any worker count (the SpeculativeII
  // and ParallelProfiler tests, cyclesim determinism tests), so they
  // must not split the key space.
  return Out;
}

std::string graphHash(const StreamGraph &G, const CompileOptions &Options) {
  Sha256 H;
  char Header[64];
  std::snprintf(Header, sizeof(Header), "sgpu-canon v%d\n",
                kCanonicalFormVersion);
  H.update(Header);
  H.update(canonicalizeGraph(G));
  H.update(canonicalizeOptions(Options));
  return H.digestHex();
}

} // namespace service
} // namespace sgpu
