//===- tests/codegen_test.cpp - CUDA emitter structural tests ---------------===//

#include "codegen/CudaEmitter.h"

#include "core/IlpScheduler.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

const GpuArch Arch = GpuArch::geForce8800GTS512();

struct Compiled {
  StreamGraph G;
  SteadyState SS;
  ExecutionConfig Config;
  GpuSteadyState GSS;
  SwpSchedule Schedule;
};

Compiled compile(StreamGraph G, int Pmax = 4) {
  auto SS = SteadyState::compute(G);
  EXPECT_TRUE(SS.has_value());
  ProfileTable PT = profileGraph(Arch, G, LayoutKind::Shuffled);
  auto Config = selectExecutionConfig(*SS, PT);
  EXPECT_TRUE(Config.has_value());
  GpuSteadyState GSS =
      computeGpuSteadyState(SS->repetitions(), Config->Threads);
  SchedulerOptions SO;
  SO.Pmax = Pmax;
  auto R = scheduleSwp(G, *SS, *Config, GSS, SO);
  EXPECT_TRUE(R.has_value());
  return {std::move(G), std::move(*SS), std::move(*Config), GSS,
          std::move(R->Schedule)};
}

int countOccurrences(const std::string &Haystack, const std::string &Needle) {
  int Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

TEST(CudaEmitter, SwitchPerSm) {
  Compiled C = compile(makeFig4Graph(), 4);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  EXPECT_NE(Src.find("__global__ void streamit_swp_kernel"),
            std::string::npos);
  EXPECT_NE(Src.find("switch (blockIdx.x)"), std::string::npos);
  // One case per SM (paper Section IV-C's schema).
  for (int P = 0; P < C.Schedule.Pmax; ++P)
    EXPECT_NE(Src.find("case " + std::to_string(P) + ":"),
              std::string::npos);
}

TEST(CudaEmitter, StagingPredicates) {
  Compiled C = compile(makeScalePipeline(), 2);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  // Every scheduled instance runs behind its stage predicate.
  EXPECT_GE(countOccurrences(Src, "int j = it -"),
            static_cast<int>(C.Schedule.Instances.size()));
  EXPECT_NE(Src.find("if (j >= 0"), std::string::npos);
}

TEST(CudaEmitter, DeviceWorkFunctionsPerFilter) {
  Compiled C = compile(makeFig4Graph(), 2);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  EXPECT_NE(Src.find("__device__ void work_0_A"), std::string::npos);
  EXPECT_NE(Src.find("__device__ void work_1_B"), std::string::npos);
}

TEST(CudaEmitter, ShuffledIndexMathEmitted) {
  Compiled C = compile(makeFig4Graph(), 2);
  CudaEmitOptions Opt;
  Opt.Layout = LayoutKind::Shuffled;
  std::string Src =
      emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule, Opt);
  // The Eq. 10/11 cluster arithmetic: 128 * n + (t/128)*128*rate + t%128.
  EXPECT_NE(Src.find("128L * n"), std::string::npos);
  EXPECT_NE(Src.find("(t % 128L)"), std::string::npos);
}

TEST(CudaEmitter, SequentialLayoutOmitsShuffle) {
  Compiled C = compile(makeFig4Graph(), 2);
  CudaEmitOptions Opt;
  Opt.Layout = LayoutKind::Sequential;
  std::string Src =
      emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule, Opt);
  EXPECT_EQ(Src.find("128L * n"), std::string::npos);
}

TEST(CudaEmitter, HostDriverAndLaunch) {
  Compiled C = compile(makeScalePipeline(), 2);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  EXPECT_NE(Src.find("void run_streamit_program"), std::string::npos);
  EXPECT_NE(Src.find("streamit_swp_kernel<<<grid, block>>>"),
            std::string::npos);
  EXPECT_NE(Src.find("cudaMalloc"), std::string::npos);
  EXPECT_NE(Src.find("dim3 grid(" +
                     std::to_string(C.Schedule.Pmax) + ")"),
            std::string::npos);
}

TEST(CudaEmitter, HostDriverOptional) {
  Compiled C = compile(makeScalePipeline(), 2);
  CudaEmitOptions Opt;
  Opt.EmitHostDriver = false;
  std::string Src =
      emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule, Opt);
  EXPECT_EQ(Src.find("run_streamit_program"), std::string::npos);
}

TEST(CudaEmitter, CoarseningLoopMatchesFactor) {
  Compiled C = compile(makeScalePipeline(), 2);
  CudaEmitOptions Opt;
  Opt.Coarsening = 8;
  std::string Src =
      emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule, Opt);
  EXPECT_NE(Src.find("for (int c = 0; c < 8; ++c)"), std::string::npos);
}

TEST(CudaEmitter, SplitterJoinerMoveFunctions) {
  Compiled C = compile(makeDupSplitGraph(), 2);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  EXPECT_NE(Src.find("__device__ void move_"), std::string::npos);
}

TEST(CudaEmitter, FieldConstantsEmitted) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeMovingSum("MS", 4)));
  Parts.push_back(filterStream(makeOffsetFloat("Off", 1.0)));
  Compiled C = compile(flatten(*pipelineStream(std::move(Parts))), 2);
  std::string Src = emitCudaSource(C.G, C.SS, C.Config, C.GSS, C.Schedule);
  EXPECT_NE(Src.find("__syncthreads()"), std::string::npos);
  // Balanced braces: a crude well-formedness check on the emitted text.
  EXPECT_EQ(countOccurrences(Src, "{"), countOccurrences(Src, "}"));
}
