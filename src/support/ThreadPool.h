//===- support/ThreadPool.h - Worker pool for solver parallelism -*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool shared by the parallel layers of the
/// scheduling engine: the II search evaluates a window of candidate IIs
/// on one, and the profiler sweeps filters×configs cells on one. Tasks are
/// plain std::function thunks; wait() gives a barrier so callers can use
/// the pool as a scoped fork/join region. Worker counts resolve through
/// resolveWorkerCount(): an explicit request wins, then the SGPU_JOBS
/// environment variable, then std::thread::hardware_concurrency().
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_SUPPORT_THREADPOOL_H
#define SGPU_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sgpu {

/// Resolves a requested worker count to a concrete positive number:
/// \p Requested > 0 is taken as-is; 0 consults the SGPU_JOBS environment
/// variable and falls back to hardware_concurrency(); the result is
/// always >= 1.
int resolveWorkerCount(int Requested);

/// Fixed-size pool of worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (resolved via resolveWorkerCount, so 0
  /// means "auto"). A pool of size 1 still spawns one worker thread so
  /// submit() never runs tasks inline.
  explicit ThreadPool(int NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution by some worker.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished. The pool is
  /// reusable afterwards.
  void wait();

  int numThreads() const { return static_cast<int>(Workers.size()); }

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Tasks;
  mutable std::mutex Mu;
  std::condition_variable WorkCv;  ///< Signals workers: task or shutdown.
  std::condition_variable IdleCv;  ///< Signals wait(): queue drained.
  int Active = 0;                  ///< Tasks currently executing.
  bool ShuttingDown = false;
};

/// Runs Fn(I) for every I in [Begin, End) with up to \p Jobs concurrent
/// workers (resolved via resolveWorkerCount). Jobs == 1 (or a range of
/// at most one element) runs inline without spawning threads. Blocks
/// until the whole range is done. Fn must be safe to call concurrently
/// for distinct indices.
void parallelFor(int Begin, int End, int Jobs,
                 const std::function<void(int)> &Fn);

} // namespace sgpu

#endif // SGPU_SUPPORT_THREADPOOL_H
