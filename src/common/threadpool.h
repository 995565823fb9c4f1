#ifndef RRRE_COMMON_THREADPOOL_H_
#define RRRE_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rrre::common {

/// Fixed-size worker pool with a blocking ParallelFor primitive.
///
/// Determinism contract: ParallelFor splits [begin, end) into chunks of
/// `grain` consecutive indices — chunk c is [begin + c*grain,
/// min(end, begin + (c+1)*grain)) — and invokes `fn(chunk_begin, chunk_end)`
/// exactly once per chunk. The chunk *partition* depends only on (begin, end,
/// grain), never on the pool size or scheduling, so a caller that keeps all
/// cross-chunk state in per-chunk slots and combines them in chunk order gets
/// bitwise-identical results for any thread count, including fully serial
/// execution (size() == 1).
///
/// Nested calls (ParallelFor from inside a ParallelFor task) run inline on
/// the calling thread, chunk by chunk in order — the partition is unchanged,
/// only the scheduling degrades to serial.
///
/// Exceptions thrown by `fn` are captured; the first one (in chunk order of
/// observation) is rethrown on the calling thread after all chunks finish.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread: N means N-1 workers plus the
  /// caller, 1 means no workers (everything inline), 0 means hardware
  /// concurrency.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in ParallelFor (workers + caller).
  int size() const { return num_threads_; }

  /// Invokes fn(chunk_begin, chunk_end) for every grain-sized chunk of
  /// [begin, end). Blocks until all chunks are done. grain must be > 0.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// The process-wide pool used by the tensor kernels and trainers. Created
  /// on first use with SetGlobalSize's value (default: hardware concurrency).
  static ThreadPool& Global();

  /// Resizes the global pool (joins the old one). Only call while no
  /// ParallelFor is in flight. 0 = hardware concurrency.
  static void SetGlobalSize(int num_threads);

  /// Size the global pool has (or would be created with).
  static int GlobalSize();

  /// True while the current thread is executing a ParallelFor task; used to
  /// run nested calls inline.
  static bool InWorker();

 private:
  struct Job;

  void WorkerLoop();
  /// Runs chunks of `job` until none are left; returns after contributing.
  static void RunChunks(Job& job);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
};

/// Convenience wrapper over ThreadPool::Global().ParallelFor.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// ParallelFor over several index ranges at once: invokes fn(item, lo, hi)
/// for every grain-sized chunk [lo, hi) of each item's range
/// [0, sizes[item]), the chunks of all items spread over the global pool.
/// Chunk c of an item is [c*grain, min(size, (c+1)*grain)), so the partition
/// depends only on (sizes, grain); an empty item has no chunk. Used to run
/// one pass over a list of tensors, such as an optimizer step over every
/// parameter.
void ParallelForRanges(
    const std::vector<int64_t>& sizes, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn);

}  // namespace rrre::common

#endif  // RRRE_COMMON_THREADPOOL_H_
