#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rrre::common {

namespace {

thread_local bool tls_in_worker = false;

std::mutex g_global_mu;
ThreadPool* g_global_pool = nullptr;
int g_global_size = 0;  // 0 = hardware concurrency.

int ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

/// One ParallelFor invocation: workers and the caller pull chunk indices
/// from `next_chunk` until exhausted; the last finisher signals `done_cv`.
struct ThreadPool::Job {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  const std::function<void(int64_t, int64_t)>* fn = nullptr;

  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> chunks_done{0};

  std::mutex done_mu;
  std::condition_variable done_cv;

  std::mutex error_mu;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(Job& job) {
  tls_in_worker = true;
  for (;;) {
    const int64_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    const int64_t lo = job.begin + c * job.grain;
    const int64_t hi = std::min(job.end, lo + job.grain);
    try {
      (*job.fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done_cv.notify_all();
    }
  }
  tls_in_worker = false;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this]() { return shutdown_ || !jobs_.empty(); });
      if (shutdown_ && jobs_.empty()) return;
      job = jobs_.front();
      // Leave the job queued for other workers until its chunks run out;
      // drop it once exhausted so the queue does not grow stale entries.
      if (job->next_chunk.load(std::memory_order_relaxed) >= job->num_chunks) {
        jobs_.pop_front();
        continue;
      }
    }
    RunChunks(*job);
    std::lock_guard<std::mutex> lock(mu_);
    if (!jobs_.empty() && jobs_.front().get() == job.get()) {
      jobs_.pop_front();
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  RRRE_CHECK_GT(grain, 0);
  if (end <= begin) return;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial fast paths keep the exact chunk partition: a caller relying on
  // per-chunk reduction slots sees the same call sequence either way.
  if (num_threads_ == 1 || num_chunks == 1 || tls_in_worker) {
    const bool was_in_worker = tls_in_worker;
    tls_in_worker = true;
    std::exception_ptr error;
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    tls_in_worker = was_in_worker;
    if (error) std::rethrow_exception(error);
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = num_chunks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  RunChunks(*job);
  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&job]() {
      return job->chunks_done.load(std::memory_order_acquire) ==
             job->num_chunks;
    });
  }
  {
    // The job may still sit at the queue head; remove it so workers do not
    // touch a dead shared_ptr target. (They hold their own reference while
    // running, so this is purely queue hygiene.)
    std::lock_guard<std::mutex> lock(mu_);
    if (!jobs_.empty() && jobs_.front().get() == job.get()) jobs_.pop_front();
  }
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    g_global_pool = new ThreadPool(g_global_size);
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalSize(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_size = num_threads;
  if (g_global_pool != nullptr &&
      g_global_pool->size() == ResolveThreads(num_threads)) {
    return;
  }
  delete g_global_pool;
  g_global_pool = nullptr;
  g_global_pool = new ThreadPool(g_global_size);
}

int ThreadPool::GlobalSize() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool != nullptr) return g_global_pool->size();
  return ResolveThreads(g_global_size);
}

bool ThreadPool::InWorker() { return tls_in_worker; }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

void ParallelForRanges(
    const std::vector<int64_t>& sizes, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  RRRE_CHECK_GT(grain, 0);
  std::vector<std::pair<int64_t, int64_t>> chunks;  // (item, lo)
  for (size_t item = 0; item < sizes.size(); ++item) {
    for (int64_t lo = 0; lo < sizes[item]; lo += grain) {
      chunks.emplace_back(static_cast<int64_t>(item), lo);
    }
  }
  auto run = [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const auto [item, lo] = chunks[static_cast<size_t>(c)];
      fn(item, lo, std::min(sizes[static_cast<size_t>(item)], lo + grain));
    }
  };
  ParallelFor(0, static_cast<int64_t>(chunks.size()), 1, run);
}

}  // namespace rrre::common
