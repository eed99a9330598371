// Minimal fixed-size thread pool with a chunked parallel_for. The
// synchronous round executor uses it to step nodes concurrently; results
// are bit-identical to sequential execution because nodes only write
// their own state and their own outgoing channel slots, and every node's
// randomness comes from a (seed, node, round) substream.
//
// Workers have stable indices (the calling thread is always worker 0,
// pool threads are 1..num_threads-1) so callers can keep contention-free
// per-worker accumulators instead of locking a shared one per chunk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lps {

class ThreadPool {
 public:
  /// The most threads a pool runs. A larger request is a wrapped
  /// negative or a typo, not a machine, and is refused.
  static constexpr unsigned kMaxThreads = 1024;

  /// threads == 0 selects hardware_concurrency(); threads == 1 runs
  /// everything inline on the caller. Throws std::invalid_argument
  /// above kMaxThreads, before any thread starts.
  explicit ThreadPool(unsigned threads = 0);

  /// The thread count a pool built with `threads` runs: 0 resolves to
  /// hardware_concurrency() (at least 1, at most kMaxThreads). Throws
  /// std::invalid_argument when `threads` > kMaxThreads.
  static unsigned resolve_threads(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const noexcept { return num_threads_; }

  /// Calls fn(chunk_begin, chunk_end) over [begin, end) split into
  /// chunks of `grain`; blocks until all chunks complete. The calling
  /// thread participates. fn must be safe to call concurrently on
  /// disjoint ranges.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Like parallel_for, but fn additionally receives the stable index of
  /// the worker executing the chunk (0 = calling thread, 1..T-1 = pool
  /// threads). At most one chunk per worker runs at a time, so fn may
  /// mutate per-worker state indexed by that id without synchronization.
  void parallel_for_workers(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(unsigned, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(unsigned worker);

  unsigned num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned, std::size_t, std::size_t)>* job_ =
      nullptr;
  std::size_t job_end_ = 0;
  std::size_t job_grain_ = 1;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace lps
