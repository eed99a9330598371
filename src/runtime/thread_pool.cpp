#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"

namespace lps {

unsigned ThreadPool::resolve_threads(unsigned threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(threads) +
                                " threads is above the limit of " +
                                std::to_string(kMaxThreads));
  }
  if (threads != 0) return threads;
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
}

ThreadPool::ThreadPool(unsigned threads)
    : num_threads_(resolve_threads(threads)) {
  for (unsigned i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(unsigned worker) {
  // Label the thread in trace exports; registers the buffer eagerly so
  // the label survives even if recording starts mid-run.
  telemetry::Tracer::global().set_thread_label("pool-worker-" +
                                               std::to_string(worker));
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(unsigned, std::size_t, std::size_t)>* job =
        nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      ++active_;
    }
    for (;;) {
      const std::size_t start =
          next_.fetch_add(job_grain_, std::memory_order_relaxed);
      if (start >= job_end_) break;
      (*job)(worker, start, std::min(start + job_grain_, job_end_));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_workers(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(unsigned, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  if (workers_.empty() || end - begin <= grain) {
    fn(0, begin, end);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_end_ = end;
    job_grain_ = grain;
    next_.store(begin, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread participates in the same chunk queue as worker 0.
  for (;;) {
    const std::size_t start = next_.fetch_add(grain, std::memory_order_relaxed);
    if (start >= end) break;
    fn(0, start, std::min(start + grain, end));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_workers(begin, end, grain,
                       [&fn](unsigned, std::size_t b, std::size_t e) {
                         fn(b, e);
                       });
}

}  // namespace lps
