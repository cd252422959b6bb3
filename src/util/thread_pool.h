// Fixed-size thread pool. Its users: the engine cluster (modelled cluster
// workers), graph::InducedSubgraph (parallel residual compaction),
// graph::CompressedGraphView::Materialize (parallel block decode, on the
// detection pool when detect::DetectFriendSpammersCompressed reads a
// snapshot),
// stream::DeltaGraph compaction, the detect::MaarSolver (k × init) sweep,
// and serve::AdmissionService's detection pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rejecto::util {

// std::thread::hardware_concurrency() clamped to >= 1 (the standard allows
// it to return 0 when the count is unknowable).
std::size_t HardwareThreads() noexcept;

// The most threads any configured pool may ask for: REJECTO_THREADS,
// detect::EffectiveThreads and ClusterConfig::num_workers refuse larger
// values before a thread starts.
inline constexpr int kMaxThreads = 256;

class ThreadPool {
 public:
  // Precondition: num_threads > 0.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Drains the queued tasks and joins all workers. Idempotent; called by
  // the destructor. After Shutdown, Submit/ParallelFor throw.
  void Shutdown();

  // Enqueues a task; the returned future observes its result or exception.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        throw std::runtime_error("ThreadPool::Submit after shutdown");
      }
      tasks_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Runs fn(i) for i in [0, n), partitioned into size() contiguous blocks.
  // n == 0 returns immediately without touching the queue. Blocks until all
  // iterations complete; when several blocks throw, the exception from the
  // lowest-indexed block is rethrown (deterministic regardless of worker
  // scheduling — every block runs to completion before the rethrow).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Same partition, but fn also receives the index b of the contiguous block
  // the iteration belongs to (b < min(n, size())). Each block runs as exactly
  // one task, so callers may keep unsynchronized per-block state (e.g. one
  // reusable decode buffer per block) indexed by b.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

}  // namespace rejecto::util
