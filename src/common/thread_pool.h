#ifndef DSKG_COMMON_THREAD_POOL_H_
#define DSKG_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// A fixed-size, work-stealing-free thread pool for DSKG's parallel paths:
/// sharded graph traversal, batch-parallel query execution in the
/// workload runner, dataset generation, parallel bulk load, the wire
/// server's request workers, and the online store's shard appliers (one
/// pool per store, `num_shards - 1` workers beside the calling thread).
///
/// Design notes:
///
///   * Workers pull from one FIFO queue under a mutex. DSKG's parallel
///     units (one traversal slice, one query of a batch, one store
///     shard's share of an update batch) are coarse, so queue contention
///     is negligible and the simplicity pays for itself.
///     There is deliberately no work stealing: execution order and result
///     merging stay deterministic because callers collect results by
///     submission index, never by completion order.
///   * `Submit` returns a `std::future`, so exceptions thrown by a task
///     surface at `get()` in the caller, not in the worker.
///   * Shutdown is cooperative: the destructor drains already-queued
///     tasks, then joins all workers.
///
/// The pool is shared-nothing with respect to *task state*: tasks must not
/// share mutable data unless that data is itself thread-safe (see the
/// atomic `CostMeter`). The runner, the traversal matcher and the online
/// store uphold this by giving every shard/query its own meter and output
/// and merging them in deterministic order afterwards.

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dskg {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks, then joins all workers.
  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency() may
  /// legally return 0).
  static size_t DefaultThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<size_t>(n);
  }

  /// Enqueues `fn` and returns a future for its result. An exception
  /// thrown by `fn` is captured and rethrown by `future::get()`.
  template <typename F>
  std::future<std::invoke_result_t<F>> Submit(F fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs `fn(i)` for every i in [0, n) on the pool and blocks until all
  /// complete. The calling thread also executes tasks while it waits, so
  /// `ParallelFor` may be used from a pool of any size without deadlock.
  /// If any invocation throws, the exception of the smallest such index
  /// is rethrown (deterministic regardless of scheduling).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(Submit([&fn, i] { fn(i); }));
    }
    HelpAndWait(&futures);
  }

  /// Runs `fn(begin, end)` over [0, n) in contiguous chunks of at most
  /// `grain` indices each, blocking until all chunks complete. One task is
  /// submitted per *chunk*, not per index, so tight per-element loops pay
  /// one std::function dispatch per `grain` elements instead of one per
  /// element. Chunk boundaries depend only on (n, grain) — never on the
  /// worker count — so any per-chunk state a caller derives (RNG streams,
  /// output slabs) is identical at every thread count. Like `ParallelFor`,
  /// the calling thread helps while it waits (nesting-safe) and the
  /// exception of the smallest-index failing chunk is rethrown.
  void ParallelForChunked(size_t n, size_t grain,
                          const std::function<void(size_t, size_t)>& fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const size_t chunks = (n + grain - 1) / grain;
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * grain;
      const size_t end = begin + grain < n ? begin + grain : n;
      futures.push_back(Submit([&fn, begin, end] { fn(begin, end); }));
    }
    HelpAndWait(&futures);
  }

 private:
  /// Blocks until every future is ready, executing queued tasks inline on
  /// the calling thread while waiting, then rethrows the exception of the
  /// smallest failing index (deterministic regardless of scheduling).
  void HelpAndWait(std::vector<std::future<void>>* futures) {
    for (std::future<void>& f : *futures) {
      while (f.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        if (!RunOneTask()) {
          f.wait();
          break;
        }
      }
    }
    for (std::future<void>& f : *futures) f.get();
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  /// Pops and runs one queued task on the calling thread. Returns false
  /// if the queue was empty.
  bool RunOneTask() {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) return false;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    return true;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dskg

#endif  // DSKG_COMMON_THREAD_POOL_H_
