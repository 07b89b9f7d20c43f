// Explicit, deterministic parallelism for Monte-Carlo sweeps.
//
// Following the HPC guides' discipline (all parallelism explicit, results
// independent of the worker count), parallel_for hands out *index ranges*
// and callers derive any randomness from the index via counter-based
// seeding (see numeric/rng.h), so a sweep produces bit-identical results
// on 1 or N threads.  The mc/ engine layers a fixed-sharding reduction on
// top of these primitives.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace comimo {

/// A fixed-size pool of worker threads executing enqueued jobs.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job.  Calling submit from one of this pool's own workers
  /// would deadlock once every worker blocks on work that can never be
  /// scheduled, so it throws ConcurrencyError instead of hanging; use
  /// the parallel_for helpers, which degrade to serial execution when
  /// already on a worker.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished.  Throws
  /// ConcurrencyError when called from one of this pool's own workers
  /// (the wait could never be satisfied).
  void wait_idle();

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// The pool whose worker is running the calling thread, or nullptr
  /// when the caller is not a pool worker.
  [[nodiscard]] static const ThreadPool* current() noexcept;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, n) across the shared pool.  `body` must be
/// safe to call concurrently for distinct indices.  Exceptions thrown by
/// `body` are rethrown (the first one) after all iterations settle.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Same, on an explicit pool (tests run the same sweep on pools of
/// different sizes to assert thread-count invariance).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Chunked variant: body(begin, end) over a partition of [0, n).
void parallel_for_chunks(
    std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Chunked variant on an explicit pool.  When called from one of the
/// pool's own workers the range runs serially inline (nested fan-out on
/// the same pool cannot be scheduled), so nested parallel code is safe —
/// merely not extra-parallel.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace comimo
