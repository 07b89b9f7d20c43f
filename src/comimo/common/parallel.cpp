#include "comimo/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "comimo/common/error.h"
#include "comimo/obs/trace.h"

namespace comimo {

namespace {
// Set for the lifetime of a worker thread; lets submit/wait_idle detect
// calls that could only deadlock.
thread_local const ThreadPool* t_current_pool = nullptr;

// Pool observability.  Job counts and queue depth depend on the worker
// count (parallel_for sizes its fan-out by pool.size()), so everything
// here is runtime domain — excluded from determinism diffs.
struct PoolObs {
  obs::Counter jobs = obs::MetricRegistry::global().counter(
      "pool.jobs", obs::Domain::kRuntime);
  obs::Counter busy_ns = obs::MetricRegistry::global().counter(
      "pool.busy_ns", obs::Domain::kRuntime);
  obs::Gauge queue_depth_max = obs::MetricRegistry::global().gauge(
      "pool.queue_depth_max", obs::Domain::kRuntime);
  obs::Histogram job_wall_s = obs::MetricRegistry::global().histogram(
      "pool.job_wall_s", obs::Domain::kRuntime);
};

PoolObs& pool_obs() {
  static PoolObs o;
  return o;
}
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

const ThreadPool* ThreadPool::current() noexcept { return t_current_pool; }

void ThreadPool::submit(std::function<void()> job) {
  COMIMO_CHECK(job != nullptr, "null job");
  if (t_current_pool == this) {
    // Every worker could end up blocked on work that can never run; the
    // silent version of this bug is a hang, so fail loudly instead.
    throw ConcurrencyError(
        "ThreadPool::submit called from one of the pool's own workers; "
        "nested submission on the same pool deadlocks — use a different "
        "pool or parallel_for (which degrades to serial inline)");
  }
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    COMIMO_CHECK(!stopping_, "submit on stopped pool");
    jobs_.push(std::move(job));
    depth = jobs_.size();
  }
  cv_job_.notify_one();
  if (obs::enabled()) {
    PoolObs& o = pool_obs();
    o.jobs.add();
    o.queue_depth_max.fold_max(static_cast<double>(depth));
  }
}

void ThreadPool::wait_idle() {
  if (t_current_pool == this) {
    throw ConcurrencyError(
        "ThreadPool::wait_idle called from one of the pool's own workers; "
        "the wait could never be satisfied");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return jobs_.empty() && in_flight_ == 0; });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_job_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (stopping_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
      ++in_flight_;
    }
    if (obs::enabled()) {
      // Busy time feeds the worker-utilization ratio: utilization =
      // pool.busy_ns / (workers × wall).  Integer nanosecond adds are
      // commutative, so the total is exact for any interleaving.
      const std::int64_t t0 = obs::now_ns();
      {
        const obs::SpanTimer span("pool.job", pool_obs().job_wall_s);
        job();
      }
      pool_obs().busy_ns.add(
          static_cast<std::uint64_t>(obs::now_ns() - t0));
    } else {
      job();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (jobs_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::shared(), n, body);
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(pool, n, 1,
                      [&body](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

void parallel_for_chunks(
    std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(ThreadPool::shared(), n, min_chunk, body);
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  min_chunk = std::max<std::size_t>(1, min_chunk);
  const std::size_t workers = pool.size();
  // One chunk per worker unless min_chunk forces fewer; a serial fallback
  // avoids pool overhead for tiny ranges or single-core machines, and is
  // mandatory when the caller is already one of this pool's workers
  // (nested fan-out could never be scheduled).
  const std::size_t chunks =
      std::min({workers, (n + min_chunk - 1) / min_chunk});
  if (chunks <= 1 || ThreadPool::current() == &pool) {
    body(0, n);
    return;
  }

  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::size_t begin = 0;
  // Guarded by done_mutex.  A worker's last touch of this frame is the
  // unlock after its decrement, so the caller, which must take the same
  // mutex to see zero, can never return while a worker still uses it.
  std::size_t remaining = chunks;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t end = begin + len;
    pool.submit([&, begin, end] {
      try {
        if (!failed.load(std::memory_order_relaxed)) body(begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
    begin = end;
  }

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (failed.load() && first_error) std::rethrow_exception(first_error);
}

}  // namespace comimo
