// Fork/lifetime discipline of the driver's multi-process transport
// (the daemon-grade contract of mc/sharded.h):
//
//   1. forking while other threads hammer the obs registry (gauges,
//      histograms) and while the parent thread pool has been busy must
//      never deadlock the child — the parent quiesces the pool and
//      holds the registry's ForkGuard across fork(), so no child ever
//      inherits a mutex locked by a thread it doesn't have;
//   2. a shard worker killed by a signal mid-run surfaces as
//      ShardWorkerError — a *recoverable* exception after every worker
//      is reaped — never an abort, never a zombie;
//   3. the surviving process keeps working: the same sharded call
//      succeeds afterwards and stays bit-identical to the serial run.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/mc/engine.h"
#include "comimo/mc/sharded.h"
#include "comimo/obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define COMIMO_TEST_HAS_FORK 1
#include <csignal>
#include <unistd.h>
#else
#define COMIMO_TEST_HAS_FORK 0
#endif

namespace comimo {
namespace {

void noisy_trial(std::size_t t, Rng& rng, McAccumulator& acc) {
  acc.count("trials");
  if (rng.bernoulli(0.25)) acc.count("hits");
  acc.observe("x", rng.complex_gaussian().real());
  acc.observe("t", static_cast<double>(t));
}

TEST(ForkSafety, ForkUnderActiveObsTrafficCompletes) {
#if !COMIMO_TEST_HAS_FORK
  GTEST_SKIP() << "fork() not available";
#else
  // Reference result, computed serially before any obs noise.
  McConfig cfg;
  cfg.seed = 77;
  ThreadPool serial_pool(1);
  cfg.pool = &serial_pool;
  const McResult ref = run_trials(4000, cfg, noisy_trial);

  obs::set_enabled(true);
  std::atomic<bool> stop{false};
  // Hammer the registry from several threads: gauge sets (per-cell
  // mutexes), histogram observes (registry mutex via the default
  // shard), and fresh registrations (registry mutex + vector growth).
  // Any of these mutexes inherited locked by a forked child would
  // deadlock its first obs call; the ForkGuard makes that impossible.
  std::vector<std::thread> hammers;
  for (int h = 0; h < 4; ++h) {
    hammers.emplace_back([&stop, h] {
      auto gauge = obs::MetricRegistry::global().gauge(
          "fork_test.gauge_" + std::to_string(h), obs::Domain::kRuntime);
      auto histo = obs::MetricRegistry::global().histogram(
          "fork_test.histo_" + std::to_string(h), obs::Domain::kRuntime);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        gauge.set(static_cast<double>(i));
        histo.observe(static_cast<double>(i % 97));
        ++i;
      }
    });
  }

  // Also keep the shared pool warm so quiesce_for_fork has real work
  // to drain.
  ThreadPool pool(4);
  McConfig forked = cfg;
  forked.pool = &pool;
  forked.shards = 3;
  forked.fork = true;
  for (int round = 0; round < 5; ++round) {
    const McResult run = run_trials(4000, forked, noisy_trial);
    EXPECT_EQ(run.acc.counter("trials"), ref.acc.counter("trials"));
    EXPECT_EQ(run.acc.counter("hits"), ref.acc.counter("hits"));
    EXPECT_EQ(run.acc.stat("x").mean(), ref.acc.stat("x").mean());
    EXPECT_EQ(run.acc.stat("x").variance(), ref.acc.stat("x").variance());
  }

  stop.store(true);
  for (auto& t : hammers) t.join();
  obs::set_enabled(false);
#endif
}

TEST(ForkSafety, KilledShardWorkerIsRecoverable) {
#if !COMIMO_TEST_HAS_FORK
  GTEST_SKIP() << "fork() not available";
#else
  const pid_t parent = ::getpid();
  // 2000 trials -> chunk size 1 -> 2000 chunks; shard 1 of 2 owns
  // chunks [1000, 2000).  The trial SIGKILLs itself at trial 1500, but
  // only when running in a forked worker — the parent must never die.
  const auto killer = [parent](std::size_t t, Rng& rng, McAccumulator& acc) {
    if (t == 1500 && ::getpid() != parent) {
      ::raise(SIGKILL);
    }
    noisy_trial(t, rng, acc);
  };

  ThreadPool pool(2);
  McConfig cfg;
  cfg.seed = 5;
  cfg.pool = &pool;
  cfg.shards = 2;
  cfg.fork = true;
  EXPECT_THROW((void)run_trials(2000, cfg, killer), ShardWorkerError);

  // Recoverable means the process is still healthy: the same run
  // without the kill completes and matches the serial reduction.
  const McResult ok = run_trials(2000, cfg, noisy_trial);
  ThreadPool serial_pool(1);
  McConfig serial = cfg;
  serial.pool = &serial_pool;
  serial.shards = 1;
  const McResult ref = run_trials(2000, serial, noisy_trial);
  EXPECT_EQ(ok.acc.counter("hits"), ref.acc.counter("hits"));
  EXPECT_EQ(ok.acc.stat("x").mean(), ref.acc.stat("x").mean());
#endif
}

TEST(ForkSafety, WorkerAbortReportsExitStatus) {
#if !COMIMO_TEST_HAS_FORK
  GTEST_SKIP() << "fork() not available";
#else
  const pid_t parent = ::getpid();
  // A worker whose trial throws exits with status 1 (the worker's
  // catch-all) — the driver classifies that as a worker failure too.
  const auto thrower = [parent](std::size_t t, Rng&, McAccumulator& acc) {
    if (t == 100 && ::getpid() != parent) {
      throw NumericError("boom in worker");
    }
    acc.count("trials");
  };
  ThreadPool pool(1);
  McConfig cfg;
  cfg.pool = &pool;
  cfg.shards = 2;
  cfg.fork = true;
  EXPECT_THROW((void)run_trials(400, cfg, thrower), ShardWorkerError);
#endif
}

TEST(ForkSafety, SequentialFallbackMatchesForkedRun) {
  ThreadPool pool(2);
  McConfig forked;
  forked.seed = 99;
  forked.pool = &pool;
  forked.shards = 3;
  forked.fork = true;
  McConfig inproc = forked;
  inproc.fork = false;
  const McResult a = run_trials(3000, forked, noisy_trial);
  const McResult b = run_trials(3000, inproc, noisy_trial);
  EXPECT_EQ(a.acc.counter("hits"), b.acc.counter("hits"));
  EXPECT_EQ(a.acc.stat("x").mean(), b.acc.stat("x").mean());
  EXPECT_EQ(a.acc.stat("x").variance(), b.acc.stat("x").variance());
}

}  // namespace
}  // namespace comimo
