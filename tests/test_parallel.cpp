#include "comimo/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "comimo/common/error.h"

namespace comimo {
namespace {

TEST(ThreadPool, ExecutesAllJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, RejectsNullJob) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), InvalidArgument);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 50) throw NumericError("boom");
                   }),
      NumericError);
}

TEST(ParallelForChunks, PartitionIsContiguous) {
  const std::size_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(n, 10, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(begin, end);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunks, ManyTinyCallsFromConcurrentCallersOnOneSmallPool) {
  // Regression: the last worker of a call used to publish completion
  // before locking the caller's stack-local mutex, so the caller could
  // return and destroy it first.  Tiny calls from several callers on one
  // pool hit that window often: ThreadSanitizer reported it on every
  // run, while a plain build only crashed now and then.
  ThreadPool pool(2);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCalls = 20000;
  std::atomic<std::size_t> covered{0};
  const auto body = [&covered](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  };
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        parallel_for_chunks(pool, 2, 1, body);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(covered.load(), kCallers * kCalls * 2);
}

TEST(ThreadPool, CurrentIsNullOffWorkers) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  const ThreadPool* seen = nullptr;
  pool.submit([&seen] { seen = ThreadPool::current(); });
  pool.wait_idle();
  EXPECT_EQ(seen, &pool);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, NestedSubmitThrowsConcurrencyError) {
  // submit() from a worker of the same pool would deadlock once every
  // worker blocks on work that can never be scheduled — it must throw
  // instead of hanging.  (Regression: this used to deadlock.)
  ThreadPool pool(1);
  bool threw = false;
  pool.submit([&] {
    try {
      pool.submit([] {});
    } catch (const ConcurrencyError&) {
      threw = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(threw);
}

TEST(ThreadPool, NestedWaitIdleThrowsConcurrencyError) {
  ThreadPool pool(1);
  bool threw = false;
  pool.submit([&] {
    try {
      pool.wait_idle();
    } catch (const ConcurrencyError&) {
      threw = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(threw);
}

TEST(ThreadPool, SubmitToAnotherPoolFromWorkerIsFine) {
  // Only same-pool nesting is a deadlock; fanning out to a *different*
  // pool is legal.
  ThreadPool outer(1);
  ThreadPool inner(1);
  std::atomic<int> ran{0};
  outer.submit([&] {
    inner.submit([&ran] { ran.fetch_add(1); });
    inner.wait_idle();
  });
  outer.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, NestedOnSamePoolRunsInlineSerially) {
  // parallel_for from a worker of the same pool degrades to serial
  // inline execution instead of throwing — nested parallel code is
  // safe, merely not extra-parallel.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 4, [&](std::size_t) {
    parallel_for(pool, 25, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, DeterministicResultRegardlessOfThreads) {
  // Index-derived work gives the same result on any worker count.
  const std::size_t n = 500;
  std::vector<double> out(n, 0.0);
  parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 1.5;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 1.5 * (n - 1) * n / 2.0);
}

}  // namespace
}  // namespace comimo
