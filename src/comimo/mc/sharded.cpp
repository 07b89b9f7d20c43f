#include "comimo/mc/sharded.h"

#include <cerrno>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define COMIMO_HAS_FORK 1
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define COMIMO_HAS_FORK 0
#endif

namespace comimo::detail {

namespace {

#if COMIMO_HAS_FORK

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE (parent died mid-read, SIGPIPE ignored in workers) and
      // every other write failure surface as an exception the worker's
      // catch-all turns into a clean _exit(1) — never a signal death.
      throw NumericError("shard worker: pipe write failed");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> read_until_eof(int fd) {
  std::vector<std::uint8_t> buf;
  std::uint8_t tmp[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NumericError("shard driver: pipe read failed");
    }
    if (n == 0) break;
    buf.insert(buf.end(), tmp, tmp + n);
  }
  return buf;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  COMIMO_CHECK(pos + 8 <= in.size(), "truncated shard wire image");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

#endif  // COMIMO_HAS_FORK

}  // namespace

std::vector<McAccumulator> run_sharded(std::size_t lo, std::size_t hi,
                                       std::size_t shards, bool fork,
                                       ThreadPool& pool,
                                       const ChunkRunner& run) {
  const std::size_t n = hi - lo;
  const auto slice_lo = [&](std::size_t s) { return lo + n * s / shards; };
  // Contiguous slices visited in shard order arrive already sorted by
  // global chunk ordinal.
  std::vector<McAccumulator> accs;
  accs.reserve(n);
#if COMIMO_HAS_FORK
  if (fork) {
    struct Worker {
      pid_t pid = -1;
      int read_fd = -1;
    };
    std::vector<Worker> workers;
    workers.reserve(shards);

    // Reap-everything cleanup for a failed spawn loop: no zombies, no
    // leaked pipe fds, regardless of where pipe()/fork() failed.
    const auto kill_and_reap_all = [&workers]() noexcept {
      for (const Worker& w : workers) {
        if (w.read_fd >= 0) ::close(w.read_fd);
        if (w.pid > 0) {
          ::kill(w.pid, SIGKILL);
          int status = 0;
          pid_t waited = -1;
          do {
            waited = ::waitpid(w.pid, &status, 0);
          } while (waited < 0 && errno == EINTR);
        }
      }
      workers.clear();
    };

    {
      // Hold-and-fork: quiesce the parent's pool and serialize the obs
      // registry (registry mutex + every gauge cell) across the whole
      // fork loop.  Any of those mutexes held by a *live parent thread*
      // at fork() would be locked forever in the child — the child's
      // first obs gauge set or histogram fold would deadlock.  Holding
      // them ourselves puts them in a known state the child releases
      // explicitly below.
      std::unique_lock<std::mutex> pool_lock = pool.quiesce_for_fork();
      obs::MetricRegistry::ForkGuard obs_guard(
          obs::MetricRegistry::global());
      for (std::size_t s = 0; s < shards; ++s) {
        int fds[2];
        if (::pipe(fds) != 0) {
          kill_and_reap_all();
          throw NumericError("shard driver: pipe failed");
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
          ::close(fds[0]);
          ::close(fds[1]);
          kill_and_reap_all();
          throw NumericError("shard driver: fork failed");
        }
        if (pid == 0) {
          // Worker process: a single-threaded copy of the forking
          // thread.  Release the inherited hold-and-fork locks (legal:
          // this thread is the one that took them), then ignore
          // SIGPIPE so a dead parent turns pipe writes into EPIPE —
          // handled as a clean _exit(1), never a signal death the
          // parent would have to treat as a crash.
          pool_lock.unlock();
          obs_guard.unlock_in_child();
          ::signal(SIGPIPE, SIG_IGN);
          // Run this shard's slice and ship the per-chunk accumulators
          // back.  _exit skips static destructors — the parent owns
          // the process state.
          ::close(fds[0]);
          int status = 0;
          try {
            // Never create threads after fork(): a parent thread can
            // hold a runtime-internal lock (allocator, sanitizer thread
            // registry) at the fork instant, and a child pthread_create
            // deadlocks on the inherited copy.  The inline pool runs
            // the slice's chunks serially on this (only) thread — the
            // chunk partition and fold order are pool-size invariant,
            // so the bits cannot change.
            ThreadPool child_pool{ThreadPool::Inline{}};
            const std::size_t first = slice_lo(s);
            const std::vector<McAccumulator> part =
                run(first, slice_lo(s + 1), child_pool);
            std::vector<std::uint8_t> buf;
            put_u64(buf, part.size());
            for (std::size_t c = 0; c < part.size(); ++c) {
              put_u64(buf, first + c);
              part[c].serialize(buf);
            }
            write_all(fds[1], buf.data(), buf.size());
          } catch (...) {
            status = 1;
          }
          ::close(fds[1]);
          ::_exit(status);
        }
        ::close(fds[1]);
        workers.push_back(Worker{pid, fds[0]});
      }
    }  // parent releases the pool lock + obs guard; children run free

    // Drain and reap EVERY worker before judging any of them: a failed
    // worker must not leave zombies or open pipes behind the exception.
    std::vector<std::vector<std::uint8_t>> bufs(workers.size());
    std::vector<bool> read_ok(workers.size(), true);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      try {
        bufs[i] = read_until_eof(workers[i].read_fd);
      } catch (...) {
        read_ok[i] = false;
      }
      ::close(workers[i].read_fd);
    }
    std::string failure;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      int status = 0;
      pid_t waited = -1;
      do {
        waited = ::waitpid(workers[i].pid, &status, 0);
      } while (waited < 0 && errno == EINTR);
      std::string worker_failure;
      if (waited != workers[i].pid) {
        worker_failure = "waitpid failed";
      } else if (WIFSIGNALED(status)) {
        worker_failure =
            "killed by signal " + std::to_string(WTERMSIG(status));
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        worker_failure =
            "exited with status " +
            std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      } else if (!read_ok[i]) {
        worker_failure = "pipe read failed";
      } else {
        try {
          // The image must hold exactly this worker's slice, in
          // ascending ordinal: no gap, no overlap with its neighbours.
          const std::size_t first = slice_lo(i);
          const std::size_t count = slice_lo(i + 1) - first;
          std::size_t pos = 0;
          COMIMO_CHECK(get_u64(bufs[i], pos) == count,
                       "chunk count differs from the worker's slice");
          std::vector<McAccumulator> parsed;
          parsed.reserve(count);
          for (std::size_t c = 0; c < count; ++c) {
            COMIMO_CHECK(get_u64(bufs[i], pos) == first + c,
                         "chunk ordinal outside the worker's slice");
            parsed.push_back(McAccumulator::deserialize(bufs[i], pos));
          }
          COMIMO_CHECK(pos == bufs[i].size(),
                       "trailing bytes in shard wire image");
          for (McAccumulator& acc : parsed) accs.push_back(std::move(acc));
        } catch (const std::exception& e) {
          // A worker that died mid-write (or wrote garbage) produces a
          // truncated image; that is a worker failure, not a
          // process-fatal contract violation.
          worker_failure = std::string("malformed wire image (") +
                           e.what() + ")";
        }
      }
      if (!worker_failure.empty() && failure.empty()) {
        failure =
            "shard worker " + std::to_string(i) + ": " + worker_failure;
      }
    }
    if (!failure.empty()) throw ShardWorkerError(failure);
    return accs;
  }
#else
  (void)fork;
#endif  // COMIMO_HAS_FORK
  // In-process: the same slices, one after another on this process's
  // pool.  Same chunk partition, same fold order, same bits.
  for (std::size_t s = 0; s < shards; ++s) {
    for (McAccumulator& acc : run(slice_lo(s), slice_lo(s + 1), pool)) {
      accs.push_back(std::move(acc));
    }
  }
  return accs;
}

}  // namespace comimo::detail
