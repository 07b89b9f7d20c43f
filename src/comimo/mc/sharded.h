// Multi-process transport for the Monte-Carlo driver (mc/engine.h).
//
// run_mc already makes the reduction a pure function of the global
// chunk partition: chunk accumulators fold in ascending chunk ordinal,
// never in scheduling order.  This transport extends that algebra from
// threads to processes.  With McConfig::shards = K > 1, each round's
// chunk window is cut into K contiguous slices; each worker process
// executes one slice of the *global* partition (the partition itself
// never changes), ships its per-chunk accumulators back over a pipe as
// bit-exact wire images (mc/accumulator.h), and the parent returns
// every chunk in ascending global ordinal for the driver to fold.
// Per-chunk transport matters: the Welford merge is not associative
// bitwise, so folding pre-reduced per-shard partials would drift by
// ulps — folding the original chunk sequence reproduces the
// single-process reduction exactly, which is what makes a `--shards K`
// bench envelope byte-identical to `--shards 1`.
//
// Fork workers are POSIX-only; McConfig::fork = false (and non-POSIX
// builds) run the slices sequentially in-process — same chunk algebra,
// same bits, no isolation.  Worker processes never touch the
// parent's thread pool (its workers do not survive fork); each child
// runs its slice inline on its only thread (ThreadPool::Inline).
//
// Process-lifetime discipline (the daemon-grade contract):
//   * forks are serialized against live threads: the parent quiesces
//     its pool (ThreadPool::quiesce_for_fork) and holds the obs
//     registry's fork guard across every fork(), so a child can never
//     inherit one of those mutexes locked by a thread that does not
//     exist in the child — the classic fork/threads deadlock;
//   * workers ignore SIGPIPE: a parent that dies mid-read turns the
//     worker's pipe writes into EPIPE, which exits the worker with
//     _exit(1) instead of a process-killing signal;
//   * worker failure is recoverable: every worker is read, reaped, and
//     closed before the driver throws ShardWorkerError — never a
//     COMIMO_CHECK abort — so a long-lived caller survives a bad job.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "comimo/common/parallel.h"
#include "comimo/mc/accumulator.h"

namespace comimo {

/// A shard worker process failed (non-zero exit, killed by a signal, or
/// a malformed wire image from a worker that died mid-write).  This is
/// a *recoverable* per-run error, not a process-fatal contract
/// violation: every worker is reaped and every pipe closed before it is
/// thrown, so a long-lived caller (the service daemon) can fail the one
/// job and keep serving.
class ShardWorkerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Executes chunks [lo, hi) of a run's global partition on `pool` and
/// returns one accumulator per chunk, in ascending ordinal.
using ChunkRunner = std::function<std::vector<McAccumulator>(
    std::size_t lo, std::size_t hi, ThreadPool& pool)>;

/// One round of run_mc across `shards` slices of the chunk window
/// [lo, hi): slice s is [lo + n·s/shards, lo + n·(s+1)/shards) with
/// n = hi − lo, executed by `run` in a forked worker (on an inline pool)
/// or, without `fork`, in this process on `pool`.  Returns the window's
/// per-chunk accumulators in ascending ordinal; throws ShardWorkerError
/// when a worker fails or returns chunks other than its slice.
[[nodiscard]] std::vector<McAccumulator> run_sharded(
    std::size_t lo, std::size_t hi, std::size_t shards, bool fork,
    ThreadPool& pool, const ChunkRunner& run);

}  // namespace detail

}  // namespace comimo
