// Service jobs: the parsed request, the shared caches, and the
// deterministic executor.
//
// A job is (kind, sorted key=value params) plus the session seed.  Its
// result is a *pure function* of exactly those inputs — the replay
// contract the daemon advertises: the same session seed and request
// sequence produce byte-identical kResult payloads whatever the
// service-worker count, the engine thread count, concurrent sessions,
// or reconnects in between.  Three design points make that hold:
//
//   * every randomized job derives its effective engine seed as
//     mix_seed(session_seed, job's own seed param) — a SplitMix64
//     expansion, so per-session streams are independent without the
//     client having to namespace seeds itself;
//   * jobs run on the mc/ engine, whose results are bit-identical at
//     any thread/shard count by construction;
//   * the kResult envelope is comimo-bench-v1 *minus the two clock
//     fields* (timestamp_unix_s, wall_s) — a deliberate, documented
//     deviation: a streamed reply that must be byte-replayable cannot
//     carry wall-clock state.  The committed BENCH_service_load.json
//     written by the load generator keeps the full schema.
//
// Integer params are plain decimal digits: a sign, an overflow or a
// value the destination type cannot hold is an InvalidArgument, never a
// wrapped count.  Real params must be finite: "inf", "nan" and literals
// that overflow a double are an InvalidArgument too.
//
// Job kinds:
//   ping          -> {ok: 1}                       (liveness / ordering)
//   ebbar_min     -> min-ē_b constellation from the daemon's cached
//                    EbBarTable; params p (BER target), mt, mr
//   waveform_ber  -> one Monte-Carlo waveform BER point; params b, mt,
//                    mr, blocks, gamma_b_db, seed, shards (slices per
//                    chunk round, McConfig::shards; results equal
//                    shards=1, and at most one slice per chunk runs),
//                    target_ci (> 0 stops at that relative CI, with
//                    blocks as the budget), and is, is_scale, is_chan
//                    (importance sampling; is=1 requires target_ci > 0)
//   net_churn     -> build a random CoMIMONet and run kill waves
//                    through the incremental re-clustering; params
//                    nodes, rounds, kill_per_round, seed
//   stall_ms      -> sleep; params ms (capped) — the deterministic
//                    queue-filler behind the backpressure tests
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "comimo/common/bench_json.h"
#include "comimo/energy/ebbar_table.h"

namespace comimo {
class ThreadPool;
}  // namespace comimo

namespace comimo::service {

/// Parses newline-separated "key=value" lines (blank lines ignored).
/// Throws InvalidArgument on a malformed line or a duplicate key.
[[nodiscard]] std::map<std::string, std::string> parse_kv_text(
    std::string_view text);

/// Effective engine seed for (session, job): a SplitMix64 expansion of
/// the pair, so distinct sessions running the same job spec draw
/// independent streams while a fixed pair is always the same stream.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t session_seed,
                                     std::uint64_t job_seed) noexcept;

struct JobSpec {
  std::string kind;
  /// Sorted (std::map) — the canonical param order used everywhere the
  /// spec is serialized, including the kResult envelope.
  std::map<std::string, std::string> params;

  /// Parses a request body: a "kind=<name>" line plus free-form params.
  /// Throws InvalidArgument when kind is missing or a line is bad.
  [[nodiscard]] static JobSpec parse(std::string_view text);
  [[nodiscard]] std::string serialize() const;
};

/// The daemon-lifetime caches every worker shares: the ē_b table (built
/// once, lazily, under a mutex — the expensive preprocessing step the
/// long-lived service exists to amortize).  Engine workspaces need no
/// cache entry here: measure_waveform_ber keeps one HopBatchWorkspace
/// per pool worker in thread_local storage, and the daemon's per-worker
/// ThreadPools live as long as the daemon, so those arenas persist
/// across jobs for free.
class JobRuntime {
 public:
  /// `cache_dir` non-empty enables the warm-start disk cache: the built
  /// table is serialized to <cache_dir>/ebbar-<spec hash>.table and a
  /// daemon restart with the same spec loads it instead of rebuilding
  /// (the expensive step, minutes at production grid sizes).  The file
  /// is keyed by a hash of every Spec field and its content is
  /// re-validated against the spec after load, so a stale or truncated
  /// file degrades to a rebuild, never to wrong answers.  Hits and
  /// misses are counted as service.table_cache.{hit,miss}.
  explicit JobRuntime(EbBarTable::Spec ebbar_spec,
                      std::string cache_dir = {});

  /// The cached table; first caller pays the build (or the disk load).
  [[nodiscard]] const EbBarTable& ebbar_table();

  [[nodiscard]] const EbBarTable::Spec& ebbar_spec() const noexcept {
    return spec_;
  }

  /// The warm-start file this runtime reads/writes; empty when the disk
  /// cache is disabled.  Exposed for tests and ops tooling.
  [[nodiscard]] std::string table_cache_path() const;

 private:
  EbBarTable::Spec spec_;
  std::string cache_dir_;
  std::mutex mu_;
  std::shared_ptr<const EbBarTable> table_;
};

/// Executes one job on the worker's private pool and returns the
/// kResult envelope (see the file comment for the schema deviation).
/// Throws InvalidArgument on unknown kinds / bad params; engine errors
/// propagate — the daemon turns any exception into a kError reply and
/// keeps serving.
[[nodiscard]] Json run_job(const JobSpec& spec, std::uint64_t session_seed,
                           JobRuntime& runtime, ThreadPool& pool);

}  // namespace comimo::service
