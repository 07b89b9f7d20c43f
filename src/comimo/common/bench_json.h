// Structured bench output: the comimo-bench-v1 JSON schema.
//
// Every bench binary accepts `--json <path>` and emits one record per
// measured configuration so that BENCH_*.json trajectories accumulate
// across PRs.  The schema (validated by scripts/check_bench_json.sh):
//
//   {
//     "schema": "comimo-bench-v1",
//     "bench": "<binary name>",
//     "threads": <worker count used>,
//     "hardware_concurrency": <std::thread::hardware_concurrency() of
//                              the host — lets artifact gates skip
//                              multi-core speedup assertions on 1-core
//                              containers>,
//     "simd_tier": <simd::tier_name() of the active kernel tier>,
//     "simd_lanes": <simd::batch_width(): the active tier's lanes>,
//     "timestamp_unix_s": <system_clock seconds at write — dates a
//                          committed BENCH_*.json run; wall_s cannot,
//                          it is steady_clock with a boot epoch>,
//     "wall_s": <total wall time of the run>,
//     "records": [
//       { "params":  { <name>: <number|string|bool>, ... },
//         "metrics": { <name>: <number>, ... },
//         "trials": <optional trial count>,
//         "trials_per_sec": <optional throughput> }, ... ],
//     "metrics": <optional: comimo::obs deterministic metrics — present
//                 when the obs layer is enabled; byte-identical for a
//                 1-thread and an N-thread run of the same seed>,
//     "metrics_runtime": <optional: obs runtime metrics (latencies,
//                         utilization) — excluded from determinism diffs>
//   }
//
// Metric values are printed with max_digits10 so a serial and a parallel
// run of the same bench produce byte-identical metric strings — the
// determinism check scripts diff on exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace comimo {

class ThreadPool;

/// Minimal ordered JSON value (null/bool/int/double/string/array/object)
/// — just enough for the bench schema, with deterministic key order
/// (insertion order) and full-precision number formatting.
class Json {
 public:
  Json() = default;  // null
  static Json boolean(bool v);
  static Json integer(std::int64_t v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  /// Object field setters (create or overwrite; insertion order kept).
  Json& set(const std::string& key, Json value);
  Json& set(const std::string& key, double value);
  Json& set(const std::string& key, std::int64_t value);
  Json& set(const std::string& key, std::uint64_t value);
  Json& set(const std::string& key, int value);
  Json& set(const std::string& key, unsigned value);
  Json& set(const std::string& key, bool value);
  Json& set(const std::string& key, const char* value);
  Json& set(const std::string& key, const std::string& value);

  /// Array append.
  Json& push(Json value);

  [[nodiscard]] bool is_object() const noexcept;
  [[nodiscard]] bool is_array() const noexcept;

  void dump(std::ostream& os, int indent = 0, int depth = 0) const;
  [[nodiscard]] std::string dump_string(int indent = 2) const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Collects records and writes the comimo-bench-v1 envelope.  Wall time
/// is measured from construction to write.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name);

  /// One measured configuration.  `params` and `metrics` must be JSON
  /// objects; `trials` > 0 adds trial-throughput bookkeeping.
  void add_record(Json params, Json metrics, std::size_t trials = 0,
                  double trials_per_sec = 0.0);

  void set_threads(unsigned threads) { threads_ = threads; }

  /// Writes the envelope; rewinds nothing, so call once at the end.
  void write(std::ostream& os) const;
  void write_file(const std::string& path) const;

 private:
  std::string bench_name_;
  unsigned threads_;
  double start_monotonic_s_;
  std::vector<Json> records_;
};

/// The shared bench command line: `--json <path>` turns on structured
/// output, `--threads <n>` runs the engine-backed sweeps on a private
/// pool of that size (0 = the shared pool), `--trials <n>` lets scripts
/// shrink trial-bound benches, `--shards <n>` cuts the engine-backed
/// sweeps' chunk rounds into that many in-process slices
/// (McConfig::shards — bit-identical to 1), `--obs` enables the
/// observability layer (metrics embed in the JSON envelope), `--trace
/// <path>` additionally arms span tracing with an exit-time
/// Perfetto-loadable dump, and
/// `--simd <mode>` (or `--simd=<mode>`) pins the batch-kernel dispatch
/// tier (auto|scalar|sse2|avx2|avx512|neon) before any kernel runs.
/// `--adaptive <rel_ci>` asks engine-backed sweeps to stop early once
/// the watched statistic's relative CI half-width reaches rel_ci
/// (mc/adaptive.h; benches that have no adaptive surface ignore it).
/// Unknown flags are ignored so wrappers can pass common options to
/// every binary.
struct BenchCli {
  std::string json_path;
  std::string trace_path;
  std::string simd = "auto";  ///< requested dispatch mode, as given
  bool obs = false;
  unsigned threads = 0;
  std::size_t trials = 0;
  std::size_t shards = 1;
  /// Adaptive stopping target (relative CI half-width); 0 = fixed
  /// trials.  Consumed by the engine-backed sweep benches.
  double adaptive = 0.0;

  /// The pool the bench should hand to engine configs: a private pool
  /// when --threads was given, otherwise nullptr (= shared pool).
  /// Owned by this struct.
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_.get(); }

  /// Effective worker count, for the report envelope.
  [[nodiscard]] unsigned effective_threads() const;

 private:
  friend BenchCli parse_bench_cli(int argc, char** argv);
  std::shared_ptr<ThreadPool> pool_;
};

[[nodiscard]] BenchCli parse_bench_cli(int argc, char** argv);

}  // namespace comimo
