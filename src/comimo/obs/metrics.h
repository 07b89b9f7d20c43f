// Low-overhead observability: named counters, gauges, and histograms.
//
// The paper's evaluation hinges on per-stage quantities the simulator
// computes but never surfaced — per-hop BER and retry counts, PA-energy
// headroom against the primary-receiver noise floor, preemption stalls.
// This registry makes them first-class without disturbing the hot-path
// contracts established by the mc/ engine and the link workspace:
//
//   * disabled at runtime (the default), every hot-path call is one
//     relaxed atomic load and a branch — ≤1% on bench/perf_kernels and
//     zero heap allocations in the steady state (the PR-3 invariant);
//   * compiled out (-DCOMIMO_OBS=OFF defines COMIMO_OBS_DISABLED),
//     every call body is empty and the optimizer deletes it;
//   * enabled, aggregates stay deterministic: counter adds and gauge
//     min/max folds are commutative, and histogram observations land
//     in per-chunk shards merged in ascending chunk order — the same
//     discipline as McAccumulator — so a 1-thread and an N-thread run
//     of the same seed export identical deterministic metrics.
//
// Every metric carries a Domain tag.  kDeterministic quantities are
// pure functions of (seed, config) and embed in bench JSON under the
// top-level "metrics" key (diffed by scripts/check_bench_json.sh across
// worker counts); kRuntime quantities (latencies, queue depths,
// utilization) vary run to run and export under "metrics_runtime",
// which determinism diffs ignore.
//
// Handle discipline: registration (MetricRegistry::counter et al.) may
// allocate and lock; it belongs in cold paths (construction, static
// locals).  The returned handles are trivially copyable and their
// record calls never allocate.
//
// Observation discipline for kDeterministic histograms: observe them
// serially or from directly inside a top-level run_trials trial (the
// engine's chunk shard keeps them ordered).  Do NOT observe them from
// a *nested* engine run (e.g. a sweep launched inside another sweep's
// trial) — nested chunk ordinals reuse the outer ordinal space and the
// fold placement would depend on the worker count.  Counters and gauge
// min/max folds are commutative and safe from any context.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comimo/numeric/stats.h"

namespace comimo::obs {

/// Export domain of a metric (see file comment).
enum class Domain { kDeterministic, kRuntime };

namespace detail {

extern std::atomic<bool> g_enabled;

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  mutable std::mutex mu;
  double value = 0.0;
  bool has_value = false;
};

}  // namespace detail

/// Global runtime switch.  Off by default; `--obs` / `--trace` on the
/// bench CLI turn it on.  Compiled out, it is a constant false.
[[nodiscard]] inline bool enabled() noexcept {
#ifdef COMIMO_OBS_DISABLED
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

void set_enabled(bool on) noexcept;

/// Monotonically increasing named count.  Adds are relaxed atomic
/// fetch-adds: commutative, so totals are exact and identical for any
/// worker count.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) const noexcept {
#ifdef COMIMO_OBS_DISABLED
    (void)n;
#else
    if (cell_ != nullptr && enabled()) {
      cell_->value.fetch_add(n, std::memory_order_relaxed);
    }
#endif
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
#ifdef COMIMO_OBS_DISABLED
    return 0;
#else
    return cell_ ? cell_->value.load(std::memory_order_relaxed) : 0;
#endif
  }

 private:
  friend class MetricRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-value / extremum gauge.  set() is for serial contexts (configs,
/// end-of-run summaries); fold_min()/fold_max() are commutative and
/// safe — and deterministic — from concurrent workers.
class Gauge {
 public:
  Gauge() = default;

  void set(double x) const noexcept;
  void fold_min(double x) const noexcept;
  void fold_max(double x) const noexcept;

 private:
  friend class MetricRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

class MetricRegistry;

/// RunningStats-backed distribution.  Observations made inside an
/// ObsShard scope accumulate into that shard; shards merge in ascending
/// ordinal order (chunk order under the MC engine), so the merged
/// moments are bit-identical for any worker count.  Observations made
/// outside any shard fold into a mutex-protected default shard, merged
/// last — deterministic as long as those call sites are serial.
class Histogram {
 public:
  Histogram() = default;

  void observe(double x) const noexcept;

  /// True when the handle is bound to a registry (default-constructed
  /// handles are inert).
  [[nodiscard]] bool attached() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricRegistry;
  Histogram(MetricRegistry* registry, std::size_t index)
      : registry_(registry), index_(index) {}
  MetricRegistry* registry_ = nullptr;
  std::size_t index_ = 0;
};

/// Name → metric registry.  Registration is idempotent (same name,
/// same kind → same handle); handles stay valid for the registry's
/// lifetime, across reset().  One process-wide instance backs the
/// library wiring; tests may construct private registries.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& global();

  [[nodiscard]] Counter counter(const std::string& name,
                                Domain domain = Domain::kDeterministic);
  [[nodiscard]] Gauge gauge(const std::string& name,
                            Domain domain = Domain::kDeterministic);
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    Domain domain = Domain::kDeterministic);

  struct CounterSnapshot {
    std::string name;
    Domain domain = Domain::kDeterministic;
    std::uint64_t value = 0;
  };
  struct GaugeSnapshot {
    std::string name;
    Domain domain = Domain::kDeterministic;
    double value = 0.0;
  };
  struct HistogramSnapshot {
    std::string name;
    Domain domain = Domain::kDeterministic;
    RunningStats stats;
  };

  /// Sorted by name (registration order may depend on scheduling).
  [[nodiscard]] std::vector<CounterSnapshot> counters() const;
  /// Gauges that were never set are omitted.  Sorted by name.
  [[nodiscard]] std::vector<GaugeSnapshot> gauges() const;
  /// Chunk-ordered merge of all shards (see Histogram).  Sorted by name.
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

  /// Zeroes every value and drops every shard; registrations — and all
  /// outstanding handles — stay valid.
  void reset();

 private:
  friend class Histogram;
  friend class ObsShard;

  void observe_default(std::size_t index, double x) noexcept;
  void fold_shard(std::uint64_t ordinal, std::vector<RunningStats>&& stats);

  mutable std::mutex mu_;
  std::map<std::string, std::size_t> counter_index_;
  std::deque<detail::CounterCell> counter_cells_;
  std::vector<Domain> counter_domains_;
  std::map<std::string, std::size_t> gauge_index_;
  std::deque<detail::GaugeCell> gauge_cells_;
  std::vector<Domain> gauge_domains_;
  std::map<std::string, std::size_t> histogram_index_;
  std::vector<Domain> histogram_domains_;
  std::vector<RunningStats> default_shard_;
  std::map<std::uint64_t, std::vector<RunningStats>> shards_;
};

/// RAII shard scope for deterministic histogram aggregation: while
/// alive on a thread, that thread's Histogram::observe calls accumulate
/// into a local frame; destruction folds the frame into the registry
/// under the scope's ordinal.  The MC engine opens one per chunk with
/// ordinal = chunk index — user trial code gets chunk-ordered metrics
/// for free.  Scopes nest (inner shadows outer, restored on exit).
class ObsShard {
 public:
  explicit ObsShard(std::uint64_t ordinal,
                    MetricRegistry& registry = MetricRegistry::global());
  ~ObsShard();
  ObsShard(const ObsShard&) = delete;
  ObsShard& operator=(const ObsShard&) = delete;

 private:
  friend class Histogram;
  struct Frame {
    MetricRegistry* registry = nullptr;
    std::uint64_t ordinal = 0;
    std::vector<RunningStats> stats;
    Frame* prev = nullptr;
  };
  static Frame*& current() noexcept;
  Frame frame_;
  bool active_ = false;
};

}  // namespace comimo::obs
