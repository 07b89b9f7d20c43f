#include "comimo/obs/metrics.h"

#include <algorithm>

namespace comimo::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) noexcept {
#ifdef COMIMO_OBS_DISABLED
  (void)on;
#else
  detail::g_enabled.store(on, std::memory_order_relaxed);
#endif
}

void Gauge::set(double x) const noexcept {
#ifdef COMIMO_OBS_DISABLED
  (void)x;
#else
  if (cell_ == nullptr || !enabled()) return;
  const std::lock_guard<std::mutex> lock(cell_->mu);
  cell_->value = x;
  cell_->has_value = true;
#endif
}

void Gauge::fold_min(double x) const noexcept {
#ifdef COMIMO_OBS_DISABLED
  (void)x;
#else
  if (cell_ == nullptr || !enabled()) return;
  const std::lock_guard<std::mutex> lock(cell_->mu);
  cell_->value = cell_->has_value ? std::min(cell_->value, x) : x;
  cell_->has_value = true;
#endif
}

void Gauge::fold_max(double x) const noexcept {
#ifdef COMIMO_OBS_DISABLED
  (void)x;
#else
  if (cell_ == nullptr || !enabled()) return;
  const std::lock_guard<std::mutex> lock(cell_->mu);
  cell_->value = cell_->has_value ? std::max(cell_->value, x) : x;
  cell_->has_value = true;
#endif
}

void Histogram::observe(double x) const noexcept {
#ifdef COMIMO_OBS_DISABLED
  (void)x;
#else
  if (registry_ == nullptr || !enabled()) return;
  ObsShard::Frame* frame = ObsShard::current();
  if (frame != nullptr && frame->registry == registry_) {
    if (index_ >= frame->stats.size()) frame->stats.resize(index_ + 1);
    frame->stats[index_].add(x);
    return;
  }
  registry_->observe_default(index_, x);
#endif
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

Counter MetricRegistry::counter(const std::string& name, Domain domain) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return Counter(&counter_cells_[it->second]);
  const std::size_t index = counter_cells_.size();
  counter_cells_.emplace_back();
  counter_domains_.push_back(domain);
  counter_index_.emplace(name, index);
  return Counter(&counter_cells_[index]);
}

Gauge MetricRegistry::gauge(const std::string& name, Domain domain) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return Gauge(&gauge_cells_[it->second]);
  const std::size_t index = gauge_cells_.size();
  gauge_cells_.emplace_back();
  gauge_domains_.push_back(domain);
  gauge_index_.emplace(name, index);
  return Gauge(&gauge_cells_[index]);
}

Histogram MetricRegistry::histogram(const std::string& name, Domain domain) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return Histogram(this, it->second);
  const std::size_t index = histogram_domains_.size();
  histogram_domains_.push_back(domain);
  histogram_index_.emplace(name, index);
  return Histogram(this, index);
}

std::vector<MetricRegistry::CounterSnapshot> MetricRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counter_index_.size());
  for (const auto& [name, index] : counter_index_) {
    out.push_back({name, counter_domains_[index],
                   counter_cells_[index].value.load(
                       std::memory_order_relaxed)});
  }
  return out;
}

std::vector<MetricRegistry::GaugeSnapshot> MetricRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<GaugeSnapshot> out;
  for (const auto& [name, index] : gauge_index_) {
    const detail::GaugeCell& cell = gauge_cells_[index];
    const std::lock_guard<std::mutex> cell_lock(cell.mu);
    if (!cell.has_value) continue;
    out.push_back({name, gauge_domains_[index], cell.value});
  }
  return out;
}

std::vector<MetricRegistry::HistogramSnapshot> MetricRegistry::histograms()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Chunk-ordered reduction: shards ascending by ordinal, then the
  // default shard last — a fixed order, so the merged moments are a
  // pure function of the per-shard content.
  std::vector<RunningStats> merged(histogram_domains_.size());
  for (const auto& [ordinal, stats] : shards_) {
    for (std::size_t i = 0; i < stats.size() && i < merged.size(); ++i) {
      merged[i].merge(stats[i]);
    }
  }
  for (std::size_t i = 0;
       i < default_shard_.size() && i < merged.size(); ++i) {
    merged[i].merge(default_shard_[i]);
  }
  std::vector<HistogramSnapshot> out;
  for (const auto& [name, index] : histogram_index_) {
    if (merged[index].count() == 0) continue;
    out.push_back({name, histogram_domains_[index], merged[index]});
  }
  return out;
}

void MetricRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& cell : counter_cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
  for (auto& cell : gauge_cells_) {
    const std::lock_guard<std::mutex> cell_lock(cell.mu);
    cell.value = 0.0;
    cell.has_value = false;
  }
  default_shard_.clear();
  shards_.clear();
}

void MetricRegistry::observe_default(std::size_t index, double x) noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index >= default_shard_.size()) default_shard_.resize(index + 1);
  default_shard_[index].add(x);
}

void MetricRegistry::fold_shard(std::uint64_t ordinal,
                                std::vector<RunningStats>&& stats) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shards_[ordinal];
  if (slot.empty()) {
    slot = std::move(stats);
    return;
  }
  if (slot.size() < stats.size()) slot.resize(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) slot[i].merge(stats[i]);
}

ObsShard::Frame*& ObsShard::current() noexcept {
  thread_local Frame* frame = nullptr;
  return frame;
}

ObsShard::ObsShard(std::uint64_t ordinal, MetricRegistry& registry) {
  if (!enabled()) return;
  frame_.registry = &registry;
  frame_.ordinal = ordinal;
  frame_.prev = current();
  current() = &frame_;
  active_ = true;
}

ObsShard::~ObsShard() {
  if (!active_) return;
  current() = frame_.prev;
  if (frame_.registry != nullptr && !frame_.stats.empty()) {
    frame_.registry->fold_shard(frame_.ordinal, std::move(frame_.stats));
  }
}

}  // namespace comimo::obs
