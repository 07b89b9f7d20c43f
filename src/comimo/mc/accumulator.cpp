#include "comimo/mc/accumulator.h"

namespace comimo {

namespace {
const RunningStats kEmptyStats{};
}  // namespace

void McAccumulator::count(const std::string& name, std::uint64_t n) {
  counters_[name] += n;
}

void McAccumulator::observe(const std::string& name, double x) {
  stats_[name].add(x);
}

std::uint64_t McAccumulator::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const RunningStats& McAccumulator::stat(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmptyStats : it->second;
}

RateEstimate McAccumulator::rate(const std::string& numerator,
                                 const std::string& denominator) const {
  const std::uint64_t denom = counter(denominator);
  if (denom == 0) return RateEstimate{};
  // estimate_rate takes uint64_t, so 32-bit-size_t platforms no longer
  // truncate large bit counts on the way in.
  return estimate_rate(counter(numerator), denom);
}

void McAccumulator::merge(const McAccumulator& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, stats] : other.stats_) {
    stats_[name].merge(stats);
  }
}

std::vector<std::string> McAccumulator::counter_names() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, value] : counters_) names.push_back(name);
  return names;
}

std::vector<std::string> McAccumulator::stat_names() const {
  std::vector<std::string> names;
  names.reserve(stats_.size());
  for (const auto& [name, stats] : stats_) names.push_back(name);
  return names;
}

}  // namespace comimo
