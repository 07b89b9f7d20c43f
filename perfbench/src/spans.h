// In-memory spans recorded by the benchmark around its calls into the
// library.  A span holds name, start, end, parent and a group id shared
// by every span of one service request, one route or one BER point.
// Spans are kept in memory and written out when the workload ends.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its children.  Children may overlap (sibling
// spans on different pool threads), so the covered part is the length
// of the union of the children's intervals clipped to the parent.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t group = 0;   ///< request / route / point id, 0 for none
};

/// Self time of every span, in the same order as `spans`.
[[nodiscard]] inline std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) kids[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// Σ self time per span name, in seconds.
[[nodiscard]] inline std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

/// Thread-safe span store.  Disabled, every call is a branch and nothing
/// is recorded, so the measured (untraced) run carries no span cost.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::uint64_t group = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.group = group;
    s.start_ns = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }

  /// Records a span whose ends were timed elsewhere (e.g. a request's
  /// due time and reply time, taken by the client).
  std::int64_t add(Span s) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::int64_t parent = -1,
          std::uint64_t group = 0)
        : tracer_(t), index_(t.open(std::move(name), parent, group)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t index() const noexcept { return index_; }

   private:
    Tracer& tracer_;
    std::int64_t index_;
  };

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
