#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "comimo/numeric/rng.h"

namespace perfbench {

using comimo::Json;

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t n) {
  metrics_.push_back(Metric{name, value, unit, n, true});
}

void Report::percentile(const std::string& name, const Percentile& p,
                        const std::string& unit) {
  metrics_.push_back(
      Metric{name, p.supported ? p.value : 0.0, unit, p.n, p.supported});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 50) failures_.push_back(what);
  }
}

void Report::config(const std::string& key, Json value) {
  config_.set(key, std::move(value));
}
void Report::config(const std::string& key, double value) {
  config_.set(key, value);
}

void Report::invalidate(const std::string& reason) {
  invalid_.push_back(reason);
}

void Report::write(const std::string& path, const Json& env) const {
  Json metrics = Json::object();
  for (const Metric& m : metrics_) {
    Json e = Json::object();
    // Json prints non-finite numbers as null; +inf latencies (misses)
    // are therefore flagged instead of silently dropped.
    e.set("value", m.value);
    e.set("finite", std::isfinite(m.value));
    e.set("unit", m.unit);
    e.set("n", static_cast<std::uint64_t>(m.n));
    e.set("supported", m.supported);
    metrics.set(m.name, std::move(e));
  }
  Json failures = Json::array();
  for (const std::string& f : failures_) failures.push(Json::string(f));
  Json invalid = Json::array();
  for (const std::string& r : invalid_) invalid.push(Json::string(r));
  Json out = Json::object();
  out.set("env", env);
  out.set("config", config_);
  out.set("metrics", std::move(metrics));
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  out.set("failures", std::move(failures));
  out.set("invalid", std::move(invalid));
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << out.dump_string(1) << '\n';
}

namespace {

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

void record_process_metrics(Report& report) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  report.metric("process.user_s", seconds(ru.ru_utime), "s");
  report.metric("process.sys_s", seconds(ru.ru_stime), "s");
  // ru_maxrss is in KiB.
  report.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                "MB");
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned pool_size(unsigned want) {
  return std::max(1u, std::min(want, nproc()));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  (void)comimo::splitmix64(state);
  return comimo::splitmix64(state);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_ns", static_cast<std::int64_t>(s.start_ns));
    j.set("end_ns", static_cast<std::int64_t>(s.end_ns));
    j.set("parent", static_cast<std::int64_t>(s.parent));
    j.set("group", static_cast<std::uint64_t>(s.group));
    os << j.dump_string(0) << '\n';
  }
}

void record_self_times(Report& report, const std::vector<Span>& spans) {
  for (const auto& [name, s] : self_seconds_by_name(spans)) {
    report.metric("trace.self_s." + name, s, "s");
  }
}

}  // namespace perfbench
