// Shared plumbing of the workload binary: options, the result record
// (metrics with units and sample counts, output checks, configuration)
// and process-level measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comimo/common/bench_json.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;    ///< results JSON (metrics, checks, config)
  std::string spans_path;  ///< span dump of a traced run, next to out_path
  std::string socket_dir;  ///< out_path's directory: the service socket
};

/// The record one workload run produces.  Metrics carry their unit and
/// the sample count they rest on; every output check counts as one
/// attempted operation, and a failed one is kept with its reason.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t n = 1);
  /// A percentile, reported only when the sample supports it.
  void percentile(const std::string& name, const Percentile& p,
                  const std::string& unit);
  /// Counts one attempted operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
  /// Adds `n` attempted operations that all succeeded.
  void passed(std::size_t n) { attempted_ += n; }
  void config(const std::string& key, comimo::Json value);
  void config(const std::string& key, double value);
  /// Marks the run's timings invalid (e.g. the load generator fell
  /// behind); the reason is printed and the run fails.
  void invalidate(const std::string& reason);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  void write(const std::string& path, const comimo::Json& env) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;
    bool supported = true;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_;
  comimo::Json config_ = comimo::Json::object();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything a workload needs.  `seconds` bounds the measured phase.
struct Context {
  Options opt;
  Tracer tracer;
  Report report;
  explicit Context(Options o) : opt(std::move(o)), tracer(opt.trace) {}
};

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_s();
/// Records process.user_s, process.sys_s and peak_rss_mb (MB).
void record_process_metrics(Report& report);
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned nproc();
/// Pool size for a workload: `want`, capped at nproc.
[[nodiscard]] unsigned pool_size(unsigned want);
/// A stream of well-mixed 64-bit values derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);
/// Seconds between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}
/// Writes the span list as JSON lines: name, start, end, parent, group.
void write_spans(const std::string& path, const std::vector<Span>& spans);
/// Records self time per span name as trace.self_s.<name> metrics.
void record_self_times(Report& report, const std::vector<Span>& spans);

void run_paper(Context& ctx);
void run_ber(Context& ctx);
void run_net(Context& ctx);
void run_service(Context& ctx);
/// The service workload's client process (see service.cpp).
int run_service_client(int argc, char** argv);

}  // namespace perfbench
