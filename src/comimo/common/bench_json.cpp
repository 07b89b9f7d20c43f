#include "comimo/common/bench_json.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/export.h"
#include "comimo/obs/trace.h"

namespace comimo {

namespace {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall-clock stamp for the envelope.  monotonic_s() is steady_clock —
// epoch = boot — so it can order events within a run but cannot date
// one; committed BENCH_*.json trajectories need the system clock.
std::int64_t timestamp_unix_s() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void dump_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void dump_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null keeps the schema parseable and the
    // validator flags it loudly.
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(std::numeric_limits<double>::max_digits10);
  tmp << v;
  os << tmp.str();
}

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  COMIMO_CHECK(kind_ == Kind::kObject, "set on non-object Json");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::set(const std::string& key, double value) {
  return set(key, Json::number(value));
}
Json& Json::set(const std::string& key, std::int64_t value) {
  return set(key, Json::integer(value));
}
Json& Json::set(const std::string& key, std::uint64_t value) {
  return set(key, Json::integer(static_cast<std::int64_t>(value)));
}
Json& Json::set(const std::string& key, int value) {
  return set(key, Json::integer(value));
}
Json& Json::set(const std::string& key, unsigned value) {
  return set(key, Json::integer(static_cast<std::int64_t>(value)));
}
Json& Json::set(const std::string& key, bool value) {
  return set(key, Json::boolean(value));
}
Json& Json::set(const std::string& key, const char* value) {
  return set(key, Json::string(value));
}
Json& Json::set(const std::string& key, const std::string& value) {
  return set(key, Json::string(value));
}

Json& Json::push(Json value) {
  COMIMO_CHECK(kind_ == Kind::kArray, "push on non-array Json");
  array_.push_back(std::move(value));
  return *this;
}

bool Json::is_object() const noexcept { return kind_ == Kind::kObject; }
bool Json::is_array() const noexcept { return kind_ == Kind::kArray; }

void Json::dump(std::ostream& os, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: os << "null"; break;
    case Kind::kBool: os << (bool_ ? "true" : "false"); break;
    case Kind::kInt: os << int_; break;
    case Kind::kDouble: dump_double(os, double_); break;
    case Kind::kString: dump_escaped(os, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) os << ',';
        newline_indent(os, indent, depth + 1);
        array_[i].dump(os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) os << ',';
        newline_indent(os, indent, depth + 1);
        dump_escaped(os, object_[i].first);
        os << (indent > 0 ? ": " : ":");
        object_[i].second.dump(os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

std::string Json::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

BenchReporter::BenchReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)),
      threads_(ThreadPool::shared().size()),
      start_monotonic_s_(monotonic_s()) {}

void BenchReporter::add_record(Json params, Json metrics, std::size_t trials,
                               double trials_per_sec) {
  COMIMO_CHECK(params.is_object() && metrics.is_object(),
               "record params/metrics must be JSON objects");
  Json record = Json::object();
  record.set("params", std::move(params));
  record.set("metrics", std::move(metrics));
  if (trials > 0) {
    record.set("trials", trials);
    record.set("trials_per_sec", trials_per_sec);
  }
  records_.push_back(std::move(record));
}

void BenchReporter::write(std::ostream& os) const {
  Json root = Json::object();
  root.set("schema", "comimo-bench-v1");
  root.set("bench", bench_name_);
  root.set("threads", threads_);
  root.set("hardware_concurrency", std::thread::hardware_concurrency());
  root.set("simd_tier", simd::tier_name(simd::active_tier()));
  root.set("simd_lanes", simd::batch_width());
  root.set("timestamp_unix_s", timestamp_unix_s());
  root.set("wall_s", monotonic_s() - start_monotonic_s_);
  Json records = Json::array();
  for (const auto& r : records_) records.push(r);
  root.set("records", std::move(records));
  if (obs::enabled()) {
    root.set("metrics",
             obs::metrics_to_json(obs::MetricRegistry::global(),
                                  obs::Domain::kDeterministic));
    root.set("metrics_runtime",
             obs::metrics_to_json(obs::MetricRegistry::global(),
                                  obs::Domain::kRuntime));
  }
  root.dump(os, 2);
  os << '\n';
}

void BenchReporter::write_file(const std::string& path) const {
  std::ofstream os(path);
  COMIMO_CHECK(os.good(), "cannot open bench JSON output path: " + path);
  write(os);
}

unsigned BenchCli::effective_threads() const {
  return pool_ ? pool_->size() : ThreadPool::shared().size();
}

BenchCli parse_bench_cli(int argc, char** argv) {
  BenchCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--json") {
      if (const char* v = next()) cli.json_path = v;
    } else if (arg == "--threads") {
      if (const char* v = next()) {
        cli.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      }
    } else if (arg == "--trials") {
      if (const char* v = next()) {
        cli.trials = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      }
    } else if (arg == "--shards") {
      if (const char* v = next()) {
        cli.shards = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
        if (cli.shards == 0) cli.shards = 1;
      }
    } else if (arg == "--adaptive") {
      if (const char* v = next()) cli.adaptive = std::strtod(v, nullptr);
    } else if (arg.rfind("--adaptive=", 0) == 0) {
      cli.adaptive = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg == "--obs") {
      cli.obs = true;
    } else if (arg == "--trace") {
      if (const char* v = next()) cli.trace_path = v;
    } else if (arg == "--simd") {
      if (const char* v = next()) cli.simd = v;
    } else if (arg.rfind("--simd=", 0) == 0) {
      cli.simd = arg.substr(7);
    }
    // Unknown flags are ignored by design.
  }
  // Pin the dispatch tier before any pool/bench code can touch a batch
  // kernel; "auto" just confirms the default.  Throws (InvalidArgument)
  // on unknown or unavailable modes, surfacing typos immediately.
  simd::set_mode(cli.simd);
  if (cli.threads > 0) {
    cli.pool_ = std::make_shared<ThreadPool>(cli.threads);
  }
  if (!cli.trace_path.empty()) {
    // Arms tracing and registers an exit-time flush, so every bench
    // binary supports --trace without per-binary wiring.
    obs::start_trace(cli.trace_path);
  } else if (cli.obs) {
    obs::set_enabled(true);
  }
  return cli;
}

}  // namespace comimo
