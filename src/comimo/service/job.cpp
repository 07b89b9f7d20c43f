#include "comimo/service/job.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/energy/ebbar.h"
#include "comimo/net/comimonet.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/ber_sweep.h"

namespace comimo::service {

std::map<std::string, std::string> parse_kv_text(std::string_view text) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw InvalidArgument("service: malformed key=value line: " +
                            std::string(line));
    }
    const auto [it, inserted] = out.emplace(line.substr(0, eq),
                                            line.substr(eq + 1));
    if (!inserted) {
      throw InvalidArgument("service: duplicate key: " + it->first);
    }
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t session_seed,
                       std::uint64_t job_seed) noexcept {
  // Two SplitMix64 outputs over the combined state: the standard
  // seed-expansion trick (numeric/rng.h uses the same generator), so
  // nearby (session, job) pairs land far apart.
  std::uint64_t state =
      session_seed ^ (job_seed + 0x9e3779b97f4a7c15ULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

JobSpec JobSpec::parse(std::string_view text) {
  auto kv = parse_kv_text(text);
  const auto it = kv.find("kind");
  if (it == kv.end() || it->second.empty()) {
    throw InvalidArgument("service: request without kind=");
  }
  JobSpec spec;
  spec.kind = it->second;
  kv.erase(it);
  spec.params = std::move(kv);
  return spec;
}

std::string JobSpec::serialize() const {
  std::string out = "kind=" + kind;
  for (const auto& [k, v] : params) {
    out += '\n';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

namespace {

// Cache hit/miss depend on prior disk state — runtime domain, like the
// other service liveness counters.
struct TableCacheObs {
  obs::Counter hit = obs::MetricRegistry::global().counter(
      "service.table_cache.hit", obs::Domain::kRuntime);
  obs::Counter miss = obs::MetricRegistry::global().counter(
      "service.table_cache.miss", obs::Domain::kRuntime);
};

TableCacheObs& table_cache_obs() {
  static TableCacheObs o;
  return o;
}

// FNV-1a over a canonical full-precision rendering of every Spec field:
// any spec change moves the cache file, so a restart with a new grid
// can never pick up the old table.
std::uint64_t ebbar_spec_hash(const EbBarTable::Spec& spec) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << spec.b_min << '|' << spec.b_max << '|' << spec.m_max;
  for (const double p : spec.ber_targets) os << '|' << p;
  const std::string s = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool specs_equal(const EbBarTable::Spec& a, const EbBarTable::Spec& b) {
  return a.b_min == b.b_min && a.b_max == b.b_max && a.m_max == b.m_max &&
         a.ber_targets == b.ber_targets;
}

}  // namespace

JobRuntime::JobRuntime(EbBarTable::Spec ebbar_spec, std::string cache_dir)
    : spec_(std::move(ebbar_spec)), cache_dir_(std::move(cache_dir)) {}

std::string JobRuntime::table_cache_path() const {
  if (cache_dir_.empty()) return {};
  std::ostringstream os;
  os << cache_dir_ << "/ebbar-" << std::hex << ebbar_spec_hash(spec_)
     << ".table";
  return os.str();
}

const EbBarTable& JobRuntime::ebbar_table() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (table_) return *table_;
  const std::string path = table_cache_path();
  if (!path.empty()) {
    std::ifstream is(path);
    if (is.good()) {
      try {
        EbBarTable loaded = EbBarTable::load(is);
        // The hash keys the filename, but the file content is what we
        // trust — a hand-copied or collided file must still carry
        // exactly the requested grid.
        if (specs_equal(loaded.spec(), spec_)) {
          table_cache_obs().hit.add();
          table_ = std::make_shared<const EbBarTable>(std::move(loaded));
          return *table_;
        }
      } catch (const std::exception&) {
        // Corrupt or truncated cache file: fall through to a rebuild
        // (which rewrites it).
      }
    }
  }
  table_cache_obs().miss.add();
  table_ = std::make_shared<const EbBarTable>(
      EbBarTable::build(EbBarSolver{}, spec_));
  if (!path.empty()) {
    // Best-effort write-through: a read-only cache dir loses the warm
    // start, never the job.
    std::ofstream os(path);
    if (os.good()) table_->save(os);
  }
  return *table_;
}

namespace {

/// Reads an integer param into T.  from_chars takes digits only, so a
/// sign ("-1" would wrap under strtoull) or a blank is rejected, as are
/// an overflow and any value T cannot hold.
template <typename T>
T get_int(const JobSpec& spec, const std::string& key, T fallback) {
  const auto it = spec.params.find(key);
  if (it == spec.params.end()) return fallback;
  const std::string& text = it->second;
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::in_range<T>(v)) {
    throw InvalidArgument("service: param " + key +
                          " is not an integer in [0, " +
                          std::to_string(std::numeric_limits<T>::max()) +
                          "]: " + text);
  }
  return static_cast<T>(v);
}

double get_double(const JobSpec& spec, const std::string& key,
                  double fallback, bool required = false) {
  const auto it = spec.params.find(key);
  if (it == spec.params.end()) {
    if (required) {
      throw InvalidArgument("service: missing required param " + key);
    }
    return fallback;
  }
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  // strtod also accepts "inf", "nan" and overflowing literals; none is
  // a usable parameter.
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw InvalidArgument("service: param " + key +
                          " is not a finite number: " + it->second);
  }
  return v;
}

/// comimo-bench-v1 minus the clock fields (see the header comment).
Json make_envelope(const JobSpec& spec, unsigned threads, Json metrics,
                   std::size_t trials) {
  Json params = Json::object();
  params.set("kind", spec.kind);
  for (const auto& [k, v] : spec.params) params.set(k, v);
  Json record = Json::object();
  record.set("params", std::move(params));
  record.set("metrics", std::move(metrics));
  if (trials > 0) {
    record.set("trials", static_cast<std::uint64_t>(trials));
  }
  Json env = Json::object();
  env.set("schema", "comimo-bench-v1");
  env.set("bench", "service");
  env.set("threads", threads);
  Json records = Json::array();
  records.push(std::move(record));
  env.set("records", std::move(records));
  return env;
}

Json run_ping(const JobSpec& spec, unsigned threads) {
  Json metrics = Json::object();
  metrics.set("ok", 1);
  return make_envelope(spec, threads, std::move(metrics), 0);
}

Json run_ebbar_min(const JobSpec& spec, JobRuntime& rt, unsigned threads) {
  const double p = get_double(spec, "p", 0.0, /*required=*/true);
  const auto mt = get_int<unsigned>(spec, "mt", 2);
  const auto mr = get_int<unsigned>(spec, "mr", 2);
  const EbBarEntry entry = rt.ebbar_table().min_ebar_constellation(p, mt, mr);
  Json metrics = Json::object();
  metrics.set("b", entry.b);
  metrics.set("ebar_j", entry.ebar);
  metrics.set("p_grid", entry.p);
  return make_envelope(spec, threads, std::move(metrics), 0);
}

Json run_waveform_ber(const JobSpec& spec, std::uint64_t session_seed,
                      ThreadPool& pool) {
  WaveformBerConfig cfg;
  cfg.b = get_int<int>(spec, "b", 2);
  cfg.mt = get_int<unsigned>(spec, "mt", 2);
  cfg.mr = get_int<unsigned>(spec, "mr", 2);
  cfg.blocks = get_int<std::size_t>(spec, "blocks", 2000);
  cfg.seed = mix_seed(session_seed, get_int<std::uint64_t>(spec, "seed", 1));
  cfg.shards = get_int<std::size_t>(spec, "shards", 1);
  cfg.pool = &pool;
  // target_ci > 0 turns the fixed-blocks point into a precision-
  // targeted one (mc/adaptive.h): blocks becomes the trial budget and
  // the sweep stops at the first checkpoint whose BER CI meets the
  // target.  The stopping decision is checkpoint-deterministic, so the
  // replay contract (byte-identical kResult for a fixed session seed
  // and spec) is preserved.  is=1 adds the scaled-variance importance
  // sampler for rare-event points (is_scale overrides the noise tilt ν,
  // is_chan the fade tilt λ — tilt the channel for high-SNR diversity
  // links, see IsMode); without target_ci it is an error, not a silently
  // untilted point.
  cfg.adaptive.target_rel_ci = get_double(spec, "target_ci", 0.0);
  if (get_int<unsigned>(spec, "is", 0) != 0) {
    cfg.adaptive.is_mode = IsMode::kScaledNoise;
    cfg.adaptive.is_noise_scale = get_double(spec, "is_scale", 2.0);
    cfg.adaptive.is_channel_scale = get_double(spec, "is_chan", 1.0);
  }
  const double gamma_b_db = get_double(spec, "gamma_b_db", 8.0);
  const WaveformBerPoint pt = measure_waveform_ber(cfg, gamma_b_db);
  Json metrics = Json::object();
  metrics.set("bits", static_cast<std::uint64_t>(pt.bits));
  metrics.set("bit_errors", static_cast<std::uint64_t>(pt.bit_errors));
  metrics.set("ber", pt.ber);
  metrics.set("analytic_ber", pt.analytic);
  if (cfg.adaptive.target_rel_ci > 0.0) {
    metrics.set("trials_executed",
                static_cast<std::uint64_t>(pt.trials_executed));
    metrics.set("checkpoints", static_cast<std::uint64_t>(pt.checkpoints));
    metrics.set("target_met", pt.target_met ? 1 : 0);
    metrics.set("rel_ci", pt.rel_ci);
    if (pt.ess > 0.0) metrics.set("is_ess", pt.ess);
  }
  return make_envelope(spec, pool.size(), std::move(metrics), cfg.blocks);
}

Json run_net_churn(const JobSpec& spec, std::uint64_t session_seed,
                   ThreadPool& pool) {
  (void)pool;  // the net layer uses the shared pool deterministically
  const auto n = get_int<std::size_t>(spec, "nodes", 400);
  const auto rounds = get_int<std::size_t>(spec, "rounds", 10);
  const auto kill_per_round = get_int<std::size_t>(spec, "kill_per_round", 10);
  const std::uint64_t seed =
      mix_seed(session_seed, get_int<std::uint64_t>(spec, "seed", 1));
  COMIMO_CHECK(n >= 2 && n <= 200000, "net_churn: nodes out of range");

  CoMimoNet net(random_field(n, 500.0, 500.0, seed), CoMimoNetConfig{});
  std::size_t killed = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng(seed, 1000 + round);
    const std::vector<SuNode>& nodes = net.nodes();
    if (nodes.size() <= 1) break;
    std::vector<NodeId> victims;
    const std::size_t want =
        std::min(kill_per_round, nodes.size() - 1);
    for (std::size_t k = 0; k < want; ++k) {
      victims.push_back(nodes[rng.uniform_int(nodes.size())].id);
    }
    net.remove_nodes(victims);  // duplicate picks are ignored by contract
    killed += want;
  }
  Json metrics = Json::object();
  metrics.set("survivors", static_cast<std::uint64_t>(net.nodes().size()));
  metrics.set("clusters", static_cast<std::uint64_t>(net.clusters().size()));
  metrics.set("links", static_cast<std::uint64_t>(net.links().size()));
  metrics.set("valid", net.validate() ? 1 : 0);
  return make_envelope(spec, pool.size(), std::move(metrics), rounds);
}

Json run_stall(const JobSpec& spec, unsigned threads) {
  const std::uint64_t ms = std::min<std::uint64_t>(
      get_int<std::uint64_t>(spec, "ms", 50), 10000);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  Json metrics = Json::object();
  metrics.set("stalled_ms", ms);
  return make_envelope(spec, threads, std::move(metrics), 0);
}

}  // namespace

Json run_job(const JobSpec& spec, std::uint64_t session_seed,
             JobRuntime& runtime, ThreadPool& pool) {
  if (spec.kind == "ping") return run_ping(spec, pool.size());
  if (spec.kind == "ebbar_min") {
    return run_ebbar_min(spec, runtime, pool.size());
  }
  if (spec.kind == "waveform_ber") {
    return run_waveform_ber(spec, session_seed, pool);
  }
  if (spec.kind == "net_churn") {
    return run_net_churn(spec, session_seed, pool);
  }
  if (spec.kind == "stall_ms") return run_stall(spec, pool.size());
  throw InvalidArgument("service: unknown job kind: " + spec.kind);
}

}  // namespace comimo::service
