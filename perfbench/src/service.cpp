// `service` workload: an in-process ServiceDaemon (fixed workers x
// engine threads) driven by one client process over AF_UNIX.
//
// Open-loop phase: independent users at a fixed rate well under
// capacity, spread over at most nproc sessions (replies are ordered
// within a session).  Due times come from the seed before the phase
// starts; each request is timed from its due time to its reply, and a
// refused or failed request counts as a miss (+inf).  Closed-loop phase:
// one outstanding request per session, the same fixed-size round of jobs
// repeated.  Mix: bench/service_load's mixed_job, a quarter each of ping,
// ebbar_min (a table lookup), waveform_ber and net_churn, at 2 000 blocks
// and 400 nodes.  Every reply is checked byte for byte against a local
// run_job(spec, session_seed).
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "comimo/common/parallel.h"
#include "comimo/numeric/rng.h"
#include "comimo/service/client.h"
#include "comimo/service/daemon.h"
#include "comimo/service/job.h"
#include "common.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace comimo;
using service::FrameType;
using service::JobSpec;
using service::ServiceClient;

constexpr unsigned kWorkers = 2;     // daemon worker threads
constexpr unsigned kMcThreads = 1;   // engine threads per job
constexpr std::size_t kQueue = 512;  // never the bottleneck at this rate
constexpr double kRate = 150.0;      // open-loop requests per second
constexpr std::size_t kMinOpen = 1000;
constexpr std::size_t kRoundJobs = 600;  // closed-loop round size
constexpr double kLateLimitMs = 20.0;    // generator p99 lateness limit

struct KindShare {
  const char* kind;
  double share;
};
// The shares of bench/service_load's mixed_job, the repo's one defined
// service traffic: its four job kinds in turn.
constexpr KindShare kMix[] = {{"ping", 0.25},
                              {"ebbar_min", 0.25},
                              {"waveform_ber", 0.25},
                              {"net_churn", 0.25}};

/// mixed_job's parameters, at 2 000 blocks and 400 nodes; only the job
/// seed varies.
JobSpec make_spec(const char* kind, Rng& rng) {
  JobSpec s;
  s.kind = kind;
  if (s.kind == "ebbar_min") {
    s.params = {{"p", "1e-3"}, {"mt", "2"}, {"mr", "2"}};
  } else if (s.kind == "waveform_ber") {
    s.params = {{"b", "2"},          {"mt", "2"},
                {"mr", "2"},         {"blocks", "2000"},
                {"gamma_b_db", "6"}, {"seed", std::to_string(rng.next() >> 1)}};
  } else if (s.kind == "net_churn") {
    s.params = {{"nodes", "400"},
                {"rounds", "3"},
                {"kill_per_round", "6"},
                {"seed", std::to_string(rng.next() >> 1)}};
  }
  return s;
}

/// `n` jobs holding the mix shares exactly (rounded), in seeded order:
/// every run and every closed-loop round carries the same work.
std::vector<JobSpec> make_mix(std::size_t n, Rng& rng) {
  std::vector<JobSpec> jobs;
  for (const auto& m : kMix) {
    const auto count = static_cast<std::size_t>(
        std::llround(m.share * static_cast<double>(n)));
    for (std::size_t i = 0; i < count && jobs.size() < n; ++i) {
      jobs.push_back(make_spec(m.kind, rng));
    }
  }
  while (jobs.size() < n) jobs.push_back(make_spec(kMix[0].kind, rng));
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.uniform_int(i)]);
  }
  return jobs;
}

struct Request {
  JobSpec spec;
  std::size_t session = 0;
  std::int64_t due_ns = 0;   ///< open loop: offset from phase start
  std::int64_t sent_ns = 0;  ///< absolute
  std::int64_t reply_ns = 0;
  FrameType type = FrameType::kError;
  std::string body;
};

double ms(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// Every session uses one seed, so a job's result does not depend on the
/// session that carried it (the closed loop assigns sessions as they
/// free up).
std::uint64_t session_seed(std::uint64_t seed) {
  return derive_seed(seed, 400);
}

// --- client process ----------------------------------------------------

struct ClientArgs {
  std::string socket;
  std::string out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t sessions = 1;
  bool trace = false;
};

/// Open loop: per session, a sender that submits each request at its due
/// time and a receiver that takes the replies in submission order.
void open_loop(std::vector<std::unique_ptr<ServiceClient>>& clients,
               std::vector<Request>& reqs, std::int64_t start) {
  std::vector<std::vector<std::size_t>> per(clients.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) per[reqs[i].session].push_back(i);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < clients.size(); ++s) {
    threads.emplace_back([&, s] {
      for (const std::size_t i : per[s]) {
        const auto due = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start + reqs[i].due_ns));
        std::this_thread::sleep_until(due);
        reqs[i].sent_ns = now_ns();
        (void)clients[s]->submit(reqs[i].spec);
      }
    });
    threads.emplace_back([&, s] {
      for (const std::size_t i : per[s]) {
        const ServiceClient::Reply r = clients[s]->next_reply();
        reqs[i].reply_ns = now_ns();
        reqs[i].type = r.type;
        reqs[i].body = r.body;
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Closed loop: one outstanding request per session; each session takes
/// the next job as soon as its reply arrives.
void closed_loop(std::vector<std::unique_ptr<ServiceClient>>& clients,
                 std::vector<Request>& reqs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < clients.size(); ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t i = next++; i < reqs.size(); i = next++) {
        reqs[i].sent_ns = now_ns();
        const ServiceClient::Reply r = clients[s]->call(reqs[i].spec);
        reqs[i].reply_ns = now_ns();
        reqs[i].type = r.type;
        reqs[i].body = r.body;
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// run_job alone, one thread, on the first `per_kind` jobs of each kind:
/// the per-kind run time the queue-wait split subtracts.
std::vector<std::pair<std::string, double>> run_reference(
    const std::vector<Request>& reqs, std::uint64_t seed,
    std::size_t per_kind) {
  service::JobRuntime runtime(EbBarTable::Spec{});
  (void)runtime.ebbar_table();  // built before timing, as in the daemon
  ThreadPool engine(kMcThreads);
  std::map<std::string, std::size_t> done;
  std::vector<std::pair<std::string, double>> out;
  for (const Request& r : reqs) {
    if (done[r.spec.kind]++ >= per_kind) continue;
    const std::int64_t t0 = now_ns();
    (void)service::run_job(r.spec, session_seed(seed), runtime, engine);
    out.emplace_back(r.spec.kind, ms(t0, now_ns()));
  }
  return out;
}

/// Re-runs every job locally and compares the reply byte for byte.
std::size_t verify(const std::vector<Request*>& reqs, std::uint64_t seed) {
  service::JobRuntime runtime(EbBarTable::Spec{});
  ThreadPool engine(kMcThreads);
  std::size_t bad = 0;
  for (const Request* r : reqs) {
    const std::string want =
        service::run_job(r->spec, session_seed(seed), runtime, engine)
            .dump_string(2);
    if (r->type != FrameType::kResult || r->body != want) ++bad;
  }
  return bad;
}

}  // namespace

int run_service_client(int argc, char** argv) {
  ClientArgs a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--socket") a.socket = v;
    else if (k == "--out") a.out = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--sessions") a.sessions = std::stoul(v);
    else if (k == "--trace") a.trace = v == "1";
  }
  try {
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (std::size_t s = 0; s < a.sessions; ++s) {
      clients.push_back(std::make_unique<ServiceClient>(
          a.socket, session_seed(a.seed), 5000));
    }
    // Idle round trip: sequential pings per session.
    std::vector<double> rtt;
    for (std::size_t s = 0; s < a.sessions; ++s) {
      for (int k = 0; k < 40; ++k) {
        JobSpec ping;
        ping.kind = "ping";
        const std::int64_t t0 = now_ns();
        const auto r = clients[s]->call(ping);
        rtt.push_back(ms(t0, now_ns()));
        if (r.type != FrameType::kResult) {
          rtt.back() = std::numeric_limits<double>::infinity();
        }
      }
    }

    // Open-loop schedule, fixed before the phase starts.
    const double open_s = 0.5 * a.seconds;
    const auto n_open = std::max<std::size_t>(
        kMinOpen, static_cast<std::size_t>(std::ceil(kRate * open_s)));
    Rng rng(derive_seed(a.seed, 500));
    std::vector<JobSpec> open_jobs = make_mix(n_open, rng);
    std::vector<Request> open(n_open);
    double t = 0.0;
    for (std::size_t i = 0; i < n_open; ++i) {
      t += rng.exponential() / kRate;  // Poisson arrivals
      open[i].due_ns = static_cast<std::int64_t>(t * 1e9);
      open[i].session = rng.uniform_int(a.sessions);
      open[i].spec = std::move(open_jobs[i]);
    }
    const std::int64_t start = now_ns() + 20'000'000;  // 20 ms lead
    open_loop(clients, open, start);
    const std::int64_t open_end = now_ns();

    // Closed loop: the same round of jobs, repeated until the phase has
    // used --seconds.  Every repeat must return the first round's bytes.
    std::vector<JobSpec> jobs = make_mix(kRoundJobs, rng);
    std::vector<Request> first(kRoundJobs);
    std::vector<double> round_s;
    std::size_t changed = 0;
    std::size_t closed_n = 0;
    while (round_s.size() < 3 ||
           seconds_between(start, now_ns()) < a.seconds) {
      std::vector<Request> round(kRoundJobs);
      for (std::size_t i = 0; i < round.size(); ++i) round[i].spec = jobs[i];
      const std::int64_t r0 = now_ns();
      closed_loop(clients, round);
      round_s.push_back(seconds_between(r0, now_ns()));
      closed_n += round.size();
      if (round_s.size() == 1) {
        first = std::move(round);
        continue;
      }
      for (std::size_t i = 0; i < round.size(); ++i) {
        if (round[i].type != first[i].type || round[i].body != first[i].body) {
          ++changed;
        }
      }
    }
    clients.clear();

    std::vector<Request*> all;
    for (auto& r : open) all.push_back(&r);
    for (auto& r : first) all.push_back(&r);
    const std::size_t mismatched = verify(all, a.seed) + changed;
    const auto reference =
        a.trace ? run_reference(open, a.seed, 40)
                : std::vector<std::pair<std::string, double>>{};

    // Results, as plain text lines "key value" (read by the daemon side).
    std::ofstream os(a.out);
    os.precision(17);
    os << "open " << open.size() << "\nrounds " << round_s.size()
       << "\nround_jobs " << kRoundJobs << "\nclosed " << closed_n
       << "\nmismatched " << mismatched
       << "\nopen_s " << seconds_between(start, open_end) << '\n';
    for (const double x : rtt) os << "rtt " << x << '\n';
    for (const double x : round_s) os << "round_s " << x << '\n';
    for (const auto& [kind, x] : reference) os << "run " << kind << ' ' << x << '\n';
    // One line per request: kind, reply type, and due / sent / reply
    // times on the steady clock, which both processes share.
    for (const Request& r : open) {
      os << "req " << r.spec.kind << ' ' << static_cast<int>(r.type) << ' '
         << start + r.due_ns << ' ' << r.sent_ns << ' ' << r.reply_ns << '\n';
    }

    return os ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench service client: " << e.what() << '\n';
    return 1;
  }
}

// --- daemon process ------------------------------------------------------

namespace {

service::ServiceConfig daemon_config(const std::string& socket) {
  service::ServiceConfig cfg;
  cfg.socket_path = socket;
  cfg.service_workers = kWorkers;
  cfg.mc_threads = kMcThreads;
  cfg.queue_capacity = kQueue;
  return cfg;
}

/// Daemon start with a cold table, the session handshakes, and the
/// first ebbar_min (which builds the table).
std::unique_ptr<service::ServiceDaemon> start_daemon(const std::string& socket,
                                                     std::size_t sessions,
                                                     std::uint64_t seed) {
  auto d = std::make_unique<service::ServiceDaemon>(daemon_config(socket));
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (std::size_t s = 0; s < sessions; ++s) {
    clients.push_back(
        std::make_unique<ServiceClient>(socket, session_seed(seed), 5000));
  }
  JobSpec warm;
  warm.kind = "ebbar_min";
  warm.params["p"] = "0.001";
  if (clients[0]->call(warm).type != FrameType::kResult) {
    throw std::runtime_error("service set-up: ebbar_min failed");
  }
  return d;
}

}  // namespace

void run_service(Context& ctx) {
  const std::size_t sessions = std::min<std::size_t>(4, nproc());
  const std::string& dir = ctx.opt.socket_dir;
  const std::string socket =
      dir + "/svc-" + std::to_string(::getpid()) + ".sock";
  ctx.report.config("rate_rps", kRate);
  ctx.report.config("sessions", static_cast<double>(sessions));
  ctx.report.config("workers", static_cast<double>(kWorkers));
  ctx.report.config("engine_threads", static_cast<double>(kMcThreads));
  ctx.report.config("closed_loop_outstanding", static_cast<double>(sessions));
  ctx.report.config("closed_loop_round_jobs", static_cast<double>(kRoundJobs));
  comimo::Json mix = comimo::Json::object();
  for (const auto& m : kMix) mix.set(m.kind, m.share);
  ctx.report.config("mix", std::move(mix));

  // Set-up, 30 times before the phases and 30 after them, so the samples
  // do not all share one moment of the host; setup_s is their median.
  std::vector<double> setup;
  std::unique_ptr<service::ServiceDaemon> daemon;
  const auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      daemon.reset();
      const std::int64_t t0 = now_ns();
      daemon = start_daemon(socket, sessions, ctx.opt.seed);
      setup.push_back(seconds_between(t0, now_ns()));
    }
  };
  set_up(30);

  // The client process: this binary again, in client mode.
  const std::string out = dir + "/svc-" + std::to_string(::getpid()) + ".txt";
  std::vector<std::string> args{
      "/proc/self/exe", "--service-client", "--socket", socket,
      "--out", out, "--seed", std::to_string(ctx.opt.seed),
      "--seconds", std::to_string(ctx.opt.seconds),
      "--sessions", std::to_string(sessions),
      "--trace", ctx.opt.trace ? "1" : "0"};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    throw std::runtime_error("cannot spawn the service client");
  }
  // Watch the backlog while the client runs; stop it if it overruns.
  // stats() copies and sorts the daemon's latency window under its lock,
  // so it is sampled only every 50 ms to keep the probe off the
  // workers' path.
  std::size_t backlog_max = 0;
  int status = 0;
  const std::int64_t t0 = now_ns();
  const double limit_s = 4.0 * ctx.opt.seconds + 60.0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) throw std::runtime_error("waitpid failed");
    backlog_max = std::max(backlog_max, daemon->stats().queue_depth);
    if (seconds_between(t0, now_ns()) > limit_s) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      throw std::runtime_error("service client overran its time limit");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const service::ServiceDaemon::Stats st = daemon->stats();
  daemon->stop();
  set_up(30);
  daemon.reset();
  ctx.report.metric("setup_s", median(setup), "s", setup.size());
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("service client failed");
  }

  // Read the client's record.
  std::ifstream is(out);
  std::size_t mismatched = 0;
  std::size_t open_n = 0;
  std::size_t rounds = 0;
  std::size_t round_jobs = 0;
  std::vector<double> rtt;
  std::vector<double> round_s;
  std::vector<double> lat;
  std::vector<double> late;
  std::map<std::string, std::vector<double>> run_ms;
  std::map<std::string, std::vector<double>> kind_lat;
  std::size_t rejected = 0;
  std::size_t errors = 0;
  std::size_t closed_n = 0;
  std::uint64_t request_id = 0;
  std::string key;
  while (is >> key) {
    if (key == "open") is >> open_n;
    else if (key == "rounds") is >> rounds;
    else if (key == "round_jobs") is >> round_jobs;
    else if (key == "mismatched") is >> mismatched;
    else if (key == "open_s") { double x; is >> x; ctx.report.config("open_loop_s", x); }
    else if (key == "rtt") { double x; is >> x; rtt.push_back(x); }
    else if (key == "round_s") { double x; is >> x; round_s.push_back(x); }
    else if (key == "run") {
      std::string kind;
      double x = 0.0;
      is >> kind >> x;
      run_ms[kind].push_back(x);
    }
    else if (key == "closed") is >> closed_n;
    else if (key == "req") {
      std::string kind;
      int type = 0;
      std::int64_t due = 0;
      std::int64_t sent = 0;
      std::int64_t reply = 0;
      is >> kind >> type >> due >> sent >> reply;
      const double latency = ms(due, reply);
      const double lateness = ms(due, sent);
      if (ctx.tracer.enabled()) {
        // One group per request: the request from due time to reply,
        // and inside it the generator's lateness before the send.
        const std::uint64_t id = ++request_id;
        Span req;
        req.name = "service.request." + kind;
        req.start_ns = due;
        req.end_ns = reply;
        req.group = id;
        const std::int64_t parent = ctx.tracer.add(req);
        if (sent > due) {
          Span wait;
          wait.name = "bench.gen_late";
          wait.start_ns = due;
          wait.end_ns = sent;
          wait.parent = parent;
          wait.group = id;
          ctx.tracer.add(wait);
        }
      }
      const auto ft = static_cast<FrameType>(type);
      if (ft == FrameType::kReject) ++rejected;
      if (ft == FrameType::kError) ++errors;
      const bool ok = ft == FrameType::kResult;
      lat.push_back(ok ? latency : std::numeric_limits<double>::infinity());
      late.push_back(lateness);
      if (ok) kind_lat[kind].push_back(latency);
    }
  }
  std::remove(out.c_str());
  if (lat.size() != open_n || rounds == 0) {
    throw std::runtime_error("service client record is incomplete");
  }

  // Checks: accounting identity, every reply a result equal to the
  // local run_job, nothing refused.
  ctx.report.check(st.jobs_submitted == st.jobs_accepted + st.jobs_rejected,
                   "service: submitted != accepted + rejected");
  ctx.report.passed(lat.size() + closed_n - mismatched);
  for (std::size_t i = 0; i < mismatched; ++i) {
    ctx.report.check(false, "service: reply differs from local run_job "
                            "(or was refused / an error)");
  }

  const Percentile p50 = percentile(lat, 0.5);
  const Percentile p99 = percentile(lat, 0.99);
  ctx.report.percentile("req_p50_ms", p50, "ms");
  ctx.report.percentile("req_p99_ms", p99, "ms");
  // Per kind too, so the figures can be re-weighted to another mix.
  for (const auto& [kind, v] : kind_lat) {
    ctx.report.percentile("service.req_ms." + kind + ".p50",
                          percentile(v, 0.5), "ms");
    ctx.report.percentile("service.req_ms." + kind + ".p90",
                          percentile(v, 0.9), "ms");
  }
  const double round_med = median(round_s);
  ctx.report.metric("wall_s", round_med, "s", round_s.size());
  ctx.report.metric("throughput_rps",
                    static_cast<double>(round_jobs) / round_med, "1/s",
                    round_s.size());
  const Percentile late99 = percentile(late, 0.99);
  ctx.report.percentile("bench.gen_late_ms.p99", late99, "ms");
  ctx.report.metric("bench.gen_late_ms.max",
                    late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
                    "ms", late.size());
  if (!late99.supported || late99.value > kLateLimitMs) {
    ctx.report.invalidate("open-loop generator fell behind: p99 lateness " +
                          std::to_string(late99.value) + " ms");
  }
  ctx.report.percentile("service.rtt_ms", percentile(rtt, 0.5), "ms");
  ctx.report.metric("service.daemon_p50_ms", st.latency_p50_ms, "ms");
  ctx.report.metric("service.daemon_p99_ms", st.latency_p99_ms, "ms");
  ctx.report.metric("service.rejected", static_cast<double>(rejected), "count");
  ctx.report.metric("service.errors", static_cast<double>(errors), "count");
  ctx.report.metric("service.backlog_max", static_cast<double>(backlog_max),
                    "count");
  if (!run_ms.empty()) {
    // Queue wait = client latency - that kind's run time alone.
    std::map<std::string, double> run_p50;
    for (const auto& [kind, v] : run_ms) {
      const Percentile p = percentile(v, 0.5);
      run_p50[kind] = p.value;
      ctx.report.percentile("service.run_ms." + kind, p, "ms");
    }
    std::vector<double> queue;
    for (const auto& [kind, v] : kind_lat) {
      for (const double x : v) queue.push_back(x - run_p50[kind]);
    }
    ctx.report.percentile("service.queue_ms.p50", percentile(queue, 0.5),
                          "ms");
    ctx.report.percentile("service.queue_ms.p99", percentile(queue, 0.99),
                          "ms");
  }
  std::cout << "service: " << lat.size() << " open-loop requests, p50 "
            << p50.value << " ms, p99 " << p99.value << " ms; " << rounds
            << " closed-loop rounds, " << round_jobs / round_med << " req/s\n";
}

}  // namespace perfbench
