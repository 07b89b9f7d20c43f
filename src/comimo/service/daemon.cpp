#include "comimo/service/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/obs/export.h"
#include "comimo/obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define COMIMO_HAS_SOCKETS 1
#include <sys/socket.h>
#include <unistd.h>
#else
#define COMIMO_HAS_SOCKETS 0
#endif

namespace comimo::service {

namespace {

void shutdown_fd(int fd) noexcept {
#if COMIMO_HAS_SOCKETS
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
#else
  (void)fd;
#endif
}

void accept_unblock(int fd) noexcept { shutdown_fd(fd); }

int accept_fd(int listen_fd) noexcept {
#if COMIMO_HAS_SOCKETS
  return ::accept(listen_fd, nullptr, nullptr);
#else
  (void)listen_fd;
  return -1;
#endif
}

void unlink_path(const std::string& path) noexcept {
#if COMIMO_HAS_SOCKETS
  ::unlink(path.c_str());
#else
  (void)path;
#endif
}

// Service liveness metrics — runtime domain by definition (they depend
// on client behavior and wall time), so determinism diffs ignore them.
struct ServiceMetrics {
  obs::Counter accepted;
  obs::Counter rejected;
  obs::Counter completed;
  obs::Counter failed;
  obs::Gauge p50_ms;
  obs::Gauge p99_ms;
  obs::Gauge queue_depth;

  static ServiceMetrics& get() {
    static ServiceMetrics m{
        obs::MetricRegistry::global().counter("service.jobs_accepted",
                                              obs::Domain::kRuntime),
        obs::MetricRegistry::global().counter("service.jobs_rejected",
                                              obs::Domain::kRuntime),
        obs::MetricRegistry::global().counter("service.jobs_completed",
                                              obs::Domain::kRuntime),
        obs::MetricRegistry::global().counter("service.jobs_failed",
                                              obs::Domain::kRuntime),
        obs::MetricRegistry::global().gauge("service.job_latency_p50_ms",
                                            obs::Domain::kRuntime),
        obs::MetricRegistry::global().gauge("service.job_latency_p99_ms",
                                            obs::Domain::kRuntime),
        obs::MetricRegistry::global().gauge("service.queue_depth",
                                            obs::Domain::kRuntime)};
    return m;
  }
};

/// Nearest-rank percentile of an unsorted copy; q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

std::uint64_t parse_u64_field(const std::map<std::string, std::string>& kv,
                              const std::string& key, std::uint64_t fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw InvalidArgument("service: field " + key +
                          " is not an integer: " + it->second);
  }
  return static_cast<std::uint64_t>(v);
}

std::string metrics_dump_payload() {
  Json out = Json::object();
  out.set("metrics", obs::metrics_to_json(obs::MetricRegistry::global(),
                                          obs::Domain::kDeterministic));
  out.set("metrics_runtime",
          obs::metrics_to_json(obs::MetricRegistry::global(),
                               obs::Domain::kRuntime));
  return out.dump_string(2);
}

}  // namespace

/// One client connection.  The reader and writer threads share only the
/// reply deque; `finished` flips when the writer (always the last of
/// the two to make progress) exits, which is what lets the accept loop
/// reap the session without blocking on a live one.
struct ServiceDaemon::Session {
  int fd = -1;
  std::uint64_t session_seed = 0;

  struct ReplySlot {
    bool immediate = false;
    JobOutcome outcome;               ///< valid when immediate
    std::future<JobOutcome> future;   ///< valid otherwise
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<ReplySlot> replies;
  bool reader_done = false;
  std::atomic<bool> finished{false};

  std::thread reader;
  std::thread writer;

  void push_immediate(FrameType type, std::string payload) {
    ReplySlot slot;
    slot.immediate = true;
    slot.outcome = JobOutcome{type, std::move(payload)};
    {
      const std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(slot));
    }
    cv.notify_one();
  }

  void push_future(std::future<JobOutcome> future) {
    ReplySlot slot;
    slot.future = std::move(future);
    {
      const std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(slot));
    }
    cv.notify_one();
  }
};

ServiceDaemon::ServiceDaemon(ServiceConfig config)
    : config_(std::move(config)),
      queue_(std::max<std::size_t>(1, config_.queue_capacity)),
      runtime_(config_.ebbar_spec, config_.table_cache_dir) {
  if (config_.socket_path.empty()) {
    throw InvalidArgument("service: socket_path must be set");
  }
  config_.service_workers = std::max(1u, config_.service_workers);
  config_.mc_threads = std::max(1u, config_.mc_threads);
  config_.latency_window = std::max<std::size_t>(1, config_.latency_window);
  latency_ring_.assign(config_.latency_window, 0.0);

  listen_fd_ = listen_unix(config_.socket_path);
  workers_.reserve(config_.service_workers);
  for (unsigned w = 0; w < config_.service_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::stop() {
  // Single-caller contract (the owning thread); safe to call twice.
  stopping_.store(true);
  if (listen_fd_ >= 0) accept_unblock(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock every session reader, then join sessions while the workers
  // are still alive — a writer may be waiting on a queued job's future.
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) shutdown_fd(session->fd);
  }
  reap_sessions(/*all=*/true);
  queue_.close();  // drains: accepted jobs still execute
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
    unlink_path(config_.socket_path);
  }
}

void ServiceDaemon::accept_loop() {
  for (;;) {
    const int fd = accept_fd(listen_fd_);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener broken; stop() still reaps everything
    }
    if (stopping_.load()) {
      close_fd(fd);
      break;
    }
    reap_sessions(/*all=*/false);
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    {
      const std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    raw->reader = std::thread([this, raw] { session_reader(*raw); });
    raw->writer = std::thread([this, raw] { session_writer(*raw); });
  }
}

void ServiceDaemon::reap_sessions(bool all) {
  std::vector<std::unique_ptr<Session>> dead;
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (all || (*it)->finished.load()) {
        dead.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& session : dead) {
    if (session->reader.joinable()) session->reader.join();
    if (session->writer.joinable()) session->writer.join();
    close_fd(session->fd);
  }
}

void ServiceDaemon::session_reader(Session& session) {
  Frame frame;
  bool hello_done = false;
  while (recv_frame(session.fd, frame)) {
    if (frame.type == FrameType::kBye) break;

    if (frame.type == FrameType::kHello) {
      try {
        const auto kv = parse_kv_text(frame.payload);
        const auto proto = kv.find("proto");
        if (proto == kv.end() || proto->second != kProtocolName) {
          throw InvalidArgument("service: protocol mismatch");
        }
        session.session_seed = parse_u64_field(kv, "session_seed", 0);
        std::string ack = std::string("proto=") + kProtocolName;
        ack += "\nmc_threads=" + std::to_string(config_.mc_threads);
        ack += "\nworkers=" + std::to_string(config_.service_workers);
        ack += "\nqueue_capacity=" + std::to_string(queue_.capacity());
        session.push_immediate(FrameType::kHelloAck, std::move(ack));
        hello_done = true;
      } catch (const std::exception& e) {
        session.push_immediate(FrameType::kError,
                               std::string("id=0\nerror=") + e.what());
        break;
      }
      continue;
    }

    if (!hello_done) {
      session.push_immediate(FrameType::kError,
                             "id=0\nerror=hello required first");
      break;
    }

    if (frame.type == FrameType::kMetricsReq) {
      session.push_immediate(FrameType::kMetricsDump,
                             metrics_dump_payload());
      continue;
    }

    if (frame.type != FrameType::kRequest) {
      session.push_immediate(
          FrameType::kError,
          std::string("id=0\nerror=unexpected frame ") +
              frame_type_name(frame.type));
      continue;
    }

    // kRequest.  Malformed text never reaches the queue (kError reply,
    // not counted as submitted); a well-formed request is exactly one
    // of accepted / rejected — the accounting identity the bench gate
    // checks.
    std::uint64_t id = 0;
    try {
      auto kv = parse_kv_text(frame.payload);
      id = parse_u64_field(kv, "id", 0);
      kv.erase("id");
      const auto kind_it = kv.find("kind");
      if (kind_it == kv.end() || kind_it->second.empty()) {
        throw InvalidArgument("service: request without kind=");
      }
      Job job;
      job.id = id;
      job.session_seed = session.session_seed;
      job.spec.kind = kind_it->second;
      kv.erase(kind_it);
      job.spec.params = std::move(kv);
      std::future<JobOutcome> future = job.done.get_future();

      jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
      if (queue_.try_push(std::move(job))) {
        jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
        ServiceMetrics::get().accepted.add();
        session.push_future(std::move(future));
      } else {
        jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
        ServiceMetrics::get().rejected.add();
        std::string payload = "id=" + std::to_string(id);
        payload +=
            "\nretry_after_ms=" + std::to_string(config_.retry_after_ms);
        payload += "\nqueue_capacity=" + std::to_string(queue_.capacity());
        session.push_immediate(FrameType::kReject, std::move(payload));
      }
    } catch (const std::exception& e) {
      session.push_immediate(FrameType::kError,
                             "id=" + std::to_string(id) +
                                 "\nerror=" + e.what());
    }
  }
  {
    const std::lock_guard<std::mutex> lock(session.mu);
    session.reader_done = true;
  }
  session.cv.notify_all();
}

void ServiceDaemon::session_writer(Session& session) {
  bool send_ok = true;
  std::unique_lock<std::mutex> lock(session.mu);
  for (;;) {
    session.cv.wait(lock, [&session] {
      return session.reader_done || !session.replies.empty();
    });
    if (session.replies.empty()) {
      if (session.reader_done) break;
      continue;
    }
    Session::ReplySlot slot = std::move(session.replies.front());
    session.replies.pop_front();
    lock.unlock();
    // Waiting on the future happens outside the session lock so the
    // reader keeps admitting while a job runs.  A send failure means
    // the client vanished mid-stream: stop sending but keep draining,
    // so every accepted job's promise is consumed and the daemon's
    // accounting still adds up.
    JobOutcome outcome = slot.immediate ? std::move(slot.outcome)
                                        : slot.future.get();
    if (send_ok && !send_frame(session.fd, outcome.type, outcome.payload)) {
      send_ok = false;
    }
    lock.lock();
  }
  lock.unlock();
  session.finished.store(true);
}

void ServiceDaemon::worker_loop() {
  // The worker-lifetime engine pool: thread_local HopBatchWorkspaces
  // inside measure_waveform_ber live exactly as long as these threads,
  // so the arenas persist across jobs — the pre-shaped workspace pool
  // the daemon promises.
  ThreadPool pool(config_.mc_threads);
  Job job;
  while (queue_.pop(job)) {
    ServiceMetrics::get().queue_depth.set(
        static_cast<double>(queue_.depth()));
    const auto t0 = std::chrono::steady_clock::now();
    JobOutcome outcome;
    const std::string id_line = "id=" + std::to_string(job.id) + "\n";
    try {
      const Json envelope =
          run_job(job.spec, job.session_seed, runtime_, pool);
      outcome.type = FrameType::kResult;
      outcome.payload = id_line + envelope.dump_string(2);
    } catch (const std::exception& e) {
      // Bad params, an infeasible solve — all recoverable: reply
      // kError, keep serving.
      outcome.type = FrameType::kError;
      outcome.payload = id_line + "error=" + e.what();
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      ServiceMetrics::get().failed.add();
    }
    const auto t1 = std::chrono::steady_clock::now();
    record_latency(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    ServiceMetrics::get().completed.add();
    job.done.set_value(std::move(outcome));
  }
}

void ServiceDaemon::record_latency(double ms) {
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(latency_mu_);
    latency_ring_[latency_next_] = ms;
    latency_next_ = (latency_next_ + 1) % latency_ring_.size();
    latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
    // Refresh the obs gauges every 32 samples (and on the first), not
    // per job — the sort is O(window log window).
    if (latency_count_ != 1 && latency_count_ % 32 != 0) return;
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  ServiceMetrics::get().p50_ms.set(percentile(window, 0.50));
  ServiceMetrics::get().p99_ms.set(percentile(window, 0.99));
}

ServiceDaemon::Stats ServiceDaemon::stats() const {
  Stats stats;
  stats.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  stats.jobs_accepted = jobs_accepted_.load(std::memory_order_relaxed);
  stats.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  stats.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  stats.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.depth();
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(latency_mu_);
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  stats.latency_p50_ms = percentile(window, 0.50);
  stats.latency_p99_ms = percentile(std::move(window), 0.99);
  return stats;
}

}  // namespace comimo::service
