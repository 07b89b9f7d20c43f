// The long-lived simulation daemon.
//
// One ServiceDaemon owns what a fleet of one-shot bench processes keeps
// rebuilding: the ē_b preprocessing table (JobRuntime), per-worker
// engine ThreadPools whose thread_local HopBatchWorkspaces persist
// across jobs, and the obs registry.  Clients connect over an AF_UNIX
// socket (service/wire.h), open a session with a seed, and stream job
// requests; results come back in request order as comimo-bench-v1
// envelopes that are byte-replayable (service/job.h).
//
// Thread structure (all joined by stop()):
//
//   accept loop ── one per daemon: accepts, spawns sessions, reaps
//                  finished ones
//   session reader ── parses frames, admits jobs into the shared
//                  JobQueue (kReject + retry_after_ms when full), and
//                  queues the reply slot — rejects included — so the
//                  writer emits every reply in request order
//   session writer ── waits each slot's future, sends the frame; a send
//                  failure (client vanished mid-stream) just stops the
//                  sending, the remaining futures are still drained so
//                  worker promises never dangle
//   service worker ── pops jobs, runs them on its private engine pool
//                  (ServiceConfig::mc_threads — the "threads" value in
//                  every envelope), fulfills the promise.  A job that
//                  throws (bad params, an infeasible solve) becomes a
//                  kError reply; the daemon never dies with a job.
//
// Liveness/latency accounting: accepted/rejected/completed/failed
// counters plus a fixed-size latency reservoir from which stats()
// computes p50/p99; both are mirrored into obs runtime-domain metrics
// (service.* — excluded from determinism diffs by design).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comimo/energy/ebbar_table.h"
#include "comimo/service/job.h"
#include "comimo/service/queue.h"

namespace comimo::service {

struct ServiceConfig {
  std::string socket_path;
  /// Concurrent job executors (each owns a private engine pool).
  unsigned service_workers = 2;
  /// Engine threads per worker.  Fixed at construction and reported as
  /// "threads" in every envelope, so replay output is independent of
  /// the machine the daemon happens to run on.
  unsigned mc_threads = 1;
  /// Jobs admitted but not yet claimed by a worker; beyond this,
  /// kReject.
  std::size_t queue_capacity = 32;
  /// Retry hint carried in kReject payloads.
  unsigned retry_after_ms = 50;
  /// Latency reservoir size for the p50/p99 estimate.
  std::size_t latency_window = 4096;
  /// ē_b grid for the cached table; tests shrink it, the default is
  /// the paper's full sweep.
  EbBarTable::Spec ebbar_spec{};
  /// Warm-start directory for the serialized ē_b table (see
  /// JobRuntime): non-empty lets a daemon restart load the table from
  /// <dir>/ebbar-<spec hash>.table instead of rebuilding it.  Empty
  /// disables the disk cache.
  std::string table_cache_dir;
};

class ServiceDaemon {
 public:
  /// Binds the socket and starts every thread; throws on bind failure
  /// or invalid config.
  explicit ServiceDaemon(ServiceConfig config);
  ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Idempotent full shutdown: stops accepting, unblocks every session,
  /// drains the queue (accepted jobs still complete), joins all
  /// threads, removes the socket file.
  void stop();

  struct Stats {
    std::uint64_t jobs_submitted = 0;  ///< == accepted + rejected
    std::uint64_t jobs_accepted = 0;
    std::uint64_t jobs_rejected = 0;
    std::uint64_t jobs_completed = 0;  ///< includes failed
    std::uint64_t jobs_failed = 0;
    std::uint64_t sessions_opened = 0;
    std::size_t queue_depth = 0;
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Session;

  void accept_loop();
  void worker_loop();
  void session_reader(Session& session);
  void session_writer(Session& session);
  void record_latency(double ms);
  void reap_sessions(bool all);

  ServiceConfig config_;
  int listen_fd_ = -1;
  JobQueue queue_;
  JobRuntime runtime_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};

  mutable std::mutex latency_mu_;
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::size_t latency_count_ = 0;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::vector<std::thread> workers_;
  std::thread accept_thread_;
};

}  // namespace comimo::service
