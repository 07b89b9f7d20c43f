// Quick-start for the long-lived simulation service.
//
// Default mode is self-contained (and is what the ctest smoke run
// exercises): start a daemon on a private AF_UNIX socket, drive a short
// session through ServiceClient — ping, a cached Eb-bar lookup, a
// waveform BER job cut into two shards (in-process slices, the same
// result as one), a node-churn round — print the replies and
// the daemon's admission/latency stats, and shut down cleanly.
//
//   ./example_service_daemon                # demo session, then exit
//   ./example_service_daemon --serve /tmp/comimo.sock [--seconds 30]
//
// --serve keeps the daemon listening on the given socket so external
// clients can connect (see README); it exits after --seconds (default
// 30) so unattended runs always terminate.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "comimo/common/table.h"
#include "comimo/service/client.h"
#include "comimo/service/daemon.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace comimo;
using namespace comimo::service;

namespace {

ServiceConfig demo_config(std::string socket) {
  ServiceConfig cfg;
  cfg.socket_path = std::move(socket);
  cfg.service_workers = 2;
  cfg.mc_threads = 2;
  cfg.queue_capacity = 16;
  cfg.ebbar_spec.ber_targets = {1e-2, 1e-3};
  cfg.ebbar_spec.b_min = 1;
  cfg.ebbar_spec.b_max = 4;
  cfg.ebbar_spec.m_max = 2;
  return cfg;
}

std::string first_line(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

int run_demo() {
#if defined(__unix__) || defined(__APPLE__)
  const std::string socket =
      "/tmp/comimo_svc_demo_" + std::to_string(::getpid()) + ".sock";
#else
  const std::string socket = "comimo_svc_demo.sock";
#endif
  ServiceDaemon daemon(demo_config(socket));
  std::cout << "daemon listening on " << socket << "\n\n";

  ServiceClient client(socket, /*session_seed=*/42);
  std::cout << "session established (seed 42); hello-ack:";
  for (const auto& [key, value] : client.hello_ack()) {
    std::cout << " " << key << "=" << value;
  }
  std::cout << "\n\n";

  const JobSpec jobs[] = {
      {"ping", {}},
      {"ebbar_min", {{"p", "1e-3"}, {"mt", "2"}, {"mr", "2"}}},
      {"waveform_ber",
       {{"b", "2"},
        {"mt", "2"},
        {"mr", "2"},
        {"blocks", "800"},
        {"gamma_b_db", "8"},
        {"seed", "7"},
        {"shards", "2"}}},
      {"net_churn",
       {{"nodes", "300"},
        {"rounds", "4"},
        {"kill_per_round", "12"},
        {"seed", "5"}}},
  };
  for (const auto& spec : jobs) {
    const auto reply = client.call(spec);
    std::cout << "== " << spec.kind << " -> " << frame_type_name(reply.type)
              << " (id " << reply.id << ")\n"
              << reply.body << "\n";
  }

  std::cout << "== obs metrics dump (first line): "
            << first_line(client.metrics_dump()) << "\n\n";

  const auto stats = daemon.stats();
  TextTable table({"stat", "value"});
  table.add_row({"jobs submitted", std::to_string(stats.jobs_submitted)});
  table.add_row({"jobs accepted", std::to_string(stats.jobs_accepted)});
  table.add_row({"jobs rejected", std::to_string(stats.jobs_rejected)});
  table.add_row({"jobs completed", std::to_string(stats.jobs_completed)});
  table.add_row({"latency p50 [ms]", TextTable::fmt(stats.latency_p50_ms)});
  table.add_row({"latency p99 [ms]", TextTable::fmt(stats.latency_p99_ms)});
  table.print(std::cout);

  daemon.stop();
  std::cout << "\ndaemon stopped cleanly\n";
  return 0;
}

int run_serve(const std::string& socket, unsigned seconds) {
  ServiceDaemon daemon(demo_config(socket));
  std::cout << "daemon serving on " << socket << " for " << seconds
            << " s\n";
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  const auto stats = daemon.stats();
  daemon.stop();
  std::cout << "served " << stats.sessions_opened << " sessions, "
            << stats.jobs_completed << " jobs completed, "
            << stats.jobs_rejected << " rejected\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!sockets_available()) {
    std::cout << "service_daemon: no AF_UNIX sockets on this platform\n";
    return 0;
  }
  std::string serve_path;
  unsigned seconds = 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  return serve_path.empty() ? run_demo() : run_serve(serve_path, seconds);
}
