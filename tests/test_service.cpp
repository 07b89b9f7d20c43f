// The long-lived simulation service (service/): protocol, replay,
// admission control, and daemon-grade robustness.
//
// The headline contracts under test:
//   * session replay — the same session seed and request sequence
//     produce byte-identical kResult payloads on a 1-worker and a
//     4-worker daemon, and across a reconnect;
//   * deterministic backpressure — a full queue rejects with
//     retry_after_ms instead of blocking or dropping, and the
//     accounting identity submitted == accepted + rejected holds;
//   * robustness — the daemon survives a client that vanishes
//     mid-stream, bad requests, and node-churn jobs, without aborting
//     or wedging.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/service/client.h"
#include "comimo/service/daemon.h"
#include "comimo/service/job.h"
#include "comimo/service/wire.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace comimo::service {
namespace {

/// Short, unique AF_UNIX path (sun_path is ~104 bytes; build trees are
/// deep, so anchor in /tmp).
std::string test_socket_path(const char* tag) {
  return "/tmp/comimo_svc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A small ē_b grid so daemons in tests build their table in
/// milliseconds; jobs that never touch ebbar_min don't build it at all.
EbBarTable::Spec tiny_ebbar_spec() {
  EbBarTable::Spec spec;
  spec.ber_targets = {1e-2, 1e-3};
  spec.b_min = 1;
  spec.b_max = 4;
  spec.m_max = 2;
  return spec;
}

ServiceConfig test_config(const char* tag) {
  ServiceConfig cfg;
  cfg.socket_path = test_socket_path(tag);
  cfg.service_workers = 2;
  cfg.mc_threads = 2;
  cfg.queue_capacity = 16;
  cfg.ebbar_spec = tiny_ebbar_spec();
  return cfg;
}

std::vector<JobSpec> replay_sequence() {
  std::vector<JobSpec> jobs;
  JobSpec ping;
  ping.kind = "ping";
  jobs.push_back(ping);
  JobSpec wb;
  wb.kind = "waveform_ber";
  wb.params = {{"b", "2"},     {"mt", "2"},          {"mr", "2"},
               {"blocks", "600"}, {"gamma_b_db", "6"}, {"seed", "3"}};
  jobs.push_back(wb);
  JobSpec eb;
  eb.kind = "ebbar_min";
  eb.params = {{"p", "1e-3"}, {"mt", "2"}, {"mr", "2"}};
  jobs.push_back(eb);
  JobSpec churn;
  churn.kind = "net_churn";
  churn.params = {{"nodes", "200"},
                  {"rounds", "4"},
                  {"kill_per_round", "8"},
                  {"seed", "11"}};
  jobs.push_back(churn);
  return jobs;
}

std::vector<std::string> run_sequence(const std::string& socket_path,
                                      std::uint64_t session_seed) {
  ServiceClient client(socket_path, session_seed);
  std::vector<std::string> results;
  for (const JobSpec& spec : replay_sequence()) {
    const auto reply = client.call(spec);
    EXPECT_EQ(reply.type, FrameType::kResult) << reply.body;
    results.push_back(reply.body);
  }
  return results;
}

TEST(ServiceWire, FrameRoundTripAndKvParsing) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  const auto kv = parse_kv_text("kind=ping\nid=7\n\nx=a=b");
  EXPECT_EQ(kv.at("kind"), "ping");
  EXPECT_EQ(kv.at("id"), "7");
  EXPECT_EQ(kv.at("x"), "a=b");  // only the first '=' splits
  EXPECT_THROW((void)parse_kv_text("noequals"), InvalidArgument);
  EXPECT_THROW((void)parse_kv_text("a=1\na=2"), InvalidArgument);
  EXPECT_THROW((void)JobSpec::parse("id=1"), InvalidArgument);

  // mix_seed: distinct pairs, stable values.
  EXPECT_EQ(mix_seed(1, 2), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(1, 2), mix_seed(1, 3));
}

TEST(Service, HelloAckAndPing) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("hello"));
  ServiceClient client(daemon.config().socket_path, 42);
  EXPECT_EQ(client.hello_ack().at("proto"), kProtocolName);
  EXPECT_EQ(client.hello_ack().at("mc_threads"), "2");
  const auto reply = client.call(JobSpec{"ping", {}});
  EXPECT_EQ(reply.type, FrameType::kResult);
  EXPECT_EQ(reply.id, 1u);
  EXPECT_NE(reply.body.find("\"schema\": \"comimo-bench-v1\""),
            std::string::npos);
  EXPECT_NE(reply.body.find("\"bench\": \"service\""), std::string::npos);
  // Replayable envelopes carry no clock fields.
  EXPECT_EQ(reply.body.find("timestamp_unix_s"), std::string::npos);
  EXPECT_EQ(reply.body.find("wall_s"), std::string::npos);
}

TEST(Service, ReplayIsByteIdenticalAcrossWorkerCountsAndReconnects) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  std::vector<std::string> one_worker;
  {
    ServiceConfig cfg = test_config("replay1");
    cfg.service_workers = 1;
    cfg.mc_threads = 1;
    ServiceDaemon daemon(cfg);
    one_worker = run_sequence(cfg.socket_path, 1234);
  }
  std::vector<std::string> four_workers;
  std::vector<std::string> reconnected;
  {
    ServiceConfig cfg = test_config("replay4");
    cfg.service_workers = 4;
    cfg.mc_threads = 1;  // "threads" is part of the envelope bytes
    ServiceDaemon daemon(cfg);
    four_workers = run_sequence(cfg.socket_path, 1234);
    // Reconnect: a fresh session with the same seed on the same (now
    // warmed-up) daemon reads the same bytes.
    reconnected = run_sequence(cfg.socket_path, 1234);
    // A different seed must diverge on the randomized jobs.
    const auto other = run_sequence(cfg.socket_path, 999);
    EXPECT_NE(other[1], four_workers[1]);  // waveform_ber
  }
  ASSERT_EQ(one_worker.size(), four_workers.size());
  for (std::size_t i = 0; i < one_worker.size(); ++i) {
    EXPECT_EQ(one_worker[i], four_workers[i]) << "job " << i;
    EXPECT_EQ(one_worker[i], reconnected[i]) << "job " << i;
  }
}

TEST(Service, PipelinedRepliesArriveInSubmissionOrder) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("pipeline"));
  ServiceClient client(daemon.config().socket_path, 7);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec;
    spec.kind = (i % 2 == 0) ? "ping" : "stall_ms";
    if (i % 2 != 0) spec.params["ms"] = "20";
    ids.push_back(client.submit(spec));
  }
  for (const std::uint64_t id : ids) {
    const auto reply = client.next_reply();
    EXPECT_EQ(reply.type, FrameType::kResult);
    EXPECT_EQ(reply.id, id);  // strict submission order, workers > 1
  }
}

TEST(Service, BackpressureRejectsDeterministically) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceConfig cfg = test_config("backpressure");
  cfg.service_workers = 1;
  cfg.queue_capacity = 2;
  cfg.retry_after_ms = 25;
  ServiceDaemon daemon(cfg);
  ServiceClient client(cfg.socket_path, 1);

  // One long stall occupies the single worker; the queue holds 2 more;
  // everything past (1 busy + 2 queued) must bounce.  Submit the first
  // stall alone and give the worker time to claim it (so it occupies
  // the worker, not a queue slot), then burst the rest — the daemon
  // reads one socket in order, so the reject set is deterministic.
  JobSpec stall;
  stall.kind = "stall_ms";
  stall.params["ms"] = "600";
  const int total = 8;
  (void)client.submit(stall);
  const auto claimed = [&daemon] {
    const auto s = daemon.stats();
    return s.jobs_accepted >= 1 && s.queue_depth == 0;
  };
  for (int spin = 0; spin < 200 && !claimed(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(claimed());  // worker claimed job 1, queue empty again
  for (int i = 1; i < total; ++i) (void)client.submit(stall);

  int results = 0;
  int rejects = 0;
  for (int i = 0; i < total; ++i) {
    const auto reply = client.next_reply();
    if (reply.type == FrameType::kResult) {
      ++results;
    } else {
      ASSERT_EQ(reply.type, FrameType::kReject) << reply.body;
      const auto kv = parse_kv_text(reply.body);
      EXPECT_EQ(kv.at("retry_after_ms"), "25");
      ++rejects;
    }
  }
  EXPECT_EQ(results, 3);  // 1 running + 2 queued
  EXPECT_EQ(rejects, total - 3);

  const auto stats = daemon.stats();
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_accepted + stats.jobs_rejected);
  EXPECT_EQ(stats.jobs_rejected, static_cast<std::uint64_t>(rejects));
}

TEST(Service, SurvivesClientVanishingMidStream) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("vanish"));
  {
    ServiceClient client(daemon.config().socket_path, 5);
    JobSpec stall;
    stall.kind = "stall_ms";
    stall.params["ms"] = "100";
    for (int i = 0; i < 6; ++i) (void)client.submit(stall);
    // Drop the connection with results still in flight.
    client.abort_connection();
  }
  // The daemon must still serve new sessions and eventually drain the
  // orphaned jobs (their promises are consumed, not leaked).
  ServiceClient fresh(daemon.config().socket_path, 6);
  const auto reply = fresh.call(JobSpec{"ping", {}});
  EXPECT_EQ(reply.type, FrameType::kResult);
  for (int spin = 0; spin < 200 && daemon.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(daemon.stats().queue_depth, 0u);
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_accepted + stats.jobs_rejected);
}

TEST(Service, BadRequestsGetErrorRepliesAndDaemonSurvives) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("bad"));
  ServiceClient client(daemon.config().socket_path, 9);

  // Unknown kind: accepted, fails at execution, kError reply.
  const auto unknown = client.call(JobSpec{"no_such_kind", {}});
  EXPECT_EQ(unknown.type, FrameType::kError);
  EXPECT_NE(unknown.body.find("unknown job kind"), std::string::npos);

  // Bad params: ebbar_min without its required BER target.
  const auto missing = client.call(JobSpec{"ebbar_min", {{"mt", "2"}}});
  EXPECT_EQ(missing.type, FrameType::kError);

  // Still alive.
  EXPECT_EQ(client.call(JobSpec{"ping", {}}).type, FrameType::kResult);
  EXPECT_GE(daemon.stats().jobs_failed, 2u);
}

TEST(Service, ShardedJobWithForkRunsUnderTheDaemon) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  // waveform_ber with shards=2 cuts each chunk round into two slices on
  // the worker's pool and must produce the same bytes as the shards=1
  // run (the engine's shard-count invariance), minus the shards param
  // itself.  A client's shards=2^64-1 starts no process and no extra
  // work: a round runs at most one slice per chunk.
  ServiceDaemon daemon(test_config("fork"));
  ServiceClient client(daemon.config().socket_path, 21);
  JobSpec one;
  one.kind = "waveform_ber";
  one.params = {{"b", "2"}, {"mt", "2"}, {"mr", "2"},
                {"blocks", "500"}, {"seed", "4"}, {"shards", "1"}};
  JobSpec two = one;
  two.params["shards"] = "2";
  JobSpec max = one;
  max.params["shards"] = "18446744073709551615";
  const auto r1 = client.call(one);
  const auto r2 = client.call(two);
  const auto rmax = client.call(max);
  ASSERT_EQ(r1.type, FrameType::kResult) << r1.body;
  ASSERT_EQ(r2.type, FrameType::kResult) << r2.body;
  ASSERT_EQ(rmax.type, FrameType::kResult) << rmax.body;
  // Compare the metrics blocks (params differ by the shards value).
  const auto metrics_of = [](const std::string& body) {
    const std::size_t at = body.find("\"metrics\"");
    return body.substr(at, body.find('}', at) - at);
  };
  EXPECT_EQ(metrics_of(r1.body), metrics_of(r2.body));
  EXPECT_EQ(metrics_of(r1.body), metrics_of(rmax.body));
}

TEST(Service, MetricsDumpAndChurnRounds) {
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("metrics"));
  ServiceClient client(daemon.config().socket_path, 2);
  // 10 rounds of node churn through the incremental re-clustering (and
  // the spatial grid's compaction path) under the daemon.
  JobSpec churn;
  churn.kind = "net_churn";
  churn.params = {{"nodes", "300"},
                  {"rounds", "10"},
                  {"kill_per_round", "12"},
                  {"seed", "8"}};
  const auto reply = client.call(churn);
  ASSERT_EQ(reply.type, FrameType::kResult) << reply.body;
  EXPECT_NE(reply.body.find("\"valid\": 1"), std::string::npos);

  const std::string dump = client.metrics_dump();
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics_runtime\""), std::string::npos);

  const auto stats = daemon.stats();
  EXPECT_GE(stats.jobs_completed, 1u);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

TEST(Service, EbBarTableWarmStartsFromDiskCache) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("comimo_tbl_cache_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const EbBarTable::Spec spec = tiny_ebbar_spec();

  // Cold start: builds and writes the cache file.
  JobRuntime cold(spec, dir);
  const std::string path = cold.table_cache_path();
  ASSERT_FALSE(path.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
  const EbBarTable& built = cold.ebbar_table();
  ASSERT_TRUE(std::filesystem::exists(path));

  // Warm start: a fresh runtime with the same spec + dir loads the file
  // and serves identical entries.
  JobRuntime warm(spec, dir);
  const EbBarTable& loaded = warm.ebbar_table();
  ASSERT_EQ(loaded.entries().size(), built.entries().size());
  for (std::size_t i = 0; i < built.entries().size(); ++i) {
    EXPECT_EQ(loaded.entries()[i].ebar, built.entries()[i].ebar) << i;
  }

  // A different spec must key a different file — never a false hit.
  EbBarTable::Spec other = spec;
  other.b_max = 2;
  JobRuntime other_rt(other, dir);
  EXPECT_NE(other_rt.table_cache_path(), path);

  // A corrupt cache file degrades to a rebuild (and a rewrite), never
  // to an error or a wrong table.
  {
    std::ofstream os(path, std::ios::trunc);
    os << "garbage\n";
  }
  JobRuntime corrupt(spec, dir);
  const EbBarTable& rebuilt = corrupt.ebbar_table();
  EXPECT_EQ(rebuilt.entries().size(), built.entries().size());

  std::filesystem::remove_all(dir);
}

TEST(Service, WaveformBerJobHonorsTargetCi) {
  // Through run_job directly — no sockets needed.  target_ci turns
  // blocks into a budget; the reply must record the early stop.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(2);
  JobSpec spec;
  spec.kind = "waveform_ber";
  spec.params = {{"b", "2"},       {"mt", "2"},         {"mr", "2"},
                 {"blocks", "60000"}, {"gamma_b_db", "6"}, {"seed", "4"},
                 {"target_ci", "0.25"}};
  const Json reply = run_job(spec, /*session_seed=*/9, rt, pool);
  const std::string body = reply.dump_string();
  EXPECT_NE(body.find("\"target_met\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"trials_executed\""), std::string::npos);
  // Replay contract: the adaptive stop is deterministic, so the whole
  // envelope replays byte-identically.
  const Json again = run_job(spec, /*session_seed=*/9, rt, pool);
  EXPECT_EQ(body, again.dump_string());
}

TEST(Service, WaveformBerJobRejectsIsScaleBelowOne) {
  // The IS kernel only DCHECKs its scales, so in a Release build
  // is_scale=0 would come back as "ber": null.  The job must fail with
  // InvalidArgument instead, which the daemon turns into a kError reply.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(2);
  JobSpec spec;
  spec.kind = "waveform_ber";
  spec.params = {{"blocks", "4000"}, {"target_ci", "0.2"}, {"is", "1"},
                 {"is_scale", "0"}};
  EXPECT_THROW((void)run_job(spec, /*session_seed=*/9, rt, pool),
               InvalidArgument);
}

TEST(Service, WaveformBerJobWithIsButNoCiTargetGetsAnErrorReply) {
  // is=1 without target_ci used to reply a plain untilted point
  // ("ber": 0 at this deep point) with no IS fields.
  if (!sockets_available()) GTEST_SKIP() << "no AF_UNIX sockets";
  ServiceDaemon daemon(test_config("is_no_ci"));
  ServiceClient client(daemon.config().socket_path, 9);
  const auto reply = client.call(JobSpec{
      "waveform_ber",
      {{"blocks", "4000"}, {"is", "1"}, {"is_chan", "3"},
       {"gamma_b_db", "12"}}});
  EXPECT_EQ(reply.type, FrameType::kError) << reply.body;
  EXPECT_NE(reply.body.find("target_rel_ci"), std::string::npos)
      << reply.body;
}

// Integer params used to go through strtoull and an unchecked cast: a
// count above the destination type wrapped, and "-1" read as 2^64 - 1.
// Each of the three jobs below returned a result.

TEST(Service, WaveformBerJobRejectsMtThatWrapsToTwo) {
  // 4294967298 = 2^32 + 2 ran as a 2x2 job.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  const JobSpec spec{"waveform_ber",
                     {{"blocks", "64"}, {"mt", "4294967298"}}};
  EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument);
}

TEST(Service, EbBarMinJobRejectsMtThatWrapsToTwo) {
  // Answered for 2x2.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  const JobSpec spec{"ebbar_min", {{"p", "0.001"}, {"mt", "4294967298"}}};
  EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument);
}

TEST(Service, NetChurnJobRejectsNegativeKillCount) {
  // -1 read as 2^64 - 1 and killed all but one node per round.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  const JobSpec spec{"net_churn",
                     {{"nodes", "60"}, {"rounds", "2"},
                      {"kill_per_round", "-1"}}};
  EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument);
}

TEST(Service, IntegerParamsRejectSignsOverflowAndNarrowing) {
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  const auto ebbar_min_with = [](const std::string& key,
                                 const std::string& value) {
    JobSpec spec{"ebbar_min", {{"p", "0.001"}}};
    spec.params[key] = value;
    return spec;
  };
  for (const char* bad : {"-1", "+2", " 2", "2 ", "", "0x2", "2.0",
                          "18446744073709551616", "4294967296"}) {
    EXPECT_THROW((void)run_job(ebbar_min_with("mt", bad), 9, rt, pool),
                 InvalidArgument)
        << "mt=" << bad;
  }
  // b lands in an int: 2^31 no longer wraps to a negative constellation.
  const JobSpec wide_b{"waveform_ber", {{"blocks", "64"}, {"b", "2147483648"}}};
  EXPECT_THROW((void)run_job(wide_b, 9, rt, pool), InvalidArgument);
  // A seed may use the full 64 bits; 2^64 overflows.
  const JobSpec max_seed{"net_churn", {{"nodes", "60"}, {"rounds", "1"},
                                       {"seed", "18446744073709551615"}}};
  EXPECT_NO_THROW((void)run_job(max_seed, 9, rt, pool));
  JobSpec over_seed = max_seed;
  over_seed.params["seed"] = "18446744073709551616";
  EXPECT_THROW((void)run_job(over_seed, 9, rt, pool), InvalidArgument);
  // Plain digits, leading zeros included, still parse.
  EXPECT_NO_THROW((void)run_job(ebbar_min_with("mt", "02"), 9, rt, pool));
}

// Double params went through strtod unchecked, so "inf" and "nan" (and
// overflowing literals, which strtod turns into inf) reached the engine.

TEST(Service, WaveformBerJobRejectsInfiniteGammaB) {
  // gamma_b_db=inf replied a BER of 0.52 with a null analytic BER.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  for (const char* bad : {"inf", "-inf", "INFINITY", "1e999"}) {
    const JobSpec spec{"waveform_ber",
                       {{"blocks", "64"}, {"gamma_b_db", bad}}};
    EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument)
        << "gamma_b_db=" << bad;
  }
}

TEST(Service, EbBarMinJobRejectsInfiniteTarget) {
  // p=inf replied b: 1 with an e_b and a null p grid.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  const JobSpec spec{"ebbar_min", {{"p", "inf"}}};
  EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument);
}

TEST(Service, WaveformBerJobRejectsNanCiTarget) {
  // target_ci=nan silently ran the fixed-budget path.
  JobRuntime rt(tiny_ebbar_spec());
  ThreadPool pool(1);
  for (const char* bad : {"nan", "-nan", "NAN"}) {
    const JobSpec spec{"waveform_ber",
                       {{"blocks", "64"}, {"target_ci", bad}}};
    EXPECT_THROW((void)run_job(spec, 9, rt, pool), InvalidArgument)
        << "target_ci=" << bad;
  }
}

}  // namespace
}  // namespace comimo::service
