// perfbench — one workload of the repository benchmark per process.
//
//   perfbench --workload <paper|ber|net|service> --seed <n> --seconds <s>
//             --trace <0|1> --out <results.json>
//
// Prints a human-readable summary and writes the full record (metrics
// with units and sample counts, output checks, configuration and the
// environment) to --out.  A traced run writes its spans next to it, as
// <results>.spans.jsonl, and the service workload puts its socket in
// the same directory.  run.py builds this binary, runs it in a fresh
// process per workload and prints the benchmark's result line.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "comimo/numeric/simd/simd.h"
#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using comimo::Json;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper|ber|net|service> --seed <n>"
               " --seconds <s> --trace <0|1> --out <path>\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || *end != '\0' || errno != 0) {
    usage(std::string("bad ") + what + ": " + s);
  }
  return v;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_u64(v, "seed");
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(v, "seconds"));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out_path = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty() || o.out_path.empty()) usage("need --workload and --out");
  if (o.seconds < 1.0) usage("--seconds must be at least 1");
  // The span dump and the service socket go next to the record.
  const std::string& out = o.out_path;
  const std::string stem =
      out.ends_with(".json") ? out.substr(0, out.size() - 5) : out;
  o.spans_path = stem + ".spans.jsonl";
  const auto slash = out.rfind('/');
  o.socket_dir = slash == std::string::npos ? "." : out.substr(0, slash);
  return o;
}

Json environment(const perfbench::Options& o) {
  Json env = Json::object();
  env.set("hardware_concurrency", std::thread::hardware_concurrency());
  env.set("nproc", perfbench::nproc());
  env.set("simd_tier", comimo::simd::tier_name(comimo::simd::active_tier()));
  env.set("simd_lanes", static_cast<std::uint64_t>(comimo::simd::batch_width()));
  env.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef __VERSION__
  env.set("compiler", __VERSION__);
#endif
  env.set("seed", o.seed);
  env.set("seconds", o.seconds);
  env.set("trace", o.trace);
  env.set("workload", o.workload);
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--service-client") == 0) {
    return perfbench::run_service_client(argc, argv);
  }
  const perfbench::Options opt = parse(argc, argv);

  // Timings from unoptimised or instrumented code say nothing about the
  // program users run; refuse them outright.
  bool debug = false;
#ifndef NDEBUG
  debug = true;
#endif
  if (debug || PERFBENCH_SANITIZED) {
    std::cerr << "perfbench: refusing to report timings from a "
              << (debug ? "debug (assertions on)" : "sanitizer")
              << " build (build type " << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  perfbench::Context ctx(opt);
  try {
    if (opt.workload == "paper") {
      perfbench::run_paper(ctx);
    } else if (opt.workload == "ber") {
      perfbench::run_ber(ctx);
    } else if (opt.workload == "net") {
      perfbench::run_net(ctx);
    } else if (opt.workload == "service") {
      perfbench::run_service(ctx);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload " << opt.workload
              << " aborted: " << e.what() << '\n';
    return 1;
  }
  perfbench::record_process_metrics(ctx.report);
  if (opt.trace) {
    const auto spans = ctx.tracer.spans();
    perfbench::record_self_times(ctx.report, spans);
    perfbench::write_spans(opt.spans_path, spans);
  }
  ctx.report.write(opt.out_path, environment(opt));
  return 0;
}
