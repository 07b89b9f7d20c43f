// Kernel benchmarks, two modes in one binary:
//   * `--json <path>`: the batched link-kernel comparison — the
//     historical allocating per-block BER path vs. the batch kernel
//     run one block at a time at width 1 on the scalar table (the
//     `workspace` records) vs. the same kernel W lanes wide on the
//     pinned dispatch tier (`simd_batch`) — emitted as comimo-bench-v1,
//     with a median-of-reps ns_per_block and a steady-state
//     heap-allocation count per block from the operator-new hook below.
//     All paths consume identical per-block RNG streams, and the bench
//     aborts unless their bit-error counts match exactly.
//   * otherwise: the google-benchmark micro suite over the hot paths a
//     planner or simulator spends its time in — the ē_b solve, STBC
//     encode/decode, GMSK modulation, CSMA/CA and framing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "comimo/common/bench_json.h"
#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/energy/ebbar.h"
#include "comimo/energy/ebbar_table.h"
#include "comimo/net/csma_ca.h"
#include "comimo/net/spatial_csma.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/gmsk.h"
#include "comimo/phy/link_adaptation.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/testbed/framing.h"

// ---------------------------------------------------------------------
// Heap-allocation counter: every global operator new is routed through
// malloc and bumps one relaxed atomic.  Bench binary only — the library
// itself is never built with these hooks.  All replaceable forms are
// covered so sized/array/aligned deallocation stays matched.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p =
          counted_aligned_alloc(size, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace comimo;

// ---------------------------------------------------------------------
// Link-kernel comparison (the --json mode).

/// One block of the historical allocating BER path, kept verbatim as
/// the baseline: every buffer is constructed inside the block.
std::size_t allocating_block(const Modulator& modem, const StbcCode& code,
                             const StbcDecoder& decoder, unsigned mt,
                             unsigned mr, double sym_scale,
                             std::size_t bits_per_block, Rng& rng) {
  BitVec bits(bits_per_block);
  for (auto& bit : bits) bit = rng.bernoulli(0.5) ? 1 : 0;
  std::vector<cplx> syms = modem.modulate(bits);
  for (auto& s : syms) s *= sym_scale;

  const CMatrix h = CMatrix::random_gaussian(mr, mt, rng);
  const CMatrix c = code.encode(syms);
  CMatrix received(code.block_length(), mr);
  for (std::size_t t = 0; t < code.block_length(); ++t) {
    for (unsigned j = 0; j < mr; ++j) {
      cplx v{0.0, 0.0};
      for (unsigned i = 0; i < mt; ++i) {
        v += c(t, i) * h(j, i);
      }
      received(t, j) = v + rng.complex_gaussian(1.0);
    }
  }

  std::vector<cplx> est = decoder.decode(h, received);
  for (auto& v : est) v /= sym_scale;
  const BitVec decoded = modem.demodulate(est);
  return count_bit_errors(bits, decoded);
}

struct LinkKernelRun {
  double ns_per_block = 0.0;
  double allocs_per_block = 0.0;
  std::size_t bit_errors = 0;
  std::size_t bits = 0;
};

/// Runs `reps` timed passes and folds them into one LinkKernelRun:
/// ns_per_block is the median pass (robust against a scheduler hiccup
/// polluting a single rep), allocs_per_block is accumulated over every
/// timed pass (so a leak in any rep shows), and bit errors are taken
/// from the last pass after checking every pass agreed — per-block RNG
/// streams are Rng(seed, block index), so reps are exact replays.
template <typename PassFn>
LinkKernelRun fold_reps(std::size_t reps, std::size_t blocks,
                        std::size_t bits_per_block, PassFn&& pass) {
  LinkKernelRun out;
  std::vector<double> ns_per_rep;
  ns_per_rep.reserve(reps);
  std::uint64_t allocs = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t allocs0 =
        g_heap_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t errors = pass();
    const auto t1 = std::chrono::steady_clock::now();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
    ns_per_rep.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    COMIMO_CHECK(rep == 0 || errors == out.bit_errors,
                 "bit errors changed between reps of the same streams");
    out.bit_errors = errors;
  }
  std::sort(ns_per_rep.begin(), ns_per_rep.end());
  const double median_ns =
      reps % 2 == 1 ? ns_per_rep[reps / 2]
                    : 0.5 * (ns_per_rep[reps / 2 - 1] + ns_per_rep[reps / 2]);
  out.ns_per_block = median_ns / static_cast<double>(blocks);
  out.allocs_per_block = static_cast<double>(allocs) /
                         static_cast<double>(blocks * reps);
  out.bits = blocks * bits_per_block;
  return out;
}

/// Measures `blocks` post-warmup blocks of either scalar path over
/// `reps` repetitions.  Per-block RNG streams are Rng(seed, block
/// index) for every path, so the bit-error totals must agree exactly.
/// Warmup blocks [0, warmup) run once, outside the timed window.
template <typename BlockFn>
LinkKernelRun measure_blocks(std::size_t reps, std::size_t warmup,
                             std::size_t blocks, std::size_t bits_per_block,
                             std::uint64_t seed, BlockFn&& block) {
  for (std::size_t blk = 0; blk < warmup; ++blk) {
    Rng rng(seed, blk);
    (void)block(rng);
  }
  return fold_reps(reps, blocks, bits_per_block, [&] {
    std::size_t errors = 0;
    for (std::size_t blk = warmup; blk < warmup + blocks; ++blk) {
      Rng rng(seed, blk);
      errors += block(rng);
    }
    return errors;
  });
}

/// Batched counterpart: blocks are grouped `width` at a time (tail
/// groups shrink) over the same Rng(seed, block index) streams, so the
/// totals remain comparable with the scalar paths bit-for-bit.  The
/// lane RNGs live in stack storage via placement new — Rng has no
/// default constructor and a heap-backed vector would break the
/// zero-allocation claim inside the timed window.
template <typename BatchFn>
LinkKernelRun measure_blocks_batched(std::size_t reps, std::size_t warmup,
                                     std::size_t blocks,
                                     std::size_t bits_per_block,
                                     std::uint64_t seed, std::size_t width,
                                     BatchFn&& batch) {
  static_assert(std::is_trivially_destructible_v<Rng>,
                "stack lane RNGs skip destructor calls");
  constexpr std::size_t kMaxLanes = 8;
  COMIMO_CHECK(width >= 1 && width <= kMaxLanes,
               "batch width out of range for the stack lane RNGs");
  alignas(Rng) std::byte lane_storage[kMaxLanes * sizeof(Rng)];
  Rng* const lanes = reinterpret_cast<Rng*>(lane_storage);
  const auto run_span = [&](std::size_t first, std::size_t count_blocks) {
    std::size_t errors = 0;
    for (std::size_t blk = first; blk < first + count_blocks; blk += width) {
      const std::size_t count =
          std::min(width, first + count_blocks - blk);
      for (std::size_t i = 0; i < count; ++i) {
        ::new (static_cast<void*>(lanes + i)) Rng(seed, blk + i);
      }
      errors += batch(lanes, count);
    }
    return errors;
  };
  (void)run_span(0, warmup);
  return fold_reps(reps, blocks, bits_per_block,
                   [&] { return run_span(warmup, blocks); });
}

Json link_params(const char* path, int b, unsigned mt, unsigned mr,
                 double gamma_b_db, std::size_t blocks, std::size_t warmup,
                 std::size_t reps) {
  Json params = Json::object();
  params.set("kernel", "waveform_ber");
  params.set("path", path);
  params.set("b", b);
  params.set("mt", mt);
  params.set("mr", mr);
  params.set("gamma_b_db", gamma_b_db);
  params.set("blocks", static_cast<std::uint64_t>(blocks));
  params.set("warmup", static_cast<std::uint64_t>(warmup));
  params.set("reps", static_cast<std::uint64_t>(reps));
  return params;
}

Json link_metrics(const LinkKernelRun& run, double speedup_vs_allocating,
                  double speedup_vs_scalar = 0.0) {
  Json metrics = Json::object();
  metrics.set("ns_per_block", run.ns_per_block);
  metrics.set("allocs_per_block", run.allocs_per_block);
  metrics.set("bit_errors", static_cast<std::uint64_t>(run.bit_errors));
  metrics.set("bits", static_cast<std::uint64_t>(run.bits));
  metrics.set("ber", run.bits ? static_cast<double>(run.bit_errors) /
                                    static_cast<double>(run.bits)
                              : 0.0);
  if (speedup_vs_allocating > 0.0) {
    metrics.set("speedup_vs_allocating", speedup_vs_allocating);
  }
  if (speedup_vs_scalar > 0.0) {
    metrics.set("speedup_vs_scalar", speedup_vs_scalar);
  }
  return metrics;
}

void run_link_kernel_bench(const BenchCli& cli) {
  BenchReporter reporter("perf_kernels");
  reporter.set_threads(1);  // the comparison is deliberately serial
  const std::size_t blocks = cli.trials ? cli.trials : 20000;
  const std::size_t warmup = std::min<std::size_t>(500, blocks);
  const std::size_t reps = 3;
  const double gamma_b_db = 6.0;
  const double gamma_b = db_to_linear(gamma_b_db);
  const std::uint64_t seed = 1;

  struct Shape {
    int b;
    unsigned mt;
    unsigned mr;
  };
  for (const Shape shape : {Shape{2, 2, 2}, Shape{2, 4, 2}, Shape{2, 4, 4}}) {
    const auto modem = make_modulator(shape.b);
    const StbcCode code = StbcCode::for_antennas(shape.mt);
    const StbcDecoder decoder(code);
    const std::size_t bits_per_block =
        code.symbols_per_block() * static_cast<std::size_t>(shape.b);
    const double sym_scale = std::sqrt(static_cast<double>(shape.b) *
                                       gamma_b / code.symbol_weight());

    const LinkKernelRun alloc_run = measure_blocks(
        reps, warmup, blocks, bits_per_block, seed, [&](Rng& rng) {
          return allocating_block(*modem, code, decoder, shape.mt, shape.mr,
                                  sym_scale, bits_per_block, rng);
        });

    // The scalar reference: the batch kernel one block at a time on a
    // workspace prepared at width 1, which runs its body on the scalar
    // table.
    const WaveformBerKernel kernel(shape.b, shape.mt, shape.mr, gamma_b);
    HopBatchWorkspace ws;
    kernel.prepare_batch(ws, 1);
    const LinkKernelRun ws_run = measure_blocks(
        reps, warmup, blocks, bits_per_block, seed,
        [&](Rng& rng) { return kernel.run_block_batch(ws, &rng, 1); });

    // The workspace path must be bit-identical to the allocating one;
    // anything else means the refactor broke the kernel.
    COMIMO_CHECK(ws_run.bit_errors == alloc_run.bit_errors,
                 "workspace path diverged from the allocating path");

    // The SoA batch path over the pinned dispatch tier, same streams.
    // At width 1 (scalar pin or no vector unit) this is the workspace
    // path, so the record stays meaningful anywhere.
    const std::size_t width = simd::batch_width();
    HopBatchWorkspace bws;
    kernel.prepare_batch(bws, width);
    const LinkKernelRun batch_run = measure_blocks_batched(
        reps, warmup, blocks, bits_per_block, seed, width,
        [&](Rng* rngs, std::size_t count) {
          return kernel.run_block_batch(bws, rngs, count);
        });
    COMIMO_CHECK(batch_run.bit_errors == ws_run.bit_errors,
                 "simd batch path diverged from the scalar workspace path");

    const double speedup =
        ws_run.ns_per_block > 0.0 ? alloc_run.ns_per_block / ws_run.ns_per_block
                                  : 0.0;
    const double batch_speedup_vs_alloc =
        batch_run.ns_per_block > 0.0
            ? alloc_run.ns_per_block / batch_run.ns_per_block
            : 0.0;
    const double batch_speedup_vs_scalar =
        batch_run.ns_per_block > 0.0
            ? ws_run.ns_per_block / batch_run.ns_per_block
            : 0.0;
    const auto tps = [](const LinkKernelRun& r) {
      return r.ns_per_block > 0.0 ? 1e9 / r.ns_per_block : 0.0;
    };
    reporter.add_record(link_params("allocating", shape.b, shape.mt, shape.mr,
                                    gamma_b_db, blocks, warmup, reps),
                        link_metrics(alloc_run, 0.0), blocks,
                        tps(alloc_run));
    reporter.add_record(link_params("workspace", shape.b, shape.mt, shape.mr,
                                    gamma_b_db, blocks, warmup, reps),
                        link_metrics(ws_run, speedup), blocks, tps(ws_run));
    Json batch_params = link_params("simd_batch", shape.b, shape.mt, shape.mr,
                                    gamma_b_db, blocks, warmup, reps);
    batch_params.set("simd", simd::tier_name(simd::active_tier()));
    batch_params.set("width", static_cast<std::uint64_t>(width));
    reporter.add_record(
        std::move(batch_params),
        link_metrics(batch_run, batch_speedup_vs_alloc,
                     batch_speedup_vs_scalar),
        blocks, tps(batch_run));
  }

  // Hop-batch comparison: the full three-step cooperative hop
  // (DF broadcast, W-wide long-haul STBC, analog collection) grouped at
  // the pinned lane width vs the same blocks one at a time, each a
  // width-1 group on the scalar table.  Both consume the (seed, block
  // index) streams, so the decoded bits must match lane-bitwise; the
  // bench aborts if not.
  {
    const std::size_t width = std::max<std::size_t>(1, simd::batch_width());
    const simd::BatchKernels* scalar =
        simd::kernels_for_tier(simd::Tier::kScalar);
    const std::size_t hop_target = cli.trials ? cli.trials / 10 : 2000;
    const UnderlayCooperativeHop planner;
    struct HopShape {
      unsigned mt;
      unsigned mr;
    };
    for (const HopShape shape :
         {HopShape{2, 2}, HopShape{4, 2}, HopShape{4, 4}}) {
      UnderlayHopConfig hop_cfg;
      hop_cfg.mt = shape.mt;
      hop_cfg.mr = shape.mr;
      hop_cfg.hop_distance_m = 200.0;
      hop_cfg.ber = 1e-2;
      const UnderlayHopPlan plan =
          planner.plan(hop_cfg, BSelectionRule::kMinTotalPa);
      const CoopHopBlockKernel kernel(plan, 30.0);
      const std::size_t bpb = kernel.bits_per_block();
      // Whole groups only, so every batched group is one pinned-width
      // pass, and an identical block set keeps the two sides comparable.
      const std::size_t hop_blocks =
          std::max<std::size_t>(width, hop_target / width * width);
      const std::size_t hop_warmup = width * 8;
      const BitVec payload =
          random_bits((hop_warmup + hop_blocks) * bpb, seed ^ 0xB17);

      HopBatchWorkspace ws;
      kernel.prepare_batch(ws, width);
      HopBatchWorkspace lane_ws;
      kernel.prepare_batch(lane_ws, 1);
      CoopHopBlockKernel::GroupStats
          stats[CoopHopBlockKernel::kMaxLanes]{};
      const auto count_errors = [&](std::size_t blk, HopBatchWorkspace& out,
                                    std::size_t lane) {
        const std::uint8_t* sent = payload.data() + blk * bpb;
        const std::uint8_t* got = out.decoded_lane(lane);
        std::size_t errors = 0;
        for (std::size_t i = 0; i < bpb; ++i) {
          errors += sent[i] != got[i] ? 1 : 0;
        }
        return errors;
      };
      const auto run_span = [&](std::size_t first, std::size_t count_blocks,
                                bool batched) {
        std::size_t errors = 0;
        for (std::size_t blk = first; blk < first + count_blocks;
             blk += width) {
          if (batched) {
            kernel.run_group_batch(ws, payload.data(), blk, width, seed,
                                   kernel.decoder_full(), stats);
            for (std::size_t w = 0; w < width; ++w) {
              errors += count_errors(blk + w, ws, w);
            }
            continue;
          }
          for (std::size_t w = 0; w < width; ++w) {
            kernel.run_group_batch(lane_ws, payload.data(), blk + w, 1, seed,
                                   kernel.decoder_full(), stats, scalar);
            errors += count_errors(blk + w, lane_ws, 0);
          }
        }
        return errors;
      };

      (void)run_span(0, hop_warmup, /*batched=*/false);
      const LinkKernelRun serial_run =
          fold_reps(reps, hop_blocks, bpb, [&] {
            return run_span(hop_warmup, hop_blocks, /*batched=*/false);
          });
      (void)run_span(0, hop_warmup, /*batched=*/true);
      const LinkKernelRun batch_run =
          fold_reps(reps, hop_blocks, bpb, [&] {
            return run_span(hop_warmup, hop_blocks, /*batched=*/true);
          });
      COMIMO_CHECK(batch_run.bit_errors == serial_run.bit_errors,
                   "hop batch path diverged from the width-1 path");

      const double hop_speedup =
          batch_run.ns_per_block > 0.0
              ? serial_run.ns_per_block / batch_run.ns_per_block
              : 0.0;
      const auto hop_params = [&](const char* path) {
        Json params = Json::object();
        params.set("kernel", "coop_hop");
        params.set("path", path);
        params.set("b", plan.b);
        params.set("mt", shape.mt);
        params.set("mr", shape.mr);
        params.set("blocks", static_cast<std::uint64_t>(hop_blocks));
        params.set("warmup", static_cast<std::uint64_t>(hop_warmup));
        params.set("reps", static_cast<std::uint64_t>(reps));
        params.set("simd", simd::tier_name(simd::active_tier()));
        params.set("width", static_cast<std::uint64_t>(width));
        return params;
      };
      const auto tps = [](const LinkKernelRun& r) {
        return r.ns_per_block > 0.0 ? 1e9 / r.ns_per_block : 0.0;
      };
      reporter.add_record(hop_params("hop_serial"),
                          link_metrics(serial_run, 0.0), hop_blocks,
                          tps(serial_run));
      reporter.add_record(hop_params("hop_batch"),
                          link_metrics(batch_run, 0.0, hop_speedup),
                          hop_blocks, tps(batch_run));
    }
  }
  reporter.write_file(cli.json_path);
}

void BM_EbBarSolve(benchmark::State& state) {
  const EbBarSolver solver;
  const auto mt = static_cast<unsigned>(state.range(0));
  const auto mr = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(1e-3, 4, mt, mr));
  }
}
BENCHMARK(BM_EbBarSolve)->Args({1, 1})->Args({2, 2})->Args({4, 4});

void BM_EbBarQuadrature(benchmark::State& state) {
  const EbBarSolver solver;
  const double e = solver.solve(1e-3, 4, 2, 2);
  const auto points = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.average_ber_quadrature(e, 4, 2, 2, points));
  }
}
BENCHMARK(BM_EbBarQuadrature)->Arg(16)->Arg(64)->Arg(128);

void BM_EbBarTableBuild(benchmark::State& state) {
  const EbBarSolver solver;
  EbBarTable::Spec spec;
  spec.ber_targets = {1e-2, 1e-3};
  spec.b_max = static_cast<int>(state.range(0));
  spec.m_max = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EbBarTable::build(solver, spec));
  }
}
BENCHMARK(BM_EbBarTableBuild)->Arg(4)->Arg(16);

void BM_StbcEncodeDecode(benchmark::State& state) {
  const auto mt = static_cast<std::size_t>(state.range(0));
  const StbcCode code = StbcCode::for_antennas(mt);
  const StbcDecoder decoder(code);
  Rng rng(1);
  std::vector<cplx> s(code.symbols_per_block());
  for (auto& v : s) v = rng.complex_gaussian();
  const CMatrix h = CMatrix::random_gaussian(2, mt, rng);
  std::size_t symbols = 0;
  for (auto _ : state) {
    const CMatrix c = code.encode(s);
    CMatrix r(code.block_length(), 2);
    for (std::size_t t = 0; t < code.block_length(); ++t) {
      for (std::size_t j = 0; j < 2; ++j) {
        cplx acc{0.0, 0.0};
        for (std::size_t i = 0; i < mt; ++i) acc += c(t, i) * h(j, i);
        r(t, j) = acc;
      }
    }
    benchmark::DoNotOptimize(decoder.decode(h, r));
    symbols += code.symbols_per_block();
  }
  state.SetItemsProcessed(static_cast<int64_t>(symbols));
}
BENCHMARK(BM_StbcEncodeDecode)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_GmskModulate(benchmark::State& state) {
  const GmskModem modem;
  const BitVec bits = random_bits(static_cast<std::size_t>(state.range(0)), 3);
  std::size_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(modem.modulate(bits));
    total += bits.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_GmskModulate)->Arg(1000)->Arg(12000);

void BM_GmskDemodulate(benchmark::State& state) {
  const GmskModem modem;
  const BitVec bits = random_bits(static_cast<std::size_t>(state.range(0)), 4);
  const auto samples = modem.modulate(bits);
  std::size_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(modem.demodulate(samples, bits.size()));
    total += bits.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_GmskDemodulate)->Arg(1000)->Arg(12000);

void BM_CsmaCaSimulation(benchmark::State& state) {
  const auto stations_n = static_cast<std::size_t>(state.range(0));
  std::vector<CsmaStation> stations;
  for (std::size_t i = 0; i < stations_n; ++i) {
    stations.push_back({static_cast<NodeId>(i), 20.0, 12000});
  }
  for (auto _ : state) {
    CsmaCaConfig cfg;
    cfg.seed = 1;
    CsmaCaSimulator sim(cfg, stations);
    benchmark::DoNotOptimize(sim.run(2.0));
  }
}
BENCHMARK(BM_CsmaCaSimulation)->Arg(2)->Arg(8)->Arg(32);

void BM_FrameRoundTrip(benchmark::State& state) {
  const Framer framer;
  Packet p;
  p.sequence = 42;
  p.payload.assign(static_cast<std::size_t>(state.range(0)), 0xA5);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const BitVec bits = framer.frame(p);
    benchmark::DoNotOptimize(framer.parse(bits));
    bytes += p.payload.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(64)->Arg(1500);

void BM_CoopHopWaveform(benchmark::State& state) {
  const auto mt = static_cast<unsigned>(state.range(0));
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig cfg;
  cfg.mt = mt;
  cfg.mr = 2;
  cfg.ber = 1e-2;
  CoopHopSimConfig sim;
  sim.plan = planner.plan(cfg, BSelectionRule::kMinTotalPa);
  sim.bits = 2000;
  std::size_t bits = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_cooperative_hop(sim));
    bits += sim.bits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(bits));
}
BENCHMARK(BM_CoopHopWaveform)->Arg(1)->Arg(2)->Arg(3);

void BM_SpatialCsma(benchmark::State& state) {
  const auto stations_n = static_cast<std::size_t>(state.range(0));
  std::vector<SpatialStation> stations;
  Rng rng(7);
  for (std::size_t i = 0; i < stations_n; ++i) {
    SpatialStation s;
    s.id = static_cast<NodeId>(i);
    s.position = rng.point_in_disk(Vec2{250.0, 250.0}, 240.0);
    s.destination = rng.point_in_disk(s.position, 50.0);
    s.arrival_rate_fps = 10.0;
    stations.push_back(s);
  }
  for (auto _ : state) {
    SpatialCsmaConfig cfg;
    cfg.seed = 1;
    SpatialCsmaSimulator sim(cfg, stations);
    benchmark::DoNotOptimize(sim.run(1.0));
  }
}
BENCHMARK(BM_SpatialCsma)->Arg(4)->Arg(16);

void BM_AdaptiveLink(benchmark::State& state) {
  LinkAdaptationConfig cfg;
  AdaptiveLinkScenario sc;
  sc.blocks = 200;
  std::size_t bits = 0;
  for (auto _ : state) {
    const AdaptationRun run = simulate_adaptive_link(cfg, sc);
    benchmark::DoNotOptimize(run.ber);
    bits += run.bits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(bits));
}
BENCHMARK(BM_AdaptiveLink);

}  // namespace

// `--json <path>` selects the comimo-bench-v1 link-kernel comparison
// (validated by scripts/check_bench_json.sh); without it the binary
// runs the google-benchmark micro suite with its native CLI.
int main(int argc, char** argv) {
  const comimo::BenchCli cli = comimo::parse_bench_cli(argc, argv);
  if (!cli.json_path.empty()) {
    run_link_kernel_bench(cli);
    return 0;
  }

  std::vector<char*> args;
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc));
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--trials" || arg == "--trace" ||
        arg == "--simd") {
      ++i;  // value-taking common flags parse_bench_cli already consumed
    } else if (arg == "--obs" || arg.rfind("--simd=", 0) == 0) {
      // single-token flags, likewise already consumed
    } else {
      storage.push_back(arg);
    }
  }
  for (auto& s : storage) args.push_back(s.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
