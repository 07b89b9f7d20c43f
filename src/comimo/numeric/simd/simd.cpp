// Runtime ISA dispatch and the per-lane RNG kernels.
//
// The active kernel table is resolved exactly once per process: either
// the first active_kernels() call pins the best tier the CPU supports,
// or an earlier set_mode("...") request (bench --simd=) pins a forced
// tier.  Pin-once keeps every thread and every subsequent block on the
// same code path, which the determinism tests rely on.
#include "comimo/numeric/simd/simd.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <string>

#include "comimo/common/error.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"

namespace comimo::simd {

namespace {

struct DispatchState {
  std::mutex mutex;
  std::atomic<const BatchKernels*> active{nullptr};
  bool forced = false;
  Tier forced_tier = Tier::kScalar;
};

DispatchState& dispatch_state() {
  static DispatchState state;
  return state;
}

void publish_obs_gauges(const BatchKernels& table) {
  auto& reg = obs::MetricRegistry::global();
  reg.gauge("simd.active_tier").set(static_cast<double>(table.tier));
  reg.gauge("simd.lane_width").set(static_cast<double>(table.width));
}

}  // namespace

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
    case Tier::kNeon:
      return "neon";
  }
  return "scalar";
}

Tier detect_best_tier() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (detail::avx512_kernels() != nullptr &&
      __builtin_cpu_supports("avx512f")) {
    return Tier::kAvx512;
  }
  if (detail::avx2_kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    return Tier::kAvx2;
  }
  if (detail::sse2_kernels() != nullptr && __builtin_cpu_supports("sse2")) {
    return Tier::kSse2;
  }
#elif defined(__aarch64__)
  if (detail::neon_kernels() != nullptr) {
    return Tier::kNeon;
  }
#endif
  return Tier::kScalar;
}

const BatchKernels* kernels_for_tier(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return detail::scalar_kernels();
    case Tier::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      if (!__builtin_cpu_supports("sse2")) return nullptr;
      return detail::sse2_kernels();
#else
      return nullptr;
#endif
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (!__builtin_cpu_supports("avx2")) return nullptr;
      return detail::avx2_kernels();
#else
      return nullptr;
#endif
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // __builtin_cpu_supports("avx512f") also verifies the OS has
      // enabled the ZMM XSAVE state, not just the CPUID bit.
      if (!__builtin_cpu_supports("avx512f")) return nullptr;
      return detail::avx512_kernels();
#else
      return nullptr;
#endif
    case Tier::kNeon:
      return detail::neon_kernels();
  }
  return nullptr;
}

void set_mode(std::string_view mode) {
  bool is_auto = false;
  Tier tier = Tier::kScalar;
  if (mode == "auto") {
    is_auto = true;
  } else if (mode == "scalar") {
    tier = Tier::kScalar;
  } else if (mode == "sse2") {
    tier = Tier::kSse2;
  } else if (mode == "avx2") {
    tier = Tier::kAvx2;
  } else if (mode == "avx512") {
    tier = Tier::kAvx512;
  } else if (mode == "neon") {
    tier = Tier::kNeon;
  } else {
    throw InvalidArgument("unknown --simd mode: " + std::string(mode) +
                          " (expected auto|scalar|sse2|avx2|avx512|neon)");
  }

  DispatchState& state = dispatch_state();
  std::lock_guard<std::mutex> lock(state.mutex);

  if (is_auto) {
    tier = detect_best_tier();
  } else if (kernels_for_tier(tier) == nullptr) {
    throw InvalidArgument(std::string("--simd=") + tier_name(tier) +
                          " is not available on this host/build");
  }

  const BatchKernels* pinned = state.active.load(std::memory_order_acquire);
  if (pinned != nullptr) {
    if (pinned->tier != tier) {
      throw InvalidArgument(
          std::string("simd mode already pinned to ") +
          tier_name(pinned->tier) + "; cannot switch to " + tier_name(tier));
    }
    return;
  }
  state.forced = true;
  state.forced_tier = tier;
}

const BatchKernels& active_kernels() noexcept {
  DispatchState& state = dispatch_state();
  const BatchKernels* table = state.active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;

  std::lock_guard<std::mutex> lock(state.mutex);
  table = state.active.load(std::memory_order_relaxed);
  if (table == nullptr) {
    const Tier tier = state.forced ? state.forced_tier : detect_best_tier();
    table = kernels_for_tier(tier);
    if (table == nullptr) table = detail::scalar_kernels();
    publish_obs_gauges(*table);
    state.active.store(table, std::memory_order_release);
  }
  return *table;
}

Tier active_tier() noexcept { return active_kernels().tier; }

std::size_t batch_width() noexcept { return active_kernels().width; }

void random_gaussian_fill_batch(double* re, double* im, std::size_t elems,
                                std::size_t width, Rng* rngs,
                                double variance) {
  // Lane-outer so lane w consumes its generator in the scalar kernel's
  // row-major element order — the (seed, trial) stream contract.
  for (std::size_t w = 0; w < width; ++w) {
    Rng& rng = rngs[w];
    for (std::size_t e = 0; e < elems; ++e) {
      const cplx z = rng.complex_gaussian(variance);
      re[e * width + w] = z.real();
      im[e * width + w] = z.imag();
    }
  }
}

void draw_noise_words_batch(double* w1, double* w2, std::size_t elems,
                            std::size_t width, Rng* rngs) {
  for (std::size_t w = 0; w < width; ++w) {
    Rng& rng = rngs[w];
    for (std::size_t e = 0; e < elems; ++e) {
      w1[e * width + w] = std::bit_cast<double>(rng.next());
      w2[e * width + w] = std::bit_cast<double>(rng.next());
    }
  }
}

}  // namespace comimo::simd
