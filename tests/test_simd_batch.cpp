// Tests for the batch-SoA SIMD layer: every vector tier must be
// bitwise identical to the scalar reference kernels lane by lane, the
// batched link kernel must reproduce the scalar workspace block exactly
// (including tails shorter than the lane width, workspaces prepared at
// any width, and the BPSK sign rule), the batched Monte-Carlo grouping
// must stay thread-count invariant, and the 64-byte-aligned storage
// contract must hold everywhere the kernels load from.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/mc/engine.h"
#include "comimo/numeric/aligned.h"
#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/link_workspace.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {
namespace {

using simd::BatchKernels;
using simd::Tier;

// Every vector tier the host can actually run; empty under
// COMIMO_SIMD=OFF or on a CPU without any compiled backend.
std::vector<const BatchKernels*> vector_tiers() {
  std::vector<const BatchKernels*> out;
  for (const Tier t :
       {Tier::kSse2, Tier::kAvx2, Tier::kAvx512, Tier::kNeon}) {
    if (const BatchKernels* k = simd::kernels_for_tier(t)) out.push_back(k);
  }
  return out;
}

AlignedVec<double> random_plane(std::size_t elems, std::size_t width,
                                Rng& rng) {
  AlignedVec<double> plane(elems * width);
  for (auto& v : plane) v = rng.complex_gaussian().real();
  return plane;
}

// Extracts lane `w` of an SoA plane into a width-1 plane so the scalar
// kernel table can serve as the per-lane reference.
AlignedVec<double> lane_of(const AlignedVec<double>& plane, std::size_t elems,
                           std::size_t width, std::size_t w) {
  AlignedVec<double> out(elems);
  for (std::size_t e = 0; e < elems; ++e) out[e] = plane[e * width + w];
  return out;
}

void expect_lane_bits_equal(const AlignedVec<double>& got, std::size_t width,
                            std::size_t w, const AlignedVec<double>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size() * width);
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got[e * width + w], want[e])
        << what << " element " << e << " lane " << w;
  }
}

// ------------------------------------------------------- dispatch -----

TEST(SimdBatch, ScalarTierIsAlwaysAvailable) {
  const BatchKernels* scalar = simd::kernels_for_tier(Tier::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->tier, Tier::kScalar);
  EXPECT_EQ(scalar->width, 1u);
  EXPECT_STREQ(simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(Tier::kSse2), "sse2");
  EXPECT_STREQ(simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(Tier::kAvx512), "avx512");
  EXPECT_STREQ(simd::tier_name(Tier::kNeon), "neon");
  // The AVX-512 table, when compiled in and runnable, carries 8 lanes.
  if (const BatchKernels* k = simd::kernels_for_tier(Tier::kAvx512)) {
    EXPECT_EQ(k->width, 8u);
  }
  // Whatever detection picks must actually be runnable here.
  EXPECT_NE(simd::kernels_for_tier(simd::detect_best_tier()), nullptr);
}

TEST(SimdBatch, ActiveKernelsPinOnceAndSetModeGuards) {
  // Pin (or observe the existing pin) first so this test cannot force a
  // tier on the rest of the binary.
  const BatchKernels& active = simd::active_kernels();
  EXPECT_EQ(active.tier, simd::active_tier());
  EXPECT_EQ(active.width, simd::batch_width());
  EXPECT_GE(active.width, 1u);
  // Re-requesting the pinned tier (or auto) is a no-op...
  EXPECT_NO_THROW(simd::set_mode(simd::tier_name(simd::active_tier())));
  EXPECT_NO_THROW(simd::set_mode("auto"));
  // ...an unknown token always throws...
  EXPECT_THROW(simd::set_mode("avx1024"), InvalidArgument);
  // ...and a conflicting tier after the pin throws instead of silently
  // switching mid-process.
  if (simd::active_tier() != Tier::kScalar) {
    EXPECT_THROW(simd::set_mode("scalar"), InvalidArgument);
  }
}

// ------------------------------------- per-kernel bitwise identity ----

TEST(SimdBatch, MultiplyMatchesScalarLaneBitwise) {
  for (const BatchKernels* k : vector_tiers()) {
    const std::size_t w_count = k->width;
    const BatchKernels* scalar = simd::detail::scalar_kernels();
    struct Dims {
      std::size_t a_rows, a_cols, b_cols;
    };
    for (const Dims d : {Dims{2, 2, 2}, Dims{4, 4, 4}, Dims{3, 2, 4}}) {
      Rng rng(11, d.a_rows * 16 + d.b_cols);
      const auto a_re = random_plane(d.a_rows * d.a_cols, w_count, rng);
      const auto a_im = random_plane(d.a_rows * d.a_cols, w_count, rng);
      const auto b_re = random_plane(d.a_cols * d.b_cols, w_count, rng);
      const auto b_im = random_plane(d.a_cols * d.b_cols, w_count, rng);
      AlignedVec<double> out_re(d.a_rows * d.b_cols * w_count);
      AlignedVec<double> out_im(d.a_rows * d.b_cols * w_count);
      k->multiply(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                  out_re.data(), out_im.data(), d.a_rows, d.a_cols,
                  d.b_cols);
      for (std::size_t w = 0; w < w_count; ++w) {
        const auto la_re = lane_of(a_re, d.a_rows * d.a_cols, w_count, w);
        const auto la_im = lane_of(a_im, d.a_rows * d.a_cols, w_count, w);
        const auto lb_re = lane_of(b_re, d.a_cols * d.b_cols, w_count, w);
        const auto lb_im = lane_of(b_im, d.a_cols * d.b_cols, w_count, w);
        AlignedVec<double> want_re(d.a_rows * d.b_cols);
        AlignedVec<double> want_im(d.a_rows * d.b_cols);
        scalar->multiply(la_re.data(), la_im.data(), lb_re.data(),
                         lb_im.data(), want_re.data(), want_im.data(),
                         d.a_rows, d.a_cols, d.b_cols);
        expect_lane_bits_equal(out_re, w_count, w, want_re, "multiply re");
        expect_lane_bits_equal(out_im, w_count, w, want_im, "multiply im");
      }
    }
  }
}

TEST(SimdBatch, MultiplyTransposedMatchesScalarLaneBitwise) {
  for (const BatchKernels* k : vector_tiers()) {
    const std::size_t w_count = k->width;
    const BatchKernels* scalar = simd::detail::scalar_kernels();
    const std::size_t a_rows = 4, a_cols = 3, b_rows = 2;
    Rng rng(12);
    const auto a_re = random_plane(a_rows * a_cols, w_count, rng);
    const auto a_im = random_plane(a_rows * a_cols, w_count, rng);
    const auto b_re = random_plane(b_rows * a_cols, w_count, rng);
    const auto b_im = random_plane(b_rows * a_cols, w_count, rng);
    AlignedVec<double> out_re(a_rows * b_rows * w_count);
    AlignedVec<double> out_im(a_rows * b_rows * w_count);
    k->multiply_transposed(a_re.data(), a_im.data(), b_re.data(), b_im.data(),
                           out_re.data(), out_im.data(), a_rows, a_cols,
                           b_rows);
    for (std::size_t w = 0; w < w_count; ++w) {
      const auto la_re = lane_of(a_re, a_rows * a_cols, w_count, w);
      const auto la_im = lane_of(a_im, a_rows * a_cols, w_count, w);
      const auto lb_re = lane_of(b_re, b_rows * a_cols, w_count, w);
      const auto lb_im = lane_of(b_im, b_rows * a_cols, w_count, w);
      AlignedVec<double> want_re(a_rows * b_rows);
      AlignedVec<double> want_im(a_rows * b_rows);
      scalar->multiply_transposed(la_re.data(), la_im.data(), lb_re.data(),
                                  lb_im.data(), want_re.data(),
                                  want_im.data(), a_rows, a_cols, b_rows);
      expect_lane_bits_equal(out_re, w_count, w, want_re, "mul_t re");
      expect_lane_bits_equal(out_im, w_count, w, want_im, "mul_t im");
    }
  }
}

TEST(SimdBatch, ScaleDivideMatchScalarLaneBitwise) {
  for (const BatchKernels* k : vector_tiers()) {
    const std::size_t w_count = k->width;
    const BatchKernels* scalar = simd::detail::scalar_kernels();
    const std::size_t elems = 7;  // deliberately not a width multiple
    const double s = 1.7320508075688772;
    Rng rng(13);
    for (const bool divide : {false, true}) {
      auto re = random_plane(elems, w_count, rng);
      auto im = random_plane(elems, w_count, rng);
      const auto re0 = re, im0 = im;
      (divide ? k->divide : k->scale)(re.data(), im.data(), elems, s);
      for (std::size_t w = 0; w < w_count; ++w) {
        auto want_re = lane_of(re0, elems, w_count, w);
        auto want_im = lane_of(im0, elems, w_count, w);
        (divide ? scalar->divide : scalar->scale)(want_re.data(),
                                                  want_im.data(), elems, s);
        expect_lane_bits_equal(re, w_count, w, want_re,
                               divide ? "divide re" : "scale re");
        expect_lane_bits_equal(im, w_count, w, want_im,
                               divide ? "divide im" : "scale im");
      }
    }
  }
}

TEST(SimdBatch, StbcEncodeMatchesScalarLaneBitwise) {
  for (const BatchKernels* k : vector_tiers()) {
    const std::size_t w_count = k->width;
    const BatchKernels* scalar = simd::detail::scalar_kernels();
    for (std::size_t mt = 1; mt <= kMaxStbcTx; ++mt) {
      const StbcCode code = StbcCode::for_antennas(mt);
      const std::size_t t = code.block_length();
      const std::size_t kk = code.symbols_per_block();
      Rng rng(14, mt);
      const auto sym_re = random_plane(kk, w_count, rng);
      const auto sym_im = random_plane(kk, w_count, rng);
      AlignedVec<double> out_re(t * mt * w_count), out_im(t * mt * w_count);
      k->stbc_encode(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                     t, mt, kk, code.power_scale(), sym_re.data(),
                     sym_im.data(), out_re.data(), out_im.data());
      for (std::size_t w = 0; w < w_count; ++w) {
        const auto ls_re = lane_of(sym_re, kk, w_count, w);
        const auto ls_im = lane_of(sym_im, kk, w_count, w);
        AlignedVec<double> want_re(t * mt), want_im(t * mt);
        scalar->stbc_encode(code.coeff_a_flat().data(),
                            code.coeff_b_flat().data(), t, mt, kk,
                            code.power_scale(), ls_re.data(), ls_im.data(),
                            want_re.data(), want_im.data());
        expect_lane_bits_equal(out_re, w_count, w, want_re, "encode re");
        expect_lane_bits_equal(out_im, w_count, w, want_im, "encode im");
      }
    }
  }
}

TEST(SimdBatch, StbcDecodePlanesMatchScalarLaneBitwise) {
  for (const BatchKernels* k : vector_tiers()) {
    const std::size_t w_count = k->width;
    const BatchKernels* scalar = simd::detail::scalar_kernels();
    for (std::size_t mt = 1; mt <= kMaxStbcTx; ++mt) {
      const StbcCode code = StbcCode::for_antennas(mt);
      const std::size_t t = code.block_length();
      const std::size_t kk = code.symbols_per_block();
      const std::size_t mr = 2;
      const std::size_t rows = 2 * t * mr;
      const std::size_t cols = 2 * kk;
      Rng rng(15, mt);
      const auto h_re = random_plane(mr * mt, w_count, rng);
      const auto h_im = random_plane(mr * mt, w_count, rng);
      const auto rx_re = random_plane(t * mr, w_count, rng);
      const auto rx_im = random_plane(t * mr, w_count, rng);
      AlignedVec<double> f(rows * cols * w_count), y(rows * w_count);
      AlignedVec<double> gram(cols * cols * w_count), rhs(cols * w_count);
      k->stbc_build_fy(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                       t, mt, kk, mr, code.power_scale(), h_re.data(),
                       h_im.data(), rx_re.data(), rx_im.data(), f.data(),
                       y.data());
      k->gram_rhs(f.data(), y.data(), rows, cols, gram.data(), rhs.data());
      for (std::size_t w = 0; w < w_count; ++w) {
        const auto lh_re = lane_of(h_re, mr * mt, w_count, w);
        const auto lh_im = lane_of(h_im, mr * mt, w_count, w);
        const auto lrx_re = lane_of(rx_re, t * mr, w_count, w);
        const auto lrx_im = lane_of(rx_im, t * mr, w_count, w);
        AlignedVec<double> want_f(rows * cols), want_y(rows);
        AlignedVec<double> want_gram(cols * cols), want_rhs(cols);
        scalar->stbc_build_fy(code.coeff_a_flat().data(),
                              code.coeff_b_flat().data(), t, mt, kk, mr,
                              code.power_scale(), lh_re.data(), lh_im.data(),
                              lrx_re.data(), lrx_im.data(), want_f.data(),
                              want_y.data());
        scalar->gram_rhs(want_f.data(), want_y.data(), rows, cols,
                         want_gram.data(), want_rhs.data());
        expect_lane_bits_equal(f, w_count, w, want_f, "F");
        expect_lane_bits_equal(y, w_count, w, want_y, "y");
        expect_lane_bits_equal(gram, w_count, w, want_gram, "gram");
        expect_lane_bits_equal(rhs, w_count, w, want_rhs, "rhs");
      }
    }
  }
}

TEST(SimdBatch, QamNearestMatchesBruteForceArgmin) {
  // Brute-force strict-< first-minimum argmin as an oracle independent
  // of both the scalar table and the modulator, then every tier against
  // the scalar table bit-for-bit.
  for (const int b : {2, 3, 4}) {
    const auto modem = make_modulator(b);
    const auto& points = modem->constellation();
    const std::size_t elems = 9;
    for (const BatchKernels* k :
         {simd::detail::scalar_kernels(), simd::kernels_for_tier(
                                              simd::detect_best_tier())}) {
      if (k == nullptr) continue;
      const std::size_t w_count = k->width;
      Rng rng(16, static_cast<std::uint64_t>(b));
      const auto re = random_plane(elems, w_count, rng);
      const auto im = random_plane(elems, w_count, rng);
      std::vector<std::uint32_t> labels(elems * w_count);
      k->qam_nearest(re.data(), im.data(), elems, points.data(),
                     points.size(), labels.data());
      for (std::size_t e = 0; e < elems; ++e) {
        for (std::size_t w = 0; w < w_count; ++w) {
          const double r_re = re[e * w_count + w];
          const double r_im = im[e * w_count + w];
          std::uint32_t want = 0;
          double best = std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < points.size(); ++i) {
            const double dre = r_re - points[i].real();
            const double dim = r_im - points[i].imag();
            const double d = dre * dre + dim * dim;
            if (d < best) {
              best = d;
              want = static_cast<std::uint32_t>(i);
            }
          }
          EXPECT_EQ(labels[e * w_count + w], want)
              << "b=" << b << " tier=" << simd::tier_name(k->tier);
        }
      }
    }
  }
}

TEST(SimdBatch, RandomFillKeepsPerLaneStreams) {
  // Lane w of the batched fill must replay exactly the scalar draw
  // sequence of its own generator — the (seed, trial) contract.
  const std::size_t elems = 6, width = 4;
  AlignedVec<double> re(elems * width), im(elems * width);
  std::vector<Rng> rngs;
  for (std::size_t w = 0; w < width; ++w) rngs.emplace_back(21, w);
  simd::random_gaussian_fill_batch(re.data(), im.data(), elems, width,
                                   rngs.data(), 1.0);
  for (std::size_t w = 0; w < width; ++w) {
    Rng ref(21, w);
    for (std::size_t e = 0; e < elems; ++e) {
      const cplx z = ref.complex_gaussian(1.0);
      EXPECT_EQ(re[e * width + w], z.real());
      EXPECT_EQ(im[e * width + w], z.imag());
    }
  }
  // The noise words: lane w's e-th pair, evaluated by box_muller and
  // scaled like complex_gaussian, is its generator's e-th sample, and
  // the generators end where complex_gaussian leaves them.
  AlignedVec<double> w1(elems * width), w2(elems * width);
  std::vector<Rng> rngs2;
  for (std::size_t w = 0; w < width; ++w) rngs2.emplace_back(22, w);
  simd::draw_noise_words_batch(w1.data(), w2.data(), elems, width,
                               rngs2.data());
  const double sigma = std::sqrt(0.5);
  for (std::size_t w = 0; w < width; ++w) {
    Rng ref(22, w);
    for (std::size_t e = 0; e < elems; ++e) {
      const cplx z = ref.complex_gaussian(1.0);
      const GaussianPair g =
          box_muller(std::bit_cast<std::uint64_t>(w1[e * width + w]),
                     std::bit_cast<std::uint64_t>(w2[e * width + w]));
      EXPECT_EQ(g.first * sigma, z.real());
      EXPECT_EQ(g.second * sigma, z.imag());
    }
    EXPECT_EQ(rngs2[w].next(), ref.next());
    EXPECT_FALSE(rngs2[w].gaussian_spare_pending());
  }
}

// --------------------------------------- batched link kernel ----------

TEST(SimdBatch, RunBlockBatchMatchesRunBlockPerLane) {
  const std::size_t width = simd::batch_width();
  struct Shape {
    int b;
    unsigned mt;
    unsigned mr;
  };
  // b = 1 exercises the BPSK sign rule (NOT the distance argmin: a tiny
  // negative estimate can tie in distance yet must decode to bit 1).
  for (const Shape shape :
       {Shape{1, 2, 2}, Shape{2, 2, 2}, Shape{2, 4, 4}, Shape{4, 2, 2}}) {
    const WaveformBerKernel kernel(shape.b, shape.mt, shape.mr,
                                   db_to_linear(6.0));
    HopBatchWorkspace bws;
    kernel.prepare_batch(bws, width);
    LinkWorkspace ws;
    kernel.prepare(ws);
    const std::size_t bpb = kernel.bits_per_block();
    // Full groups and every tail length 1..width-1.
    for (std::size_t count = 1; count <= width; ++count) {
      for (std::uint64_t base : {0ull, 97ull}) {
        std::vector<Rng> rngs;
        for (std::size_t i = 0; i < count; ++i) rngs.emplace_back(5, base + i);
        const std::size_t batch_errors =
            kernel.run_block_batch(bws, rngs.data(), count);
        std::size_t scalar_errors = 0;
        for (std::size_t i = 0; i < count; ++i) {
          Rng lane_rng(5, base + i);
          scalar_errors +=
              kernel.run_block_is(ws, lane_rng, 1.0, 1.0).bit_errors;
          // Lane-major staging must mirror the scalar workspace bits.
          for (std::size_t bit = 0; bit < bpb; ++bit) {
            ASSERT_EQ(bws.link.bits[i * bpb + bit], ws.bits[bit])
                << "b=" << shape.b << " count=" << count << " lane=" << i;
            ASSERT_EQ(bws.link.decoded[i * bpb + bit], ws.decoded[bit])
                << "b=" << shape.b << " count=" << count << " lane=" << i;
          }
        }
        EXPECT_EQ(batch_errors, scalar_errors)
            << "b=" << shape.b << " mt=" << shape.mt << " mr=" << shape.mr
            << " count=" << count << " base=" << base;
      }
    }
  }
}

TEST(SimdBatch, RunBlockBatchAtAnyPreparedWidthMatchesScalarReference) {
  // A workspace prepared at a width other than the pinned lane width
  // must still run every lane exactly like the scalar reference block
  // (unit-scale run_block_is draws the words the untilted block draws).
  struct Shape {
    int b;
    unsigned mt;
    unsigned mr;
  };
  for (const Shape shape : {Shape{1, 2, 2}, Shape{2, 2, 2}, Shape{4, 4, 4}}) {
    const WaveformBerKernel kernel(shape.b, shape.mt, shape.mr,
                                   db_to_linear(6.0));
    const std::size_t bpb = kernel.bits_per_block();
    LinkWorkspace ref;
    kernel.prepare(ref);
    for (const std::size_t width : {1u, 2u, 4u, 8u}) {
      HopBatchWorkspace ws;
      kernel.prepare_batch(ws, width);
      for (std::size_t count = 1; count <= width; ++count) {
        std::vector<Rng> rngs;
        for (std::size_t i = 0; i < count; ++i) {
          rngs.emplace_back(13, 100 * width + 10 * count + i);
        }
        const std::size_t errors =
            kernel.run_block_batch(ws, rngs.data(), count);
        std::size_t ref_errors = 0;
        for (std::size_t i = 0; i < count; ++i) {
          Rng lane_rng(13, 100 * width + 10 * count + i);
          ref_errors += kernel.run_block_is(ref, lane_rng, 1.0, 1.0).bit_errors;
          for (std::size_t bit = 0; bit < bpb; ++bit) {
            ASSERT_EQ(ws.link.bits[i * bpb + bit], ref.bits[bit])
                << "b=" << shape.b << " width=" << width
                << " count=" << count << " lane=" << i;
            ASSERT_EQ(ws.link.decoded[i * bpb + bit], ref.decoded[bit])
                << "b=" << shape.b << " width=" << width
                << " count=" << count << " lane=" << i;
          }
        }
        EXPECT_EQ(errors, ref_errors)
            << "b=" << shape.b << " width=" << width << " count=" << count;
      }
    }
  }
}

TEST(SimdBatch, MeasureWaveformBerIsThreadAndBatchInvariant) {
  // Non-multiple-of-width trial count, 1 vs 4 workers: the batched
  // sweep must return exactly the same integer counters.
  WaveformBerConfig config;
  config.b = 2;
  config.mt = 2;
  config.mr = 2;
  config.blocks = simd::batch_width() * 5 + 3;
  config.seed = 9;
  ThreadPool one(1);
  ThreadPool four(4);
  config.pool = &one;
  const WaveformBerPoint serial = measure_waveform_ber(config, 6.0);
  config.pool = &four;
  const WaveformBerPoint parallel = measure_waveform_ber(config, 6.0);
  EXPECT_EQ(serial.bits, parallel.bits);
  EXPECT_EQ(serial.bit_errors, parallel.bit_errors);
  EXPECT_EQ(serial.ber, parallel.ber);
}

// --------------------------------------- engine batch grouping --------

TEST(SimdBatch, RunTrialBatchesMatchesRunTrialsAndThreadCount) {
  const std::size_t trials = simd::batch_width() * 7 + 5;
  McConfig config;
  config.seed = 33;
  const auto scalar_trial = [](std::size_t, Rng& rng, McAccumulator& acc) {
    acc.count("heads", rng.bernoulli(0.5) ? 1 : 0);
    acc.count("trials");
  };
  const McResult want = run_trials(trials, config, scalar_trial);
  const auto batch_trial = [](std::size_t, std::size_t count, Rng* rngs,
                              McAccumulator& acc) {
    for (std::size_t i = 0; i < count; ++i) {
      acc.count("heads", rngs[i].bernoulli(0.5) ? 1 : 0);
    }
    acc.count("trials", count);
  };
  for (const unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    McConfig c = config;
    c.pool = &pool;
    c.batch_width = simd::batch_width();
    const McResult got = run_mc(trials, c, batch_trial);
    EXPECT_EQ(got.acc.counter("heads"), want.acc.counter("heads"))
        << workers << " workers";
    EXPECT_EQ(got.acc.counter("trials"), trials);
  }
}

// ------------------------------------------------ aligned storage -----

TEST(AlignedAlloc, VectorsAndMatricesAre64ByteAligned) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVec<double> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u) << n;
    AlignedVec<cplx> c(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u) << n;
  }
  // CMatrix storage rides the same allocator.
  Rng rng(1);
  const CMatrix m = CMatrix::random_gaussian(5, 3, rng);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
  // Growth through the allocator keeps the alignment.
  AlignedVec<double> grow;
  for (int i = 0; i < 100; ++i) {
    grow.push_back(1.0);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(grow.data()) % 64, 0u);
  }
}

TEST(AlignedAlloc, LinkBatchWorkspacePlanesAre64ByteAligned) {
  const WaveformBerKernel kernel(2, 4, 4, db_to_linear(6.0));
  HopBatchWorkspace hws;
  kernel.prepare_batch(hws, 4);
  const LinkBatchWorkspace& ws = hws.link;
  const auto aligned = [](const AlignedVec<double>& p) {
    return reinterpret_cast<std::uintptr_t>(p.data()) % 64 == 0;
  };
  EXPECT_TRUE(aligned(ws.h_re) && aligned(ws.h_im));
  EXPECT_TRUE(aligned(ws.enc_re) && aligned(ws.enc_im));
  EXPECT_TRUE(aligned(ws.rx_re) && aligned(ws.rx_im));
  EXPECT_TRUE(aligned(ws.sym_re) && aligned(ws.sym_im));
  EXPECT_TRUE(aligned(ws.est_re) && aligned(ws.est_im));
  EXPECT_TRUE(aligned(ws.f) && aligned(ws.y));
  EXPECT_TRUE(aligned(ws.gram) && aligned(ws.rhs));
  EXPECT_EQ(ws.width, 4u);
}

}  // namespace
}  // namespace comimo
