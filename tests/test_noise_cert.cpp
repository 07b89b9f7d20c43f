// Certified noise (DESIGN.md §10): the libm-free Box–Muller stays
// within its stated bound of the exact one at every tier, every tier
// computes the same bits, the certificate refuses every decision the
// bound could flip, and every lane it refuses reruns exactly — so the
// batch link and hop decide like the exact chain, lane for lane.
//
// Test names matter for CI: scripts/ci.sh runs NoiseApprox and
// NoiseCert on the COMIMO_SIMD=OFF leg and under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/numeric/aligned.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/link_workspace.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"
#include "hop_oracle.h"

namespace comimo {
namespace {

using simd::BatchKernels;
using simd::Tier;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<const BatchKernels*> runnable_tiers() {
  std::vector<const BatchKernels*> out;
  for (const Tier t : {Tier::kScalar, Tier::kSse2, Tier::kAvx2,
                       Tier::kAvx512, Tier::kNeon}) {
    if (const BatchKernels* k = simd::kernels_for_tier(t)) out.push_back(k);
  }
  return out;
}

// Checks add_noise_approx on `n` word pairs at every tier against
// box_muller: the bound holds, and every tier returns the scalar
// tier's bits.  Returns the largest |ñ − n| / e seen.
double check_words(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b, double sigma,
                   double gain) {
  const std::size_t n = a.size();
  AlignedVec<double> w1(n), w2(n);
  std::vector<double> ex_re(n), ex_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    w1[i] = std::bit_cast<double>(a[i]);
    w2[i] = std::bit_cast<double>(b[i]);
    const GaussianPair g = box_muller(a[i], b[i]);
    ex_re[i] = g.first * sigma * gain;
    ex_im[i] = g.second * sigma * gain;
  }
  double worst = 0.0;
  AlignedVec<double> ref_re, ref_im, ref_err;
  for (const BatchKernels* k : runnable_tiers()) {
    // Planes are flat: the kernel is elementwise, so any n divisible by
    // the width is a valid layout.
    EXPECT_EQ(n % k->width, 0u);
    AlignedVec<double> re(n, 0.0), im(n, 0.0), err(n, 0.0);
    k->add_noise_approx(w1.data(), w2.data(), n / k->width, sigma, gain,
                        re.data(), im.data(), err.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::hypot(re[i] - ex_re[i], im[i] - ex_im[i]);
      if (!(d <= err[i])) {
        ADD_FAILURE() << simd::tier_name(k->tier) << " words 0x" << std::hex
                      << a[i] << " 0x" << b[i] << std::dec << ": |ñ − n| "
                      << d << " > e " << err[i];
        return worst;
      }
      worst = std::max(worst, d / err[i]);
    }
    if (ref_re.empty()) {
      ref_re = re;
      ref_im = im;
      ref_err = err;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::bit_cast<std::uint64_t>(re[i]) !=
              std::bit_cast<std::uint64_t>(ref_re[i]) ||
          std::bit_cast<std::uint64_t>(im[i]) !=
              std::bit_cast<std::uint64_t>(ref_im[i]) ||
          err[i] != ref_err[i]) {
        ADD_FAILURE() << simd::tier_name(k->tier) << " differs from scalar at"
                      << " element " << i;
        return worst;
      }
    }
  }
  return worst;
}

TEST(NoiseApprox, BoundHoldsForSeededWordsAtEveryTier) {
  // 10 485 760 seeded word pairs through every tier the host runs.  The
  // bound must hold everywhere and be attained to within a factor of
  // two: the ln term alone exceeds half of it near m = √½ and √2.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  Rng rng(0x5EED);
  double worst = 0.0;
  std::vector<std::uint64_t> a(kChunk), b(kChunk);
  for (int chunk = 0; chunk < 160; ++chunk) {
    for (std::size_t i = 0; i < kChunk; ++i) {
      a[i] = rng.next();
      b[i] = rng.next();
    }
    worst = std::max(worst, check_words(a, b, std::sqrt(0.5), 1.0));
    if (HasFailure()) return;
  }
  RecordProperty("worst_error_over_bound", std::to_string(worst));
  EXPECT_GT(worst, 0.5);
  EXPECT_LE(worst, 1.0);
}

TEST(NoiseApprox, BoundHoldsAtEdgeWords) {
  // u1 = 1 − (w1 >> 11)·2⁻⁵³: 0 and 1, around 2⁵² and at 2⁵³ − 1; both
  // sides of every power-of-two boundary of u1, where E steps, and of
  // every fold at m = √2.  θ: both sides of every octant boundary, the
  // octant midpoints, and the 11 low bits that box_muller ignores.
  std::vector<std::uint64_t> k53 = {0, 1, 2, (std::uint64_t{1} << 52) - 1,
                                    std::uint64_t{1} << 52,
                                    (std::uint64_t{1} << 52) + 1,
                                    (std::uint64_t{1} << 53) - 1};
  const std::uint64_t top = std::uint64_t{1} << 53;
  for (int j = 0; j <= 53; ++j) {
    const std::uint64_t pow2 = top - (std::uint64_t{1} << (53 - j));
    const auto fold = static_cast<std::uint64_t>(
        std::ldexp(0.70710678118654757, 53 - j));
    for (const std::uint64_t c : {pow2, top - fold}) {
      for (const std::int64_t d : {-1, 0, 1}) {
        const auto v = static_cast<std::int64_t>(c) + d;
        if (v >= 0 && v < static_cast<std::int64_t>(top)) {
          k53.push_back(static_cast<std::uint64_t>(v));
        }
      }
    }
  }
  std::vector<std::uint64_t> w2s = {0, ~std::uint64_t{0}};
  for (std::uint64_t oct = 0; oct < 8; ++oct) {
    const std::uint64_t at = oct << 61;
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7FF}}) {
      w2s.push_back(at | low);
      w2s.push_back(((at - 1) & ~std::uint64_t{0x7FF}) | low);  // just below
      w2s.push_back(at | (std::uint64_t{1} << 60) | low);     // mid-octant
      w2s.push_back(at | (std::uint64_t{1} << 11) | low);     // just above
    }
  }
  std::vector<std::uint64_t> a, b;
  for (const std::uint64_t k : k53) {
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7FF}}) {
      for (const std::uint64_t w2 : w2s) {
        a.push_back((k << 11) | low);
        b.push_back(w2);
      }
    }
  }
  while (a.size() % simd::kMaxWidth != 0) {
    a.push_back(0);
    b.push_back(0);
  }
  // Long-haul scaling, the hop's forwarding scaling and an extreme σ.
  (void)check_words(a, b, std::sqrt(0.5), 1.0);
  (void)check_words(a, b, std::sqrt(db_to_linear(-30.0) / 2.0), 7.5);
  (void)check_words(a, b, 0x1.0p-600, 1.0);
  // w1 >> 11 = 0 is u1 = 1: the sample is exactly zero.
  AlignedVec<double> w1(1, 0.0), w2(1, std::bit_cast<double>(w2s[5]));
  AlignedVec<double> re(1, 0.0), im(1, 0.0), err(1, 0.0);
  simd::kernels_for_tier(Tier::kScalar)
      ->add_noise_approx(w1.data(), w2.data(), 1, 1.0, 1.0, re.data(),
                         im.data(), err.data());
  EXPECT_EQ(re[0], 0.0);
  EXPECT_EQ(im[0], 0.0);
}

// ------------------------------------------------ the certificate -----

struct Planes {
  AlignedVec<double> re, im, rho, ok;
};

// cert_margin on one element per lane; lane w's estimate is (re[w],
// im[w]) and its radius rho.
std::vector<double> margins(const BatchKernels& k, const DecisionEdges& edges,
                            const std::vector<double>& re,
                            const std::vector<double>& im, double rho) {
  const std::size_t w_count = k.width;
  std::vector<double> verdict;
  for (std::size_t at = 0; at < re.size(); at += w_count) {
    Planes p{AlignedVec<double>(w_count), AlignedVec<double>(w_count),
             AlignedVec<double>(w_count, rho), AlignedVec<double>(w_count)};
    for (std::size_t w = 0; w < w_count; ++w) {
      const std::size_t i = std::min(at + w, re.size() - 1);
      p.re[w] = re[i];
      p.im[w] = im[i];
    }
    k.cert_margin(p.re.data(), p.im.data(), 1, p.rho.data(), 0,
                  edges.re.data(), edges.re.size(), edges.im.data(),
                  edges.im.size(), p.ok.data());
    for (std::size_t w = 0; w < w_count && at + w < re.size(); ++w) {
      verdict.push_back(p.ok[w]);
    }
  }
  return verdict;
}

TEST(NoiseCert, MarginsCheckEveryEdgeOnBothAxesAndBothSides) {
  const double rho = 1e-3;
  for (const int b : {1, 2, 3, 4, 8}) {
    const auto modem = make_modulator(b);
    const DecisionEdges edges(*modem);
    ASSERT_EQ(edges.re.empty(), false);
    EXPECT_EQ(edges.im.empty(), b == 1);
    // A point well inside a cell on the other axis: the first level.
    const double safe_re = modem->constellation()[0].real();
    const double safe_im = modem->constellation()[0].imag();
    std::vector<double> re, im, want;
    const auto add = [&](double r, double i, bool ok) {
      re.push_back(r);
      im.push_back(i);
      want.push_back(ok ? 1.0 : 0.0);
    };
    for (const double e : edges.re) {
      add(e - 0.5 * rho, safe_im, false);
      add(e + 0.5 * rho, safe_im, false);
      add(e, safe_im, false);
      add(e - 2.0 * rho, safe_im, true);
      add(e + 2.0 * rho, safe_im, true);
    }
    for (const double e : edges.im) {
      add(safe_re, e - 0.5 * rho, false);
      add(safe_re, e + 0.5 * rho, false);
      add(safe_re, e, false);
      add(safe_re, e - 2.0 * rho, true);
      add(safe_re, e + 2.0 * rho, true);
    }
    // The outer cells are open on their outer side.
    add(edges.re.back() + 10.0, safe_im, true);
    add(edges.re.front() - 10.0, safe_im, true);
    if (!edges.im.empty()) {
      add(safe_re, edges.im.back() + 10.0, true);
      add(safe_re, edges.im.front() - 10.0, true);
    }
    // NaN and ∞ fail closed.
    add(kNan, safe_im, false);
    add(safe_re, kNan, false);
    add(kInf, safe_im, false);
    for (const BatchKernels* k : runnable_tiers()) {
      const std::vector<double> got = margins(*k, edges, re, im, rho);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << simd::tier_name(k->tier) << " b=" << b << " estimate ("
            << re[i] << ", " << im[i] << ")";
      }
      // A NaN radius certifies nothing.
      EXPECT_EQ(margins(*k, edges, {safe_re}, {safe_im}, kNan)[0], 0.0);
    }
  }
}

TEST(NoiseCert, RadiusScalesWithTheGramAndFailsClosed) {
  // A 2 × 2 gram α·I: the estimate moves by at most ‖δ‖·√λ₊/λ₋ = ‖δ‖/√α,
  // divided by sym_scale.
  for (const BatchKernels* k : runnable_tiers()) {
    const std::size_t w_count = k->width;
    const auto radius = [&](double alpha, double off, double err,
                            double sym_scale) {
      AlignedVec<double> gram(4 * w_count, 0.0), y(2 * w_count, 0.0);
      AlignedVec<double> e(w_count, err), rho(w_count);
      for (std::size_t w = 0; w < w_count; ++w) {
        gram[0 * w_count + w] = alpha;
        gram[3 * w_count + w] = alpha;
        gram[1 * w_count + w] = off;
        gram[2 * w_count + w] = off;
      }
      k->cert_radius(gram.data(), 2, y.data(), 2, e.data(), 1, sym_scale,
                     rho.data());
      for (std::size_t w = 1; w < w_count; ++w) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rho[w]),
                  std::bit_cast<std::uint64_t>(rho[0]));
      }
      return rho[0];
    };
    const char* tier = simd::tier_name(k->tier);
    for (const double alpha : {1e-6, 1.0, 1e6}) {
      const double r = radius(alpha, 0.0, 1e-4, 2.0);
      EXPECT_GE(r, 1e-4 / std::sqrt(alpha) / 2.0) << tier << " α " << alpha;
      EXPECT_LE(r, 1e-4 / std::sqrt(alpha) / 2.0 * (1.0 + 1e-9))
          << tier << " α " << alpha;
    }
    // Off-diagonal mass widens the Gershgorin interval.
    EXPECT_GT(radius(1.0, 0.5, 1e-4, 1.0), 1e-4 * std::sqrt(1.5) / 0.5 * 0.99)
        << tier;
    // No positive finite λ₋: +∞.  NaN anywhere: no finite radius.
    EXPECT_EQ(radius(1.0, 1.0, 1e-4, 1.0), kInf) << tier;
    EXPECT_EQ(radius(0.0, 0.0, 1e-4, 1.0), kInf) << tier;
    EXPECT_EQ(radius(kInf, 0.0, 1e-4, 1.0), kInf) << tier;
    EXPECT_FALSE(radius(kNan, 0.0, 1e-4, 1.0) < kInf) << tier;
    EXPECT_FALSE(radius(1.0, kNan, 1e-4, 1.0) < kInf) << tier;
    EXPECT_FALSE(radius(1.0, 0.0, kNan, 1.0) < kInf) << tier;
    EXPECT_FALSE(radius(1.0, 0.0, 1e-4, 0.0) < kInf) << tier;
  }
}

// One decode of `k.width` lanes of an mt × mr link, twice: with exact
// noise (box_muller of the words) and no certificate, and with the
// approximation and the certificate.  `shape` may rewrite lane 0's
// channel before the encode.
struct TwoChains {
  BitVec exact;
  BitVec approx;
  std::vector<double> certified;
};

template <class Shape>
TwoChains decode_two_chains(const BatchKernels& k, unsigned mt, unsigned mr,
                            int b, double sym_scale, std::uint64_t seed,
                            Shape shape) {
  const StbcCode code = StbcCode::for_antennas(mt);
  const auto modem = make_modulator(b);
  const DecisionEdges edges(*modem);
  const std::size_t w_count = k.width;
  const std::size_t kk = code.symbols_per_block();
  const std::size_t samples = code.block_length() * mr;
  const std::size_t bpb = kk * static_cast<std::size_t>(b);
  LinkBatchWorkspace ws;
  ws.configure(code, mr, w_count, bpb);
  Rng rng(seed);
  std::vector<cplx> syms;
  for (std::size_t w = 0; w < w_count; ++w) {
    const BitVec bits = random_bits(bpb, seed + w);
    modem->modulate_into(bits, syms);
    for (std::size_t s = 0; s < kk; ++s) {
      ws.sym_re[s * w_count + w] = syms[s].real();
      ws.sym_im[s * w_count + w] = syms[s].imag();
    }
  }
  k.scale(ws.sym_re.data(), ws.sym_im.data(), kk, sym_scale);
  std::vector<Rng> rngs;
  for (std::size_t w = 0; w < w_count; ++w) rngs.emplace_back(seed, w);
  simd::random_gaussian_fill_batch(ws.h_re.data(), ws.h_im.data(),
                                   mr * mt, w_count, rngs.data());
  shape(ws, w_count);
  k.stbc_encode(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                code.block_length(), mt, kk, code.power_scale(),
                ws.sym_re.data(), ws.sym_im.data(), ws.enc_re.data(),
                ws.enc_im.data());
  k.multiply_transposed(ws.enc_re.data(), ws.enc_im.data(), ws.h_re.data(),
                        ws.h_im.data(), ws.rx_re.data(), ws.rx_im.data(),
                        code.block_length(), mt, mr);
  simd::draw_noise_words_batch(ws.noise_w1.data(), ws.noise_w2.data(),
                               samples, w_count, rngs.data());
  const AlignedVec<double> rx_re = ws.rx_re;
  const AlignedVec<double> rx_im = ws.rx_im;
  const double sigma = std::sqrt(0.5);
  for (std::size_t i = 0; i < samples * w_count; ++i) {
    const GaussianPair g =
        box_muller(std::bit_cast<std::uint64_t>(ws.noise_w1[i]),
                   std::bit_cast<std::uint64_t>(ws.noise_w2[i]));
    ws.rx_re[i] += g.first * sigma;
    ws.rx_im[i] += g.second * sigma;
  }
  TwoChains out;
  out.exact.resize(w_count * bpb);
  out.approx.resize(w_count * bpb);
  decode_demap_batch(k, code, mr, *modem, sym_scale, ws, out.exact.data(),
                     bpb);
  ws.rx_re = rx_re;
  ws.rx_im = rx_im;
  std::fill(ws.noise_err.begin(), ws.noise_err.end(), 0.0);
  k.add_noise_approx(ws.noise_w1.data(), ws.noise_w2.data(), samples, sigma,
                     1.0, ws.rx_re.data(), ws.rx_im.data(),
                     ws.noise_err.data());
  decode_demap_batch(k, code, mr, *modem, sym_scale, ws, out.approx.data(),
                     bpb, &edges);
  out.certified.assign(ws.certified.begin(),
                       ws.certified.begin() + static_cast<long>(w_count));
  return out;
}

void expect_certified_lanes_equal(const TwoChains& c, std::size_t bpb,
                                  const std::string& what) {
  for (std::size_t w = 0; w < c.certified.size(); ++w) {
    if (c.certified[w] == 0.0) continue;
    for (std::size_t i = 0; i < bpb; ++i) {
      ASSERT_EQ(c.approx[w * bpb + i], c.exact[w * bpb + i])
          << what << " lane " << w << " bit " << i;
    }
  }
}

TEST(NoiseCert, DegenerateChannelsFailClosed) {
  // Lane 0's channel is scaled into the subnormal range (its gram
  // underflows) or past the overflow threshold (its gram is ∞); it must
  // not be certified, while the regular lanes beside it decide like the
  // exact chain.  An all-zero channel is singular in both chains.
  for (const BatchKernels* k : runnable_tiers()) {
    for (const unsigned mt : {1u, 2u, 4u}) {
      for (const double scale : {1e-155, 1e-160, 1e200}) {
        const auto shape = [&](LinkBatchWorkspace& ws, std::size_t w_count) {
          for (std::size_t e = 0; e < 2 * mt; ++e) {
            ws.h_re[e * w_count] *= scale;
            ws.h_im[e * w_count] *= scale;
          }
        };
        const TwoChains c = decode_two_chains(*k, mt, 2, 2, 1.0, 77, shape);
        const std::string what = std::string(simd::tier_name(k->tier)) +
                                 " mt=" + std::to_string(mt) + " scale " +
                                 std::to_string(scale);
        EXPECT_EQ(c.certified[0], 0.0) << what;
        expect_certified_lanes_equal(c, StbcCode::for_antennas(mt)
                                                .symbols_per_block() * 2,
                                     what);
      }
      const auto zero = [&](LinkBatchWorkspace& ws, std::size_t w_count) {
        for (std::size_t e = 0; e < 2 * mt; ++e) {
          ws.h_re[e * w_count] = 0.0;
          ws.h_im[e * w_count] = 0.0;
        }
      };
      EXPECT_THROW((void)decode_two_chains(*k, mt, 2, 2, 1.0, 78, zero),
                   NumericError)
          << simd::tier_name(k->tier);
    }
  }
}

TEST(NoiseCert, EstimatesOnACellEdgeFailClosed) {
  // A SISO link with h = 1 and unit symbol scale passes the received
  // sample straight through (gram = I), so the estimate can be put on
  // an edge exactly; with the noise bound 0 only rounding slack is
  // left, and the margin 0 is below it.
  for (const BatchKernels* k : runnable_tiers()) {
    for (const int b : {1, 2, 4, 6}) {
      const auto modem = make_modulator(b);
      const DecisionEdges edges(*modem);
      const StbcCode code = StbcCode::for_antennas(1);
      const std::size_t w_count = k->width;
      LinkBatchWorkspace ws;
      ws.configure(code, 1, w_count, static_cast<std::size_t>(b));
      const double safe_im = modem->constellation()[0].imag();
      std::vector<std::pair<double, double>> on_edge;
      for (const double e : edges.re) on_edge.emplace_back(e, safe_im);
      for (const double e : edges.im) {
        on_edge.emplace_back(modem->constellation()[0].real(), e);
      }
      for (const auto& [re, im] : on_edge) {
        for (std::size_t w = 0; w < w_count; ++w) {
          ws.h_re[w] = 1.0;
          ws.h_im[w] = 0.0;
          ws.rx_re[w] = re;
          ws.rx_im[w] = im;
          ws.noise_err[w] = 0.0;
        }
        BitVec decoded(w_count * static_cast<std::size_t>(b));
        decode_demap_batch(*k, code, 1, *modem, 1.0, ws, decoded.data(),
                           static_cast<std::size_t>(b), &edges);
        for (std::size_t w = 0; w < w_count; ++w) {
          EXPECT_EQ(ws.certified[w], 0.0)
              << simd::tier_name(k->tier) << " b=" << b << " (" << re
              << ", " << im << ")";
        }
      }
    }
  }
}

TEST(NoiseCert, WeakChannelWidensTheRadius) {
  // h = 10⁻³ on a SISO link: the estimate is y·10³, so a received-sample
  // error of 10⁻⁶ moves it by 10⁻³.  An estimate 10⁻⁴ from an edge must
  // not be certified, one 10⁻² away must be.
  for (const BatchKernels* k : runnable_tiers()) {
    const auto modem = make_modulator(2);
    const DecisionEdges edges(*modem);
    const StbcCode code = StbcCode::for_antennas(1);
    const std::size_t w_count = k->width;
    LinkBatchWorkspace ws;
    ws.configure(code, 1, w_count, 2);
    for (const auto& [offset, ok] :
         {std::pair{1e-4, 0.0}, std::pair{-1e-4, 0.0}, std::pair{1e-2, 1.0},
          std::pair{-1e-2, 1.0}}) {
      for (std::size_t w = 0; w < w_count; ++w) {
        ws.h_re[w] = 1e-3;
        ws.h_im[w] = 0.0;
        ws.rx_re[w] = offset * 1e-3;
        ws.rx_im[w] = 0.5 * 1e-3;
        ws.noise_err[w] = 1e-6;
      }
      BitVec decoded(w_count * 2);
      decode_demap_batch(*k, code, 1, *modem, 1.0, ws, decoded.data(), 2,
                         &edges);
      for (std::size_t w = 0; w < w_count; ++w) {
        EXPECT_EQ(ws.certified[w], ok)
            << simd::tier_name(k->tier) << " offset " << offset;
      }
    }
  }
}

// ------------------------------------------ the certified kernels -----

TEST(NoiseCert, CertifiedLinkLanesEqualExactChain) {
  // Every design, mr 1..4, b 1..8, γ_b from −10 to 40 dB, every count
  // 1..8 on a workspace eight lanes wide plus the pinned width's one
  // pass: each lane's bits, errors and stream end against the exact
  // scalar block (run_block_is at unit scales).
  const std::size_t pinned = simd::batch_width();
  for (unsigned mt = 1; mt <= 4; ++mt) {
    for (unsigned mr = 1; mr <= 4; ++mr) {
      for (int b = 1; b <= 8; ++b) {
        for (const double gamma_db : {-10.0, 0.0, 10.0, 20.0, 30.0, 40.0}) {
          const WaveformBerKernel kernel(b, mt, mr, db_to_linear(gamma_db));
          const std::size_t bpb = kernel.bits_per_block();
          LinkWorkspace ref;
          kernel.prepare(ref);
          for (const std::size_t width : {std::size_t{8}, pinned}) {
            HopBatchWorkspace ws;
            kernel.prepare_batch(ws, width);
            for (std::size_t count = width == 8 ? 1 : width; count <= width;
                 ++count) {
              const std::uint64_t seed = 7 * mt + 31 * mr + b;
              const std::uint64_t base = 1000 * count + 100 * width +
                                         static_cast<std::uint64_t>(
                                             gamma_db + 10.0);
              std::vector<Rng> rngs;
              for (std::size_t i = 0; i < count; ++i) {
                rngs.emplace_back(seed, base + i);
              }
              const std::size_t errors =
                  kernel.run_block_batch(ws, rngs.data(), count);
              std::size_t want = 0;
              for (std::size_t i = 0; i < count; ++i) {
                Rng lane(seed, base + i);
                want += kernel.run_block_is(ref, lane, 1.0, 1.0).bit_errors;
                for (std::size_t j = 0; j < bpb; ++j) {
                  ASSERT_EQ(ws.link.decoded[i * bpb + j], ref.decoded[j])
                      << "mt=" << mt << " mr=" << mr << " b=" << b
                      << " γ=" << gamma_db << " width=" << width
                      << " count=" << count << " lane=" << i;
                }
                ASSERT_EQ(rngs[i].next(), lane.next());
              }
              ASSERT_EQ(errors, want);
            }
          }
        }
      }
    }
  }
}

UnderlayHopPlan hop_plan(unsigned mt, unsigned mr, int b, double ebar_scale) {
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig cfg;
  cfg.mt = mt;
  cfg.mr = mr;
  cfg.hop_distance_m = 200.0;
  cfg.ber = 1e-2;
  UnderlayHopPlan plan = planner.plan(cfg, BSelectionRule::kMinTotalPa);
  plan.b = b;
  plan.ebar *= ebar_scale;
  return plan;
}

TEST(NoiseCert, CertifiedHopLanesEqualOracleAtEveryTier) {
  // The broadcast and long haul of every design, mr 1..4, b 1..8, long
  // hauls from 10 dB below to 30 dB above the plan's ē_b and two local
  // SNRs, at every tier and at a ragged count, against the lane-serial
  // exact oracle.
  for (unsigned mt = 1; mt <= 4; ++mt) {
    for (unsigned mr = 1; mr <= 4; ++mr) {
      for (int b = 1; b <= 8; ++b) {
        for (const double scale : {0.1, 1.0, 1e3}) {
          for (const double local_db : {6.0, 30.0}) {
            const UnderlayHopPlan plan = hop_plan(mt, mr, b, scale);
            const CoopHopBlockKernel kernel(plan, local_db);
            oracle::HopOracle serial(plan, local_db);
            const std::size_t bpb = kernel.bits_per_block();
            const std::uint64_t seed = 100 * mt + 10 * mr + b;
            const BitVec payload = random_bits(16 * bpb, seed);
            std::vector<const BatchKernels*> tiers = runnable_tiers();
            tiers.push_back(nullptr);  // the pinned table at a ragged count
            for (const BatchKernels* k : tiers) {
              const std::size_t width =
                  k ? k->width : std::max<std::size_t>(simd::batch_width(), 2);
              const std::size_t count = k ? width : width - 1;
              HopBatchWorkspace ws_batch, ws_serial;
              kernel.prepare_batch(ws_batch, width);
              kernel.prepare_batch(ws_serial, width);
              CoopHopBlockKernel::GroupStats got[CoopHopBlockKernel::kMaxLanes]{};
              CoopHopBlockKernel::GroupStats want[CoopHopBlockKernel::kMaxLanes]{};
              kernel.run_group_batch(ws_batch, payload.data(), 3, count, seed,
                                     kernel.decoder_full(), got, k);
              serial.run_group_serial(ws_serial, payload.data(), 3, count,
                                      seed, kernel.decoder_full(), want);
              for (std::size_t w = 0; w < count; ++w) {
                for (std::size_t i = 0; i < bpb; ++i) {
                  ASSERT_EQ(ws_batch.decoded_lane(w)[i],
                            ws_serial.decoded_lane(w)[i])
                      << (k ? simd::tier_name(k->tier) : "ragged")
                      << " mt=" << mt << " mr=" << mr << " b=" << b
                      << " scale " << scale << " local " << local_db
                      << " lane " << w << " bit " << i;
                }
                ASSERT_EQ(got[w].intra_errors, want[w].intra_errors);
                ASSERT_EQ(got[w].intra_bits, want[w].intra_bits);
              }
            }
          }
        }
      }
    }
  }
}

TEST(NoiseCert, PendingSpareFallsBackExactly) {
  // A stream with a Box–Muller spare pending pairs its noise values
  // across word pairs; its lane must rerun exactly and leave the stream,
  // spare included, where the exact chain leaves it.
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter link_exact = reg.counter("phy.link_exact_lanes");
  const obs::Counter hop_exact = reg.counter("coophop.exact_lanes");
  const std::size_t width = simd::batch_width();
  for (const int b : {1, 2, 4}) {
    const WaveformBerKernel kernel(b, 2, 2, db_to_linear(0.0));
    const std::size_t bpb = kernel.bits_per_block();
    LinkWorkspace ref;
    kernel.prepare(ref);
    for (const std::size_t prepared : {width, std::size_t{8}}) {
      HopBatchWorkspace ws;
      kernel.prepare_batch(ws, prepared);
      std::vector<Rng> rngs;
      std::vector<Rng> copies;
      std::uint64_t spares = 0;
      for (std::size_t i = 0; i < prepared; ++i) {
        rngs.emplace_back(91, i);
        if (i % 2 == 0) {
          (void)rngs.back().gaussian();
          ++spares;
        }
        copies.push_back(rngs.back());
      }
      const std::uint64_t before = link_exact.value();
      const std::size_t errors =
          kernel.run_block_batch(ws, rngs.data(), prepared);
      EXPECT_GE(link_exact.value() - before, spares);
      std::size_t want = 0;
      for (std::size_t i = 0; i < prepared; ++i) {
        want += kernel.run_block_is(ref, copies[i], 1.0, 1.0).bit_errors;
        for (std::size_t j = 0; j < bpb; ++j) {
          ASSERT_EQ(ws.link.decoded[i * bpb + j], ref.decoded[j])
              << "b=" << b << " lane " << i;
        }
        EXPECT_EQ(rngs[i].gaussian_spare_pending(),
                  copies[i].gaussian_spare_pending());
        EXPECT_EQ(rngs[i].gaussian(), copies[i].gaussian()) << "lane " << i;
        EXPECT_EQ(rngs[i].next(), copies[i].next()) << "lane " << i;
      }
      EXPECT_EQ(errors, want);
    }
  }

  // The hop: spares on the long-haul and the local stream of alternate
  // lanes, through the broadcast and the long haul, at every tier.
  const UnderlayHopPlan plan = hop_plan(3, 3, 2, 0.3);
  const CoopHopBlockKernel kernel(plan, 8.0);
  oracle::HopOracle serial(plan, 8.0);
  const std::size_t bpb = kernel.bits_per_block();
  const BitVec payload = random_bits(8 * bpb, 5);
  for (const BatchKernels* k : runnable_tiers()) {
    const std::size_t w_count = k->width;
    std::vector<Rng> channel;
    std::vector<AwgnChannel> long_haul, local;
    for (std::size_t w = 0; w < w_count; ++w) {
      channel.emplace_back(17, 3 * w);
      Rng a(17, 3 * w + 1);
      Rng c(17, 3 * w + 2);
      if (w % 2 == 0) (void)a.gaussian();
      if (w % 3 != 2) (void)c.gaussian();
      long_haul.emplace_back(1.0, a);
      local.emplace_back(kernel.local_noise_var(), c);
    }
    std::vector<Rng> channel_ref = channel;
    std::vector<AwgnChannel> long_ref = long_haul, local_ref = local;
    HopBatchWorkspace ws, ws_ref;
    kernel.prepare_batch(ws, w_count);
    kernel.prepare_batch(ws_ref, w_count);
    CoopHopBlockKernel::GroupStats got[CoopHopBlockKernel::kMaxLanes]{};
    CoopHopBlockKernel::GroupStats want[CoopHopBlockKernel::kMaxLanes]{};
    const std::uint64_t before = hop_exact.value();
    kernel.broadcast_batch(ws, w_count, payload.data(), local.data(), got, k);
    kernel.long_haul_batch(ws, 0, w_count, kernel.decoder_full(),
                           channel.data(), long_haul.data(), local.data(), k);
    EXPECT_GT(hop_exact.value(), before);
    for (std::size_t w = 0; w < w_count; ++w) {
      serial.broadcast_lane(ws_ref, w, {payload.data() + w * bpb, bpb},
                            local_ref[w], want[w]);
      serial.long_haul_lane(ws_ref, w, kernel.decoder_full(), channel_ref[w],
                            long_ref[w], local_ref[w]);
      EXPECT_EQ(got[w].intra_errors, want[w].intra_errors);
      for (std::size_t i = 0; i < bpb; ++i) {
        ASSERT_EQ(ws.decoded_lane(w)[i], ws_ref.decoded_lane(w)[i])
            << simd::tier_name(k->tier) << " lane " << w << " bit " << i;
      }
      EXPECT_EQ(long_haul[w].spare_pending(), long_ref[w].spare_pending());
      EXPECT_EQ(local[w].spare_pending(), local_ref[w].spare_pending());
      EXPECT_EQ(long_haul[w].sample(), long_ref[w].sample()) << "lane " << w;
      EXPECT_EQ(local[w].sample(), local_ref[w].sample()) << "lane " << w;
      EXPECT_EQ(channel[w].next(), channel_ref[w].next()) << "lane " << w;
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(NoiseCert, ExactLaneShareIsSmall) {
  // The certificate refuses only decisions within about 10⁻¹⁰ of an
  // edge: at 6 dB, essentially none.
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter blocks = reg.counter("phy.link_blocks");
  const obs::Counter exact = reg.counter("phy.link_exact_lanes");
  const obs::Counter lanes = reg.counter("coophop.lanes");
  const obs::Counter hop_exact = reg.counter("coophop.exact_lanes");
  const std::uint64_t b0 = blocks.value(), e0 = exact.value();
  const std::uint64_t l0 = lanes.value(), h0 = hop_exact.value();
  WaveformBerConfig cfg;
  cfg.b = 4;
  cfg.mt = 4;
  cfg.mr = 4;
  cfg.blocks = 4000;
  (void)measure_waveform_ber(cfg, 6.0);
  CoopHopSimConfig sim;
  sim.plan = hop_plan(4, 4, 2, 1.0);
  sim.bits = 20000;
  sim.local_snr_db = 12.0;
  (void)simulate_cooperative_hop(sim);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(blocks.value() - b0, 4000u);
  EXPECT_LE(exact.value() - e0, 4u);
  EXPECT_GT(lanes.value() - l0, 2000u);
  EXPECT_LE(hop_exact.value() - h0, 4u);
}

}  // namespace
}  // namespace comimo
