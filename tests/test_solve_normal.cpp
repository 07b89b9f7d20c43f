// Differential tests for BatchKernels::solve_normal, the batched real
// solve of the STBC normal equations.  The oracle is CMatrix::solve_into
// on the same real system.  Every tier, at every lane count, must give
// the complex solve's real parts: equal values everywhere, identical
// bits wherever a value is nonzero (an exact zero may differ in sign,
// which no decode consumer can see), and NaN exactly where the oracle
// has NaN.  Each lane must also stay independent of its neighbours.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/numeric/aligned.h"
#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {
namespace {

using simd::BatchKernels;
using simd::Tier;

// The scalar table plus every vector tier the host can run.
std::vector<const BatchKernels*> all_tiers() {
  std::vector<const BatchKernels*> out;
  for (const Tier t : {Tier::kScalar, Tier::kSse2, Tier::kAvx2,
                       Tier::kAvx512, Tier::kNeon}) {
    if (const BatchKernels* k = simd::kernels_for_tier(t)) out.push_back(k);
  }
  return out;
}

// One lane's real system A x = b, A row-major n × n.
struct System {
  std::size_t n = 0;
  std::vector<double> a;
  std::vector<double> b;
};

// What CMatrix::solve_into makes of a system: the solution and the
// eliminated matrix, or `singular` when it throws.
struct Oracle {
  std::vector<cplx> x;
  std::vector<cplx> u;
  bool singular = false;
};

Oracle complex_solve(const System& s) {
  CMatrix m(s.n, s.n);
  std::vector<cplx> rhs(s.n);
  for (std::size_t r = 0; r < s.n; ++r) {
    for (std::size_t c = 0; c < s.n; ++c) {
      m(r, c) = cplx{s.a[r * s.n + c], 0.0};
    }
    rhs[r] = cplx{s.b[r], 0.0};
  }
  Oracle o;
  try {
    m.solve_into(rhs, o.x, o.u);
  } catch (const NumericError&) {
    o.singular = true;
  }
  return o;
}

// got == want, identical bits when want is nonzero, NaN where want is.
void expect_same_value(double got, double want, const std::string& where) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << where << ": want NaN, got " << got;
    return;
  }
  EXPECT_EQ(got, want) << where;
  if (want != 0.0) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << where;
  }
}

struct Planes {
  AlignedVec<double> gram;
  AlignedVec<double> rhs;
};

// One system per lane, in the SoA layout gram_rhs writes.
Planes pack(const std::vector<System>& lanes) {
  const std::size_t w_count = lanes.size();
  const std::size_t n = lanes[0].n;
  Planes p{AlignedVec<double>(n * n * w_count),
           AlignedVec<double>(n * w_count)};
  for (std::size_t w = 0; w < w_count; ++w) {
    EXPECT_EQ(lanes[w].n, n);
    for (std::size_t e = 0; e < n * n; ++e) {
      p.gram[e * w_count + w] = lanes[w].a[e];
    }
    for (std::size_t e = 0; e < n; ++e) p.rhs[e * w_count + w] = lanes[w].b[e];
  }
  return p;
}

// Runs the tier's kernel on one system per lane and checks every lane's
// solution and upper triangle against its own oracle.
void expect_lanes_match_oracle(const BatchKernels& k,
                               const std::vector<System>& lanes,
                               const std::string& what) {
  const std::size_t w_count = k.width;
  ASSERT_EQ(lanes.size(), w_count);
  const std::size_t n = lanes[0].n;
  Planes p = pack(lanes);
  ASSERT_TRUE(k.solve_normal(p.gram.data(), p.rhs.data(), n))
      << what << " tier " << simd::tier_name(k.tier);
  for (std::size_t w = 0; w < w_count; ++w) {
    const Oracle o = complex_solve(lanes[w]);
    ASSERT_FALSE(o.singular) << what << " lane " << w;
    const std::string at = what + " tier " + simd::tier_name(k.tier) +
                           " lane " + std::to_string(w);
    for (std::size_t r = 0; r < n; ++r) {
      expect_same_value(p.rhs[r * w_count + w], o.x[r].real(),
                        at + " x[" + std::to_string(r) + "]");
      for (std::size_t c = r; c < n; ++c) {
        expect_same_value(p.gram[(r * n + c) * w_count + w],
                          o.u[r * n + c].real(),
                          at + " u(" + std::to_string(r) + "," +
                              std::to_string(c) + ")");
      }
    }
  }
}

// The normal equations of one STBC block with a CN(0, 1) channel and
// received samples, built by the scalar table's F/y and gram kernels —
// what every decode solves.
System stbc_system(std::size_t mt, std::size_t mr, Rng& rng) {
  const StbcCode code = StbcCode::for_antennas(mt);
  const std::size_t t = code.block_length();
  const std::size_t kk = code.symbols_per_block();
  const std::size_t rows = 2 * t * mr;
  const std::size_t cols = 2 * kk;
  const auto draw = [&](std::size_t elems, std::vector<double>& re,
                        std::vector<double>& im) {
    re.resize(elems);
    im.resize(elems);
    for (std::size_t e = 0; e < elems; ++e) {
      const cplx v = rng.complex_gaussian();
      re[e] = v.real();
      im[e] = v.imag();
    }
  };
  std::vector<double> h_re, h_im, rx_re, rx_im;
  draw(mr * mt, h_re, h_im);
  draw(t * mr, rx_re, rx_im);
  std::vector<double> f(rows * cols), y(rows);
  System s{cols, std::vector<double>(cols * cols), std::vector<double>(cols)};
  const BatchKernels& scalar = *simd::kernels_for_tier(Tier::kScalar);
  scalar.stbc_build_fy(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                       t, mt, kk, mr, code.power_scale(), h_re.data(),
                       h_im.data(), rx_re.data(), rx_im.data(), f.data(),
                       y.data());
  scalar.gram_rhs(f.data(), y.data(), rows, cols, s.a.data(), s.b.data());
  return s;
}

// A diagonally dominant system: partial pivoting never swaps.
System dominant_system(std::size_t n, Rng& rng) {
  System s{n, std::vector<double>(n * n), std::vector<double>(n)};
  for (auto& v : s.a) v = rng.gaussian();
  for (auto& v : s.b) v = rng.gaussian();
  for (std::size_t r = 0; r < n; ++r) {
    s.a[r * n + r] = 4.0 * static_cast<double>(n) + std::fabs(rng.gaussian());
  }
  return s;
}

// A dense system whose column-0 maximum sits in row `pivot_row`, so the
// first step swaps unless pivot_row is 0; later steps swap as the random
// entries fall.
System swap_system(std::size_t n, std::size_t pivot_row, Rng& rng) {
  System s{n, std::vector<double>(n * n), std::vector<double>(n)};
  for (auto& v : s.a) v = rng.gaussian();
  for (auto& v : s.b) v = rng.gaussian();
  for (std::size_t r = 0; r < n; ++r) {
    s.a[r * n] = std::fmod(s.a[r * n], 1.0);
  }
  s.a[pivot_row * n] = -8.0 - static_cast<double>(pivot_row);
  return s;
}

// Equal magnitudes of both signs below the column-0 maximum in row
// `first_max`: the strict > keeps the first maximum, so no tie swaps.
System tie_system(std::size_t n, std::size_t first_max, Rng& rng) {
  System s = swap_system(n, first_max, rng);
  const double top = std::fabs(s.a[first_max * n]);
  for (std::size_t r = first_max + 1; r < n; ++r) {
    s.a[r * n] = r % 2 == 0 ? top : -top;
  }
  return s;
}

// A system whose lanes, mixed in one batch, take different paths: some
// keep every diagonal pivot, some swap at the first step, some later.
System mixed_system(std::size_t n, std::size_t lane, Rng& rng) {
  return lane % 3 == 0 ? dominant_system(n, rng)
                       : swap_system(n, lane % n, rng);
}

// ------------------------------------------------------------------

TEST(SimdSolveNormal, StbcGramsMatchComplexSolveAtEveryTierAndLaneCount) {
  for (const BatchKernels* k : all_tiers()) {
    const std::size_t w_count = k->width;
    for (std::size_t mt = 1; mt <= kMaxStbcTx; ++mt) {
      for (std::size_t mr = 1; mr <= 4; ++mr) {
        // The first `count` lanes carry STBC grams, the rest systems
        // that pivot differently — a lane count the pass may run with.
        for (std::size_t count = 1; count <= w_count; ++count) {
          Rng rng(101, (mt * 8 + mr) * 16 + count);
          const std::size_t n =
              2 * StbcCode::for_antennas(mt).symbols_per_block();
          std::vector<System> lanes;
          for (std::size_t w = 0; w < w_count; ++w) {
            lanes.push_back(w < count ? stbc_system(mt, mr, rng)
                                      : mixed_system(n, w, rng));
          }
          expect_lanes_match_oracle(
              *k, lanes,
              "mt " + std::to_string(mt) + " mr " + std::to_string(mr) +
                  " count " + std::to_string(count));
        }
      }
    }
  }
}

TEST(SimdSolveNormal, RowSwapsMatchComplexSolvePerLane) {
  for (const BatchKernels* k : all_tiers()) {
    for (const std::size_t n : {2u, 3u, 4u, 8u}) {
      for (std::size_t rep = 0; rep < 8; ++rep) {
        Rng rng(202, n * 16 + rep);
        std::vector<System> lanes;
        for (std::size_t w = 0; w < k->width; ++w) {
          // Every lane swaps at the first step, each to its own row.
          lanes.push_back(swap_system(n, 1 + (w + rep) % (n - 1), rng));
        }
        expect_lanes_match_oracle(*k, lanes, "n " + std::to_string(n));
        // And a batch where lanes disagree on whether to swap at all.
        lanes.clear();
        for (std::size_t w = 0; w < k->width; ++w) {
          lanes.push_back(mixed_system(n, w + rep, rng));
        }
        expect_lanes_match_oracle(*k, lanes, "mixed n " + std::to_string(n));
        lanes.clear();
        for (std::size_t w = 0; w < k->width; ++w) {
          lanes.push_back(tie_system(n, (w + rep) % n, rng));
        }
        expect_lanes_match_oracle(*k, lanes, "ties n " + std::to_string(n));
      }
    }
  }
}

TEST(SimdSolveNormal, ExactZeroSubdiagonalsSkipRowsLikeTheScalarSolve) {
  // Exact ±0 below the first pivot, and for n > 2 multipliers that
  // underflow to zero below the second: those rows have f == 0 and the
  // scalar solve leaves them untouched.  A NaN in the first pivot row
  // makes a missed skip visible — 0·NaN would poison rows the scalar
  // solve never touches, whose solutions stay finite.
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  for (const BatchKernels* k : all_tiers()) {
    for (const std::size_t n : {2u, 4u, 8u}) {
      Rng rng(303, n);
      std::vector<System> lanes;
      for (std::size_t w = 0; w < k->width; ++w) {
        System s = dominant_system(n, rng);
        for (std::size_t r = 1; r < n; ++r) {
          s.a[r * n] = r % 2 == 0 ? 0.0 : -0.0;
          if (n > 2 && r > 1) s.a[r * n + 1] = r % 2 == 0 ? kTiny : -kTiny;
        }
        if (w % 2 == 1) {
          s.a[n - 1] = std::numeric_limits<double>::quiet_NaN();
        }
        lanes.push_back(std::move(s));
      }
      expect_lanes_match_oracle(*k, lanes, "n " + std::to_string(n));
      // Rows below the NaN row never saw it.
      Planes p = pack(lanes);
      ASSERT_TRUE(k->solve_normal(p.gram.data(), p.rhs.data(), n));
      for (std::size_t w = 0; w < k->width; ++w) {
        EXPECT_EQ(std::isnan(p.rhs[w]), w % 2 == 1) << "lane " << w;
        for (std::size_t r = 1; r < n; ++r) {
          EXPECT_TRUE(std::isfinite(p.rhs[r * k->width + w]))
              << "n " << n << " lane " << w << " x[" << r << "]";
        }
      }
    }
  }
}

TEST(SimdSolveNormal, NanMultiplierIsEliminatedAndStaysInItsLane) {
  // NaN == 0 is false, so a NaN multiplier does not skip its row: the
  // row is eliminated and turns NaN, as in the scalar solve.  One lane
  // per batch carries it; its neighbours must come out untouched.
  for (const BatchKernels* k : all_tiers()) {
    for (const std::size_t n : {2u, 3u, 8u}) {
      for (std::size_t bad = 0; bad < k->width; ++bad) {
        Rng rng(404, n * 16 + bad);
        std::vector<System> lanes;
        for (std::size_t w = 0; w < k->width; ++w) {
          System s = mixed_system(n, w, rng);
          // Below the first pivot for n = 2, below the second otherwise.
          if (w == bad) {
            s = dominant_system(n, rng);
            s.a[(n - 1) * n + (n > 2 ? 1 : 0)] =
                std::numeric_limits<double>::quiet_NaN();
          }
          lanes.push_back(std::move(s));
        }
        expect_lanes_match_oracle(*k, lanes,
                                  "n " + std::to_string(n) + " bad lane " +
                                      std::to_string(bad));
        Planes p = pack(lanes);
        ASSERT_TRUE(k->solve_normal(p.gram.data(), p.rhs.data(), n));
        for (std::size_t w = 0; w < k->width; ++w) {
          for (std::size_t r = 0; r < n; ++r) {
            EXPECT_EQ(std::isnan(p.rhs[r * k->width + w]), w == bad)
                << "n " << n << " lane " << w << " x[" << r << "]";
          }
        }
      }
    }
  }
}

// A 4 × 4 system whose first two rows are proportional: the first step
// swaps, eliminates the other row to exact zeros, and the second pivot
// column is then all zero.
System singular_after_swap_system() {
  return System{4,
                {1.0, 2.0, 0.0, 0.0,  //
                 2.0, 4.0, 0.0, 0.0,  //
                 0.0, 0.0, 1.0, 0.0,  //
                 0.0, 0.0, 0.0, 1.0},
                {1.0, 2.0, 3.0, 4.0}};
}

TEST(SimdSolveNormal, SingularLaneFailsTheWholeBatch) {
  for (const BatchKernels* k : all_tiers()) {
    for (std::size_t bad = 0; bad < k->width; ++bad) {
      Rng rng(505, bad);
      // A zero first column, and a singularity that only shows after a
      // swap and an elimination.
      for (const bool late : {false, true}) {
        std::vector<System> lanes;
        for (std::size_t w = 0; w < k->width; ++w) {
          System s = mixed_system(4, w, rng);
          if (w == bad) {
            if (late) {
              s = singular_after_swap_system();
            } else {
              for (std::size_t r = 0; r < 4; ++r) s.a[r * 4] = 0.0;
            }
          }
          EXPECT_EQ(complex_solve(s).singular, w == bad);
          lanes.push_back(std::move(s));
        }
        Planes p = pack(lanes);
        EXPECT_FALSE(k->solve_normal(p.gram.data(), p.rhs.data(), 4))
            << simd::tier_name(k->tier) << " bad lane " << bad
            << (late ? " (late)" : " (first column)");
      }
    }
  }
}

TEST(SimdSolveNormal, SingularLaneRaisesThroughBothDecodePaths) {
  // A lane whose channel is all zero has F = 0, so its gram is zero:
  // the batch decode of its pass and the per-block decoder both raise
  // the scalar solve's error instead of returning estimates.
  const auto modem = make_modulator(2);
  for (std::size_t mt = 1; mt <= kMaxStbcTx; ++mt) {
    const StbcCode code = StbcCode::for_antennas(mt);
    const std::size_t mr = 2;
    const std::size_t bits_per_block =
        code.symbols_per_block() *
        static_cast<std::size_t>(modem->bits_per_symbol());
    for (const BatchKernels* k : all_tiers()) {
      const std::size_t w_count = k->width;
      for (std::size_t bad = 0; bad <= w_count; ++bad) {
        LinkBatchWorkspace ws;
        ws.configure(code, mr, w_count, bits_per_block);
        Rng rng(606, mt * 16 + bad);
        for (std::size_t e = 0; e < ws.h_re.size(); ++e) {
          const bool zero = e % w_count == bad;
          ws.h_re[e] = zero ? 0.0 : rng.gaussian();
          ws.h_im[e] = zero ? 0.0 : rng.gaussian();
        }
        for (std::size_t e = 0; e < ws.rx_re.size(); ++e) {
          ws.rx_re[e] = rng.gaussian();
          ws.rx_im[e] = rng.gaussian();
        }
        std::vector<std::uint8_t> decoded(bits_per_block * w_count);
        const auto decode = [&] {
          decode_demap_batch(*k, code, mr, *modem, 1.0, ws, decoded.data(),
                             bits_per_block);
        };
        if (bad == w_count) {
          EXPECT_NO_THROW(decode()) << "no singular lane, mt " << mt;
        } else {
          EXPECT_THROW(decode(), NumericError)
              << simd::tier_name(k->tier) << " mt " << mt << " lane " << bad;
        }
      }
    }

    const StbcDecoder decoder(code);
    const CMatrix h(mr, mt);  // zero channel
    Rng rng(607, mt);
    const CMatrix received = CMatrix::random_gaussian(code.block_length(), mr,
                                                      rng);
    std::vector<cplx> out(code.symbols_per_block());
    StbcDecodeScratch scratch;
    EXPECT_THROW(decoder.decode_into(h, received, out, scratch), NumericError)
        << "mt " << mt;
    EXPECT_THROW((void)decoder.decode(h, received), NumericError)
        << "mt " << mt;
  }
}

}  // namespace
}  // namespace comimo
