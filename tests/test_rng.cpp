#include "comimo/numeric/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/stats.h"

namespace comimo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0);
  Rng b(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DiscardEqualsThatManyNextCalls) {
  for (const std::uint64_t n : {0u, 1u, 2u, 5u, 1000u}) {
    Rng a(31, 4);
    Rng b(31, 4);
    for (std::uint64_t i = 0; i < n; ++i) (void)a.next();
    b.discard(n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next(), b.next()) << "n=" << n;
  }
  // A pending Gaussian spare survives the discard untouched.
  Rng a(32);
  (void)a.gaussian();
  Rng b = a;
  ASSERT_TRUE(b.gaussian_spare_pending());
  b.discard(9);
  EXPECT_TRUE(b.gaussian_spare_pending());
  EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIntInRangeAndRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t n = 7;
  std::array<int, n> counts{};
  for (int i = 0; i < 70000; ++i) {
    const std::uint64_t v = rng.uniform_int(n);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, GaussianWithMeanStddev) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(19);
  RunningStats re;
  RunningStats im;
  RunningStats power;
  for (int i = 0; i < 100000; ++i) {
    const cplx z = rng.complex_gaussian(2.0);
    re.add(z.real());
    im.add(z.imag());
    power.add(std::norm(z));
  }
  // Each component has variance 1 and the total power 2.
  EXPECT_NEAR(re.variance(), 1.0, 0.03);
  EXPECT_NEAR(im.variance(), 1.0, 0.03);
  EXPECT_NEAR(power.mean(), 2.0, 0.05);
}

TEST(Rng, GammaMoments) {
  for (const double shape : {0.5, 1.0, 2.5, 6.0}) {
    Rng rng(23);
    RunningStats s;
    for (int i = 0; i < 100000; ++i) s.add(rng.gamma(shape));
    EXPECT_NEAR(s.mean(), shape, shape * 0.05) << "shape " << shape;
    EXPECT_NEAR(s.variance(), shape, shape * 0.1) << "shape " << shape;
  }
}

TEST(Rng, ExponentialUnitMean) {
  Rng rng(29);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential());
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
}

TEST(Rng, PointInDiskStaysInside) {
  Rng rng(31);
  const Vec2 c{5.0, -3.0};
  const double r = 4.0;
  RunningStats radial;
  for (int i = 0; i < 20000; ++i) {
    const Vec2 p = rng.point_in_disk(c, r);
    const double d = distance(p, c);
    ASSERT_LE(d, r + 1e-12);
    radial.add(d);
  }
  // Uniform over the area ⇒ E[d] = 2r/3.
  EXPECT_NEAR(radial.mean(), 2.0 * r / 3.0, 0.05);
}

TEST(Rng, SumOfSquaredComplexGaussiansIsGamma) {
  // ‖H‖²_F for an mt×mr CN(0,1) matrix ~ Gamma(mt·mr, 1): check the
  // first two moments — the distributional fact the ē_b solver uses.
  Rng rng(37);
  const int m = 6;  // 2x3
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    double x = 0.0;
    for (int j = 0; j < m; ++j) x += std::norm(rng.complex_gaussian(1.0));
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), m, 0.1);
  EXPECT_NEAR(s.variance(), m, 0.3);
}

}  // namespace
}  // namespace comimo
