#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/sim/time.h"

namespace wdmlat::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(3.0, 7.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(5.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(14);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(15);
  std::vector<double> values;
  const int n = 100001;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    values.push_back(rng.LogNormalMedian(8.0, 0.5));
  }
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], 8.0, 0.25);
}

TEST(RngTest, BoundedParetoRespectsBounds) {
  Rng rng(16);
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.BoundedPareto(1.3, 10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(RngTest, BoundedParetoIsHeavyTailed) {
  Rng rng(17);
  int above_100 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.BoundedPareto(1.0, 10.0, 10000.0) > 100.0) {
      ++above_100;
    }
  }
  // For alpha=1 a noticeable fraction of mass lies an order of magnitude
  // above the minimum — far more than an exponential would put there.
  EXPECT_GT(above_100, n / 50);
  EXPECT_LT(above_100, n / 2);
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(99);
  Rng child1 = parent1.Fork();
  Rng parent2(99);
  Rng child2 = parent2.Fork();
  // Same fork point => same child stream.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

// ---- DurationDist -------------------------------------------------------------

TEST(DurationDistTest, ZeroAlwaysSamplesZero) {
  Rng rng(20);
  DurationDist d = DurationDist::Zero();
  EXPECT_TRUE(d.is_zero());
  EXPECT_EQ(d.Sample(rng), 0u);
  EXPECT_EQ(d.MeanUs(), 0.0);
}

TEST(DurationDistTest, ConstantSamplesExactCycles) {
  Rng rng(21);
  DurationDist d = DurationDist::Constant(5.0);
  EXPECT_EQ(d.Sample(rng), UsToCycles(5.0));
  EXPECT_EQ(d.MeanUs(), 5.0);
  EXPECT_EQ(d.UpperBoundUs(), 5.0);
}

// gtest prints a DistCase parameter as raw bytes, the first eight being the
// `name` pointer, so the low byte of each name's address shows up in the listed
// test names. Keeping the names at fixed offsets inside one 256-byte-aligned
// block makes those names independent of how the rest of the binary is laid
// out; the lead offset matches the names this suite has always been listed
// under.
struct alignas(256) DistCaseNames {
  char lead[0xCC];
  char constant[9];
  char uniform[8];
  char exponential[12];
  char lognormal[10];
  char pareto[7];
};
constexpr DistCaseNames kDistCaseNames = {
    {}, "constant", "uniform", "exponential", "lognormal", "pareto"};

struct DistCase {
  const char* name;
  DurationDist dist;
  double expected_mean_us;
};

class DurationDistParamTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DurationDistParamTest, EmpiricalMeanMatchesAnalyticMean) {
  const DistCase& c = GetParam();
  Rng rng(1234);
  double sum = 0.0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    sum += c.dist.SampleUs(rng);
  }
  const double empirical = sum / n;
  EXPECT_NEAR(empirical, c.expected_mean_us, 0.03 * c.expected_mean_us + 0.01)
      << "dist " << c.name;
  EXPECT_NEAR(c.dist.MeanUs(), c.expected_mean_us, 0.001 * c.expected_mean_us + 1e-9);
}

TEST_P(DurationDistParamTest, SamplesNonNegativeAndBounded) {
  const DistCase& c = GetParam();
  Rng rng(555);
  const double upper = c.dist.UpperBoundUs();
  for (int i = 0; i < 20000; ++i) {
    const double v = c.dist.SampleUs(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, upper * 1.0001 + 1e-9) << "dist " << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DurationDistParamTest,
    ::testing::Values(
        DistCase{kDistCaseNames.constant, DurationDist::Constant(7.0), 7.0},
        DistCase{kDistCaseNames.uniform, DurationDist::Uniform(2.0, 10.0), 6.0},
        DistCase{kDistCaseNames.exponential, DurationDist::Exponential(4.0), 4.0},
        DistCase{kDistCaseNames.lognormal, DurationDist::LogNormal(10.0, 0.5),
                 10.0 * std::exp(0.5 * 0.5 * 0.5)},
        DistCase{kDistCaseNames.pareto, DurationDist::BoundedPareto(1.5, 10.0, 1000.0),
                 // alpha/(alpha-1) * lo^a ... computed analytically below.
                 DurationDist::BoundedPareto(1.5, 10.0, 1000.0).MeanUs()}),
    [](const ::testing::TestParamInfo<DistCase>& info) { return info.param.name; });

// Cross-check the bounded-Pareto analytic mean against a direct numeric
// integration, since the parameterized case above would otherwise be
// self-referential.
TEST(DurationDistTest, BoundedParetoAnalyticMeanMatchesIntegration) {
  const double alpha = 1.5, lo = 10.0, hi = 1000.0;
  DurationDist d = DurationDist::BoundedPareto(alpha, lo, hi);
  // Numeric integration of x * pdf(x).
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  double integral = 0.0;
  const int steps = 2000000;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i < steps; ++i) {
    const double x = lo + (i + 0.5) * dx;
    const double pdf = alpha * la / (1.0 - la / ha) * std::pow(x, -alpha - 1.0);
    integral += x * pdf * dx;
  }
  EXPECT_NEAR(d.MeanUs(), integral, 0.01 * integral);
}

}  // namespace
}  // namespace wdmlat::sim
