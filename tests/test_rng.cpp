// Statistical and determinism tests for the RNG suite (paper Sec. IV-C:
// Ziggurat normal, Marsaglia-Tsang gamma, Poisson, binomial, multinomial).
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dreamsim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.rand_int32(), b.rand_int32());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.rand_int32() == b.rand_int32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, DeriveSeedIsDeterministicAndSpread) {
  EXPECT_EQ(DeriveSeed(42, 1), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(42, 2));
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(43, 1));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::array<int, 6> counts{};
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++counts[static_cast<std::size_t>(v - 10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
  }
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

struct GammaCase {
  double alpha;
  double theta;
};

class RngGammaTest : public ::testing::TestWithParam<GammaCase> {};

TEST_P(RngGammaTest, MomentsMatch) {
  const auto [alpha, theta] = GetParam();
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(alpha, theta);
    ASSERT_GT(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, alpha * theta, 0.03 * alpha * theta + 0.01);
  EXPECT_NEAR(var, alpha * theta * theta,
              0.08 * alpha * theta * theta + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RngGammaTest,
                         ::testing::Values(GammaCase{0.5, 1.0},
                                           GammaCase{1.0, 1.0},
                                           GammaCase{2.5, 1.0},
                                           GammaCase{4.0, 2.0},
                                           GammaCase{16.0, 0.5}));

class RngPoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonTest, MomentsMatch) {
  const double lambda = GetParam();
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const int k = rng.poisson(lambda);
    ASSERT_GE(k, 0);
    sum += k;
    sum_sq += static_cast<double>(k) * k;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, lambda, 0.03 * lambda + 0.02);
  EXPECT_NEAR(var, lambda, 0.08 * lambda + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, RngPoissonTest,
                         ::testing::Values(0.5, 2.0, 8.0, 12.0, 30.0, 100.0));

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

// Padding-free on purpose: gtest prints the parameter as raw bytes and CTest
// names each case after them, so padding bytes would make the names vary.
struct BinomialCase {
  double p;
  std::int64_t n;
};

class RngBinomialTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(RngBinomialTest, MomentsMatch) {
  const double p = GetParam().p;
  const int trials = static_cast<int>(GetParam().n);
  Rng rng(37);
  const int samples = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const int k = rng.binomial(p, trials);
    ASSERT_GE(k, 0);
    ASSERT_LE(k, trials);
    sum += k;
    sum_sq += static_cast<double>(k) * k;
  }
  const double mean = sum / samples;
  const double var = sum_sq / samples - mean * mean;
  const double expect_mean = p * trials;
  const double expect_var = trials * p * (1.0 - p);
  EXPECT_NEAR(mean, expect_mean, 0.03 * expect_mean + 0.03);
  EXPECT_NEAR(var, expect_var, 0.08 * expect_var + 0.08);
}

INSTANTIATE_TEST_SUITE_P(Cases, RngBinomialTest,
                         ::testing::Values(BinomialCase{0.5, 10},
                                           BinomialCase{0.1, 100},
                                           BinomialCase{0.9, 100},
                                           BinomialCase{0.3, 1000},
                                           BinomialCase{0.0, 50},
                                           BinomialCase{1.0, 50}));

TEST(Rng, MultinomialCountsSumToN) {
  Rng rng(41);
  const std::vector<double> probs{0.2, 0.3, 0.5};
  for (int i = 0; i < 200; ++i) {
    const auto counts = rng.multinomial(100, probs);
    ASSERT_EQ(counts.size(), 3u);
    int total = 0;
    for (const int c : counts) {
      ASSERT_GE(c, 0);
      total += c;
    }
    EXPECT_EQ(total, 100);
  }
}

TEST(Rng, MultinomialProportions) {
  Rng rng(43);
  const std::vector<double> probs{0.2, 0.3, 0.5};
  std::array<long, 3> totals{};
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    const auto counts = rng.multinomial(100, probs);
    for (std::size_t j = 0; j < 3; ++j) totals[j] += counts[j];
  }
  EXPECT_NEAR(totals[0] / (100.0 * reps), 0.2, 0.01);
  EXPECT_NEAR(totals[1] / (100.0 * reps), 0.3, 0.01);
  EXPECT_NEAR(totals[2] / (100.0 * reps), 0.5, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(47);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    const std::size_t idx = rng.weighted_index(weights);
    ASSERT_LT(idx, 3u);
    ++counts[idx];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], 10000, 500);
  EXPECT_NEAR(counts[2], 30000, 500);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(53);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW((void)rng.weighted_index(weights), std::invalid_argument);
}

TEST(Rng, GammaRejectsNonPositiveParams) {
  Rng rng(59);
  EXPECT_THROW((void)rng.gamma(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.gamma(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.gamma(-1.0), std::invalid_argument);
}

TEST(Rng, BinomialRejectsInvalidParams) {
  Rng rng(61);
  EXPECT_THROW((void)rng.binomial(-0.1, 10), std::invalid_argument);
  EXPECT_THROW((void)rng.binomial(1.1, 10), std::invalid_argument);
  EXPECT_THROW((void)rng.binomial(0.5, -1), std::invalid_argument);
}

TEST(Rng, PoissonRejectsNegativeLambda) {
  Rng rng(67);
  EXPECT_THROW((void)rng.poisson(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dreamsim
