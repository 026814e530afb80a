// Unit and property tests for the statistics module — the layer that
// regenerates the paper's Tables III/IV and Figures 6-11.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/boxplot.hpp"
#include "stats/descriptive.hpp"
#include "stats/dist.hpp"
#include "stats/histogram.hpp"
#include "stats/likert.hpp"
#include "stats/qq.hpp"
#include "stats/rank.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "stats/tests.hpp"

namespace stats = sagesim::stats;

// --- special functions -------------------------------------------------------

TEST(Special, InverseNormalMatchesKnownQuantiles) {
  EXPECT_NEAR(stats::inverse_normal_cdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(stats::inverse_normal_cdf(0.975), 1.959963985, 1e-8);
  EXPECT_NEAR(stats::inverse_normal_cdf(0.995), 2.575829304, 1e-8);
  EXPECT_NEAR(stats::inverse_normal_cdf(0.841344746), 1.0, 1e-7);
}

TEST(Special, InverseNormalIsInverseOfCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999})
    EXPECT_NEAR(stats::normal_cdf(stats::inverse_normal_cdf(p)), p, 1e-12);
}

TEST(Special, InverseNormalRejectsBoundary) {
  EXPECT_THROW(stats::inverse_normal_cdf(0.0), std::domain_error);
  EXPECT_THROW(stats::inverse_normal_cdf(1.0), std::domain_error);
  EXPECT_THROW(stats::inverse_normal_cdf(-0.1), std::domain_error);
}

TEST(Special, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x
  EXPECT_NEAR(stats::regularized_incomplete_beta(1, 1, 0.3), 0.3, 1e-12);
  // I_x(a, b) + I_{1-x}(b, a) = 1
  const double v1 = stats::regularized_incomplete_beta(2.5, 3.5, 0.4);
  const double v2 = stats::regularized_incomplete_beta(3.5, 2.5, 0.6);
  EXPECT_NEAR(v1 + v2, 1.0, 1e-12);
  EXPECT_NEAR(stats::regularized_incomplete_beta(2, 2, 0.5), 0.5, 1e-12);
}

TEST(Special, IncompleteGammaKnownValues) {
  // P(1, x) = 1 - exp(-x)
  EXPECT_NEAR(stats::regularized_lower_gamma(1.0, 2.0), 1.0 - std::exp(-2.0),
              1e-12);
  EXPECT_NEAR(stats::regularized_lower_gamma(0.5, 100.0), 1.0, 1e-10);
  EXPECT_NEAR(stats::regularized_lower_gamma(3.0, 0.0), 0.0, 1e-15);
}

// --- distributions -----------------------------------------------------------

TEST(Dist, NormalCdfSymmetry) {
  EXPECT_NEAR(stats::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(stats::normal_cdf(1.96) + stats::normal_cdf(-1.96), 1.0, 1e-12);
}

TEST(Dist, TCdfApproachesNormalForLargeDf) {
  EXPECT_NEAR(stats::t_cdf(1.96, 1e6), stats::normal_cdf(1.96), 1e-5);
}

TEST(Dist, TCdfKnownCriticalValues) {
  // t(0.975, df=10) = 2.228
  EXPECT_NEAR(stats::t_cdf(2.228, 10), 0.975, 5e-4);
  EXPECT_NEAR(stats::t_cdf(0.0, 5), 0.5, 1e-12);
}

TEST(Dist, FCdfMatchesPaperLeveneP) {
  // Levene's W = 2.437 on (1, 38) df gives p = .127 in the paper.
  EXPECT_NEAR(1.0 - stats::f_cdf(2.437, 1, 38), 0.127, 2e-3);
}

TEST(Dist, Chi2KnownCriticalValue) {
  // chi2(0.95, df=3) = 7.815
  EXPECT_NEAR(stats::chi2_cdf(7.815, 3), 0.95, 1e-4);
}

// --- descriptive --------------------------------------------------------------

TEST(Descriptive, BasicMoments) {
  const std::vector<double> x{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::mean(x), 5.0);
  EXPECT_NEAR(stats::sample_sd(x), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats::population_variance(x), 4.0);
}

TEST(Descriptive, QuantilesMatchNumpyType7) {
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.25), 1.75);
}

TEST(Descriptive, DescribeFillsTableIvColumns) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const auto d = stats::describe(x);
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.median, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_EQ(d.count, 5u);
}

TEST(Descriptive, SkewnessSignIsCorrect) {
  const std::vector<double> right{1, 1, 1, 2, 10};
  const std::vector<double> left{1, 9, 10, 10, 10};
  EXPECT_GT(stats::skewness(right), 0.5);
  EXPECT_LT(stats::skewness(left), -0.5);
}

TEST(Descriptive, RejectsDegenerateInputs) {
  const std::vector<double> one{1.0};
  EXPECT_THROW(stats::sample_variance(one), std::invalid_argument);
  EXPECT_THROW(stats::mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(stats::quantile(one, 1.5), std::invalid_argument);
}

// --- ranks --------------------------------------------------------------------

TEST(Rank, SimpleRanking) {
  const std::vector<double> x{30, 10, 20};
  const auto r = stats::rankdata(x);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Rank, TiesGetMidranks) {
  const std::vector<double> x{1, 2, 2, 3};
  const auto r = stats::rankdata(x);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Rank, TieCorrectionCountsGroups) {
  const std::vector<double> x{1, 1, 1, 2, 3, 3};
  // (3^3-3) + (2^3-2) = 24 + 6 = 30
  EXPECT_DOUBLE_EQ(stats::tie_correction(x), 30.0);
  const auto sizes = stats::tie_group_sizes(x);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 3u);
}

// --- Shapiro–Wilk --------------------------------------------------------------

TEST(ShapiroWilk, MatchesPublishedExample) {
  // Shapiro & Wilk's (1965) classic weights example; R reports
  // W = 0.78878, p = 0.006704.
  const std::vector<double> men{148, 154, 158, 160, 161, 162,
                                166, 170, 182, 195, 236};
  const auto r = stats::shapiro_wilk(men);
  EXPECT_NEAR(r.w, 0.7888, 2e-3);
  EXPECT_NEAR(r.p_value, 0.0067, 1e-3);
}

TEST(ShapiroWilk, NormalSamplesUsuallyPass) {
  stats::Rng rng(101);
  int rejections = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const auto x = rng.normals(50, 10.0, 2.0);
    if (stats::shapiro_wilk(x).p_value < 0.05) ++rejections;
  }
  // ~5% expected; allow generous slack.
  EXPECT_LE(rejections, 7);
}

TEST(ShapiroWilk, ExponentialSamplesFail) {
  stats::Rng rng(102);
  std::vector<double> x(60);
  for (auto& v : x) v = rng.exponential(1.0);
  const auto r = stats::shapiro_wilk(x);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_LT(r.w, 0.95);
}

TEST(ShapiroWilk, LocationScaleInvariant) {
  stats::Rng rng(103);
  const auto x = rng.normals(30);
  std::vector<double> y;
  for (double v : x) y.push_back(1000.0 + 50.0 * v);
  EXPECT_NEAR(stats::shapiro_wilk(x).w, stats::shapiro_wilk(y).w, 1e-10);
}

TEST(ShapiroWilk, RejectsBadInputs) {
  EXPECT_THROW(stats::shapiro_wilk(std::vector<double>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW(stats::shapiro_wilk(std::vector<double>(10, 5.0)),
               std::invalid_argument);
}

TEST(ShapiroWilk, WStaysInUnitInterval) {
  stats::Rng rng(104);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> x(15);
    for (auto& v : x) v = rng.uniform(0, 1);
    const auto r = stats::shapiro_wilk(x);
    EXPECT_GE(r.w, 0.0);
    EXPECT_LE(r.w, 1.0);
    EXPECT_GE(r.p_value, 0.0);
    EXPECT_LE(r.p_value, 1.0);
  }
}

// --- Levene ---------------------------------------------------------------------

TEST(Levene, EqualVariancesNotRejected) {
  stats::Rng rng(105);
  const auto a = rng.normals(40, 0.0, 3.0);
  const auto b = rng.normals(40, 5.0, 3.0);  // same spread, shifted mean
  const auto r = stats::levene(a, b);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(Levene, UnequalVariancesRejected) {
  stats::Rng rng(106);
  const auto a = rng.normals(60, 0.0, 1.0);
  const auto b = rng.normals(60, 0.0, 6.0);
  const auto r = stats::levene(a, b);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_GT(r.statistic, 10.0);
}

TEST(Levene, DegreesOfFreedomAreCorrect) {
  stats::Rng rng(107);
  const auto a = rng.normals(20);
  const auto b = rng.normals(20);
  const auto r = stats::levene(a, b);
  EXPECT_DOUBLE_EQ(r.df_between, 1.0);
  EXPECT_DOUBLE_EQ(r.df_within, 38.0);  // the paper's df: (1, 38)
}

TEST(Levene, SupportsThreeGroups) {
  stats::Rng rng(108);
  const auto a = rng.normals(15);
  const auto b = rng.normals(15);
  const auto c = rng.normals(15);
  const std::span<const double> groups[] = {a, b, c};
  const auto r = stats::levene(
      std::span<const std::span<const double>>(groups, 3));
  EXPECT_DOUBLE_EQ(r.df_between, 2.0);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Levene, MeanCenterVariantDiffers) {
  stats::Rng rng(109);
  std::vector<double> a(25), b(25);
  for (auto& v : a) v = rng.exponential(1.0);
  for (auto& v : b) v = rng.exponential(0.5);
  const auto med = stats::levene(a, b, stats::LeveneCenter::kMedian);
  const auto mean = stats::levene(a, b, stats::LeveneCenter::kMean);
  EXPECT_NE(med.statistic, mean.statistic);
}

TEST(Levene, RejectsTooFewGroups) {
  const std::vector<double> a{1, 2, 3};
  const std::span<const double> groups[] = {a};
  EXPECT_THROW(stats::levene(std::span<const std::span<const double>>(groups, 1)),
               std::invalid_argument);
}

// --- Mann–Whitney -----------------------------------------------------------------

TEST(MannWhitney, ExactSmallSampleKnownP) {
  // a completely below b: U = 0; two-sided exact p = 2 * 1/C(6,3) = 0.1.
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5, 6};
  const auto r = stats::mann_whitney_u(a, b);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.u, 0.0);
  EXPECT_NEAR(r.p_value, 0.1, 1e-12);
}

TEST(MannWhitney, UStatisticsSumToProduct) {
  const std::vector<double> a{1, 5, 9, 13};
  const std::vector<double> b{2, 6, 10};
  const auto r = stats::mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(r.u + r.u_other, 12.0);
}

TEST(MannWhitney, SymmetricInArguments) {
  stats::Rng rng(110);
  const auto a = rng.normals(25, 0.0, 1.0);
  const auto b = rng.normals(30, 0.5, 1.0);
  const auto r1 = stats::mann_whitney_u(a, b);
  const auto r2 = stats::mann_whitney_u(b, a);
  EXPECT_NEAR(r1.p_value, r2.p_value, 1e-9);
  EXPECT_NEAR(r1.u, r2.u_other, 1e-9);
}

TEST(MannWhitney, DetectsShiftedDistributions) {
  stats::Rng rng(111);
  const auto a = rng.normals(40, 2.0, 1.0);
  const auto b = rng.normals(40, 0.0, 1.0);
  const auto r = stats::mann_whitney_u(a, b);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.u, 40.0 * 40.0 / 2.0);  // a tends to exceed b
}

TEST(MannWhitney, OneSidedHalvesTwoSidedApproximately) {
  stats::Rng rng(112);
  const auto a = rng.normals(50, 1.0, 1.0);
  const auto b = rng.normals(50, 0.0, 1.0);
  const auto two = stats::mann_whitney_u(a, b, stats::Alternative::kTwoSided);
  const auto gr = stats::mann_whitney_u(a, b, stats::Alternative::kGreater);
  EXPECT_NEAR(two.p_value, 2.0 * gr.p_value, 0.2 * two.p_value + 1e-12);
}

TEST(MannWhitney, NullDataGivesLargeP) {
  stats::Rng rng(113);
  const auto a = rng.normals(30);
  const auto b = rng.normals(30);
  EXPECT_GT(stats::mann_whitney_u(a, b).p_value, 0.05);
}

TEST(MannWhitney, HandlesTiesViaNormalApprox) {
  std::vector<double> a{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6};
  std::vector<double> b{3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8};
  const auto r = stats::mann_whitney_u(a, b);
  EXPECT_FALSE(r.exact);
  EXPECT_LT(r.p_value, 0.05);
}

TEST(MannWhitney, RejectsEmptyInput) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(stats::mann_whitney_u(a, std::vector<double>{}),
               std::invalid_argument);
}

// --- t-tests --------------------------------------------------------------------

TEST(TTest, PooledMatchesHandComputation) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{3, 4, 5, 6, 7};
  const auto r = stats::t_test_pooled(a, b);
  // mean diff = -2, sp^2 = 2.5, se = sqrt(2.5 * 0.4) = 1 -> t = -2, df = 8.
  EXPECT_NEAR(r.t, -2.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 8.0);
  EXPECT_NEAR(r.p_value, 0.0805, 5e-3);
}

TEST(TTest, WelchDfBetweenMinAndSum) {
  stats::Rng rng(114);
  const auto a = rng.normals(10, 0, 1);
  const auto b = rng.normals(30, 0, 5);
  const auto r = stats::t_test_welch(a, b);
  EXPECT_GE(r.df, 9.0);
  EXPECT_LE(r.df, 38.0);
}

// --- histogram / qq / boxplot -----------------------------------------------------

TEST(Histogram, FixedBinsCountAll) {
  const std::vector<double> x{0.5, 1.5, 2.5, 2.6, 9.9};
  const auto h = stats::histogram_fixed(x, 0.0, 10.0, 10);
  EXPECT_EQ(h.bin_count(), 10u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[2], 2u);
  EXPECT_EQ(h.counts[9], 1u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  const std::vector<double> x{-5.0, 15.0};
  const auto h = stats::histogram_fixed(x, 0.0, 10.0, 5);
  EXPECT_EQ(h.counts.front(), 1u);
  EXPECT_EQ(h.counts.back(), 1u);
}

TEST(Histogram, DensityIntegratesToOne) {
  stats::Rng rng(115);
  const auto x = rng.normals(500);
  const auto h = stats::histogram_auto(x);
  double integral = 0.0;
  for (std::size_t i = 0; i < h.bin_count(); ++i)
    integral += h.density(i) * (h.edges[i + 1] - h.edges[i]);
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, AutoPicksReasonableBinCount) {
  stats::Rng rng(116);
  const auto x = rng.normals(1000);
  const auto h = stats::histogram_auto(x);
  EXPECT_GE(h.bin_count(), 8u);
  EXPECT_LE(h.bin_count(), 64u);
}

TEST(Qq, NormalDataCorrelatesNearOne) {
  stats::Rng rng(117);
  const auto x = rng.normals(100, 50.0, 5.0);
  const auto s = stats::qq_normal(x);
  EXPECT_GT(s.correlation, 0.98);
  EXPECT_NEAR(s.intercept, 50.0, 2.0);
  EXPECT_NEAR(s.slope, 5.0, 1.0);
}

TEST(Qq, SkewedDataCorrelatesLower) {
  stats::Rng rng(118);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.exponential(1.0);
  const auto skewed = stats::qq_normal(x);
  const auto normal = stats::qq_normal(rng.normals(100));
  EXPECT_LT(skewed.correlation, normal.correlation);
}

TEST(Qq, PointsAreSorted) {
  stats::Rng rng(119);
  const auto s = stats::qq_normal(rng.normals(50));
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    EXPECT_LE(s.points[i - 1].theoretical, s.points[i].theoretical);
    EXPECT_LE(s.points[i - 1].sample, s.points[i].sample);
  }
}

TEST(Boxplot, FiveNumberAndOutliers) {
  std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8, 100};
  const auto b = stats::boxplot(x);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
  EXPECT_LE(b.whisker_high, 8.0);
}

TEST(Boxplot, NoOutliersForTightData) {
  const std::vector<double> x{10, 11, 12, 13, 14};
  const auto b = stats::boxplot(x);
  EXPECT_TRUE(b.outliers.empty());
  EXPECT_DOUBLE_EQ(b.whisker_low, 10.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 14.0);
}

// --- Likert --------------------------------------------------------------------

TEST(Likert, SummarizeCountsAndPercents) {
  const std::vector<int> responses{5, 5, 4, 3, 1};
  const auto s = stats::summarize_likert(responses);
  EXPECT_EQ(s.total, 5u);
  EXPECT_EQ(s.counts[4], 2u);
  EXPECT_DOUBLE_EQ(s.percent(5), 40.0);
  EXPECT_DOUBLE_EQ(s.mean_score(), 3.6);
  EXPECT_DOUBLE_EQ(s.top2_fraction(), 0.6);
  EXPECT_DOUBLE_EQ(s.bottom2_fraction(), 0.2);
  EXPECT_EQ(s.mode(), 5);
}

TEST(Likert, RejectsOutOfRangeResponses) {
  EXPECT_THROW(stats::summarize_likert(std::vector<int>{0}),
               std::invalid_argument);
  EXPECT_THROW(stats::summarize_likert(std::vector<int>{6}),
               std::invalid_argument);
}

TEST(Likert, ResponsesFromCountsRoundTrips) {
  const std::array<std::size_t, 5> counts{2, 2, 1, 2, 2};  // paper Fig. 4a F24
  const auto responses = stats::responses_from_counts(counts);
  EXPECT_EQ(responses.size(), 9u);
  const auto s = stats::summarize_likert(responses);
  EXPECT_EQ(s.counts, counts);
}

TEST(Likert, EmptySummaryIsSafe) {
  const auto s = stats::summarize_likert({});
  EXPECT_DOUBLE_EQ(s.mean_score(), 0.0);
  EXPECT_DOUBLE_EQ(s.percent(3), 0.0);
}

// --- Rng -----------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  stats::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  stats::Rng rng(120);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.truncated_normal(50, 20, 30, 70);
    EXPECT_GE(v, 30.0);
    EXPECT_LE(v, 70.0);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  stats::Rng rng(121);
  const std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1u);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(rng.categorical(std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  stats::Rng rng(122);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (std::size_t v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, NormalsHaveRequestedMoments) {
  stats::Rng rng(123);
  const auto x = rng.normals(20000, 10.0, 3.0);
  EXPECT_NEAR(stats::mean(x), 10.0, 0.1);
  EXPECT_NEAR(stats::sample_sd(x), 3.0, 0.1);
}

// --- parameterized property sweep: Mann-Whitney exact vs approx ------------------

class MannWhitneyConsistency : public ::testing::TestWithParam<int> {};

TEST_P(MannWhitneyConsistency, ExactAndApproxAgreeOnClearSeparation) {
  const int n = GetParam();
  std::vector<double> a, b;
  for (int i = 0; i < n; ++i) {
    a.push_back(i);                  // a strictly below b
    b.push_back(1000.0 + i);
  }
  const auto r = stats::mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(r.u, 0.0);
  EXPECT_LT(r.p_value, 0.11);  // smallest achievable two-sided p shrinks in n
  if (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) <= 400) {
    EXPECT_TRUE(r.exact);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MannWhitneyConsistency,
                         ::testing::Values(3, 5, 8, 12, 20, 30));

// --- parameterized: Shapiro-Wilk p-value sanity across n --------------------------

class ShapiroAcrossSizes : public ::testing::TestWithParam<int> {};

TEST_P(ShapiroAcrossSizes, UniformDataYieldsValidW) {
  const int n = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(n) * 7919);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(0, 1);
  const auto r = stats::shapiro_wilk(x);
  EXPECT_GT(r.w, 0.5);
  EXPECT_LE(r.w, 1.0);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShapiroAcrossSizes,
                         ::testing::Values(3, 4, 5, 7, 11, 12, 20, 50, 200));

// --- nonparametric extensions ---------------------------------------------------

#include "stats/nonparametric.hpp"

TEST(KruskalWallis, MatchesMannWhitneyDirectionFor2Groups) {
  stats::Rng rng(200);
  const auto a = rng.normals(30, 2.0, 1.0);
  const auto b = rng.normals(30, 0.0, 1.0);
  const std::span<const double> groups[] = {a, b};
  const auto kw = stats::kruskal_wallis(
      std::span<const std::span<const double>>(groups, 2));
  const auto mw = stats::mann_whitney_u(a, b);
  EXPECT_LT(kw.p_value, 0.01);
  EXPECT_LT(mw.p_value, 0.01);
  EXPECT_DOUBLE_EQ(kw.df, 1.0);
}

TEST(KruskalWallis, NullDataNotRejected) {
  stats::Rng rng(206);
  const auto a = rng.normals(25);
  const auto b = rng.normals(25);
  const auto c = rng.normals(25);
  const std::span<const double> groups[] = {a, b, c};
  const auto kw = stats::kruskal_wallis(
      std::span<const std::span<const double>>(groups, 3));
  EXPECT_GT(kw.p_value, 0.05);
  EXPECT_DOUBLE_EQ(kw.df, 2.0);
}

TEST(KruskalWallis, DetectsOneShiftedGroupOfThree) {
  stats::Rng rng(202);
  const auto a = rng.normals(25, 0.0, 1.0);
  const auto b = rng.normals(25, 0.0, 1.0);
  const auto c = rng.normals(25, 2.0, 1.0);
  const std::span<const double> groups[] = {a, b, c};
  const auto kw = stats::kruskal_wallis(
      std::span<const std::span<const double>>(groups, 3));
  EXPECT_LT(kw.p_value, 0.001);
}

TEST(KruskalWallis, ValidatesInput) {
  const std::vector<double> a{1, 2, 3};
  const std::span<const double> one[] = {a};
  EXPECT_THROW(stats::kruskal_wallis(
                   std::span<const std::span<const double>>(one, 1)),
               std::invalid_argument);
  const std::vector<double> same(10, 5.0);
  const std::span<const double> identical[] = {same, same};
  EXPECT_THROW(stats::kruskal_wallis(
                   std::span<const std::span<const double>>(identical, 2)),
               std::invalid_argument);
}

TEST(Wilcoxon, DetectsConsistentImprovement) {
  stats::Rng rng(203);
  std::vector<double> before(30), after(30);
  for (std::size_t i = 0; i < 30; ++i) {
    before[i] = rng.normal(3.0, 0.6);
    after[i] = before[i] + rng.normal(0.8, 0.4);  // clear positive shift
  }
  const auto r =
      stats::wilcoxon_signed_rank(before, after, stats::Alternative::kGreater);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_GT(r.w_plus, r.w_minus);
}

TEST(Wilcoxon, NullPairedDataNotRejected) {
  stats::Rng rng(204);
  std::vector<double> before(40), after(40);
  for (std::size_t i = 0; i < 40; ++i) {
    before[i] = rng.normal();
    after[i] = before[i] + rng.normal(0.0, 0.5);
  }
  const auto r = stats::wilcoxon_signed_rank(before, after);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(Wilcoxon, DropsZeroDifferences) {
  std::vector<double> before{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> after{1, 2, 4, 5, 6, 7, 8, 9};  // two zeros
  const auto r = stats::wilcoxon_signed_rank(before, after);
  EXPECT_EQ(r.n_used, 6u);
}

TEST(Wilcoxon, ValidatesInput) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 2};
  EXPECT_THROW(stats::wilcoxon_signed_rank(a, b), std::invalid_argument);
  const std::vector<double> same{1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(stats::wilcoxon_signed_rank(same, same),
               std::invalid_argument);  // all zero differences
}

TEST(Spearman, PerfectMonotonicGivesOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 9, 16, 100};  // monotone, nonlinear
  const auto r = stats::spearman(x, y);
  EXPECT_NEAR(r.rho, 1.0, 1e-12);
  EXPECT_LT(r.p_value, 0.05);
  const std::vector<double> yr{100, 16, 9, 4, 2};
  EXPECT_NEAR(stats::spearman(x, yr).rho, -1.0, 1e-12);
}

TEST(Spearman, IndependentDataNearZero) {
  stats::Rng rng(205);
  const auto x = rng.normals(200);
  const auto y = rng.normals(200);
  const auto r = stats::spearman(x, y);
  EXPECT_LT(std::fabs(r.rho), 0.2);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Spearman, ValidatesInput) {
  const std::vector<double> x{1, 2, 3};
  EXPECT_THROW(stats::spearman(x, x), std::invalid_argument);  // n < 4
  const std::vector<double> c(10, 1.0);
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_THROW(stats::spearman(c, v), std::invalid_argument);
}

TEST(OneSampleT, KnownValue) {
  // x = 1..5, mu0 = 2: mean 3, sd sqrt(2.5), se ~0.707 -> t = 1.414, df 4.
  const std::vector<double> x{1, 2, 3, 4, 5};
  const auto r = stats::t_test_one_sample(x, 2.0);
  EXPECT_NEAR(r.t, std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(r.df, 4.0);
  EXPECT_GT(r.p_value, 0.05);
  EXPECT_LT(stats::t_test_one_sample(x, 0.0).p_value, 0.05);
}

// --- chi-squared tests --------------------------------------------------------------

TEST(Chi2, IndependenceKnownValue) {
  // Classic 2x2: chi2 = n(ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
  const std::vector<std::vector<double>> table{{10, 20}, {30, 5}};
  const auto r = stats::chi2_independence(table);
  const double expected =
      65.0 * std::pow(10 * 5 - 20 * 30, 2) / (30.0 * 35.0 * 40.0 * 25.0);
  EXPECT_NEAR(r.statistic, expected, 1e-9);
  EXPECT_DOUBLE_EQ(r.df, 1.0);
  EXPECT_LT(r.p_value, 0.001);
}

TEST(Chi2, IndependentTableNotRejected) {
  // Proportional rows: statistic exactly 0.
  const std::vector<std::vector<double>> table{{10, 20, 30}, {20, 40, 60}};
  const auto r = stats::chi2_independence(table);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 2.0);
}

TEST(Chi2, IndependenceValidation) {
  EXPECT_THROW(stats::chi2_independence({{1, 2}}), std::invalid_argument);
  EXPECT_THROW(stats::chi2_independence({{1, 2}, {3}}), std::invalid_argument);
  EXPECT_THROW(stats::chi2_independence({{1, -2}, {3, 4}}),
               std::invalid_argument);
  EXPECT_THROW(stats::chi2_independence({{0, 0}, {3, 4}}),
               std::invalid_argument);
}

TEST(Chi2, GoodnessOfFitUniform) {
  const std::vector<double> observed{25, 24, 26, 25};
  const std::vector<double> weights{1, 1, 1, 1};
  const auto r = stats::chi2_goodness_of_fit(observed, weights);
  EXPECT_GT(r.p_value, 0.9);
  const std::vector<double> skewed{80, 10, 5, 5};
  EXPECT_LT(stats::chi2_goodness_of_fit(skewed, weights).p_value, 1e-6);
}

TEST(Chi2, GoodnessOfFitValidation) {
  const std::vector<double> one{5};
  EXPECT_THROW(stats::chi2_goodness_of_fit(one, one), std::invalid_argument);
  const std::vector<double> obs{5, 5};
  const std::vector<double> zero_w{1, 0};
  EXPECT_THROW(stats::chi2_goodness_of_fit(obs, zero_w),
               std::invalid_argument);
}
