#include "des/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "des/distributions.hpp"
#include "des/rng.hpp"

namespace mobichk::des {
namespace {

TEST(Tally, KnownValues) {
  Tally t;
  for (const f64 x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) t.add(x);
  EXPECT_EQ(t.count(), 8u);
  EXPECT_DOUBLE_EQ(t.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(t.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 9.0);
  EXPECT_DOUBLE_EQ(t.sum(), 40.0);
}

TEST(Tally, EmptyIsSafe) {
  Tally t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
  EXPECT_DOUBLE_EQ(t.stddev(), 0.0);
}

TEST(Tally, SingleObservationHasZeroVariance) {
  Tally t;
  t.add(42.0);
  EXPECT_DOUBLE_EQ(t.mean(), 42.0);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
}

TEST(Tally, NumericallyStableForLargeOffsets) {
  // Welford must not lose the tiny variance under a huge common offset.
  Tally t;
  const f64 offset = 1e9;
  for (const f64 x : {offset + 1.0, offset + 2.0, offset + 3.0}) t.add(x);
  EXPECT_NEAR(t.variance(), 1.0, 1e-6);
}

TEST(BatchMeans, FormsBatches) {
  BatchMeans bm(10);
  for (int i = 0; i < 95; ++i) bm.add(1.0);
  EXPECT_EQ(bm.completed_batches(), 9u);
  EXPECT_DOUBLE_EQ(bm.mean(), 1.0);
}

TEST(BatchMeans, BatchAveragesAreCorrect) {
  BatchMeans bm(2);
  bm.add(1.0);
  bm.add(3.0);  // batch mean 2
  bm.add(5.0);
  bm.add(7.0);  // batch mean 6
  EXPECT_EQ(bm.completed_batches(), 2u);
  EXPECT_DOUBLE_EQ(bm.mean(), 4.0);
}

TEST(StudentT, TableValues) {
  EXPECT_NEAR(student_t_critical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(0.95, 4), 2.776, 1e-3);
  EXPECT_NEAR(student_t_critical(0.99, 10), 3.169, 1e-3);
  EXPECT_NEAR(student_t_critical(0.90, 30), 1.697, 1e-3);
  // Large dof approaches the normal quantiles.
  EXPECT_NEAR(student_t_critical(0.95, 100000), 1.96, 0.01);
}

TEST(StudentT, BetweenRowsMapsConservativelyDown) {
  // A dof between tabulated rows must use the smaller-dof row (larger
  // critical value). The seed snapped dof in (120, 1000) to the 1000 row,
  // shrinking confidence intervals below their nominal coverage.
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 121), student_t_critical(0.95, 120));
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 500), student_t_critical(0.95, 120));
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 999), student_t_critical(0.95, 120));
  EXPECT_NEAR(student_t_critical(0.95, 999), 1.980, 1e-3);
  EXPECT_NEAR(student_t_critical(0.95, 1000), 1.962, 1e-3);
  // Same rule on the other sparse gaps, all three confidence levels.
  EXPECT_NEAR(student_t_critical(0.95, 35), 2.042, 1e-3);   // 30-row, not 40
  EXPECT_NEAR(student_t_critical(0.90, 45), 1.684, 1e-3);   // 40-row, not 60
  EXPECT_NEAR(student_t_critical(0.99, 100), 2.660, 1e-3);  // 60-row, not 120
  // Exact rows still hit exactly; critical values never increase with dof.
  EXPECT_NEAR(student_t_critical(0.95, 60), 2.000, 1e-3);
  f64 prev = student_t_critical(0.95, 1);
  for (u64 dof = 2; dof <= 2000; ++dof) {
    const f64 t = student_t_critical(0.95, dof);
    EXPECT_LE(t, prev) << "dof=" << dof;
    prev = t;
  }
}

TEST(ConfidenceHalfWidth, MatchesManualComputation) {
  Tally t;
  for (const f64 x : {10.0, 12.0, 14.0, 16.0, 18.0}) t.add(x);
  // mean 14, sd = sqrt(10), n = 5, t(0.95, 4) = 2.776.
  const f64 expect = 2.776 * std::sqrt(10.0) / std::sqrt(5.0);
  EXPECT_NEAR(confidence_half_width(t, 0.95), expect, 1e-3);
}

TEST(ConfidenceHalfWidth, ZeroForTinySamples) {
  Tally t;
  EXPECT_DOUBLE_EQ(confidence_half_width(t, 0.95), 0.0);
  t.add(1.0);
  EXPECT_DOUBLE_EQ(confidence_half_width(t, 0.95), 0.0);
}

TEST(ConfidenceInterval, CoversTrueMeanOfExponential) {
  // 95% CI over replicated exponential means should cover 1.0 most of
  // the time; with 40 replications of 1000 draws this is overwhelmingly
  // likely for a correct implementation.
  RngStream rng(17, "ci");
  Exponential dist(1.0);
  Tally means;
  for (int rep = 0; rep < 40; ++rep) {
    Tally inner;
    for (int i = 0; i < 1000; ++i) inner.add(dist.sample(rng));
    means.add(inner.mean());
  }
  const f64 hw = confidence_half_width(means, 0.99);
  EXPECT_LT(std::abs(means.mean() - 1.0), hw + 0.02);
}

TEST(FormatCi, ProducesPlusMinus) {
  Tally t;
  t.add(1.0);
  t.add(3.0);
  const std::string s = format_ci(t, 0.95);
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_NE(s.find("±"), std::string::npos);
}

}  // namespace
}  // namespace mobichk::des
