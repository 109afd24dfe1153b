// Unit tests for the statistics substrate: RNG determinism, parametric
// random variables (moments, sampling, quantiles), sample vectors
// (joint arithmetic, critical probability), histograms and correlation.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "stats/rv.h"
#include "stats/sample_vector.h"

namespace sddd::stats {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42, 7);
  Rng b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 1);
  Rng b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(3);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(11);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, CoinIsBernoulliHalf) {
  // 10^6 draws over several seeds and streams: the same bit as
  // bernoulli(0.5), and the generator left in the same state.
  const std::pair<std::uint64_t, std::uint64_t> streams[] = {
      {1, 2}, {42, 7}, {0, 0}, {0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL}};
  int heads = 0;
  for (const auto& [seed, stream] : streams) {
    Rng a(seed, stream);
    Rng b(seed, stream);
    for (int i = 0; i < 250000; ++i) {
      const bool coin = a.coin();
      ASSERT_EQ(coin, b.bernoulli(0.5)) << "draw " << i;
      heads += coin ? 1 : 0;
    }
    EXPECT_EQ(a.next(), b.next());
  }
  EXPECT_NEAR(heads, 500000, 5000);
}

TEST(InverseNormalCdf, MatchesKnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.8413447), 1.0, 1e-4);
}

TEST(InverseNormalCdf, RoundTripsWithCdf) {
  for (const double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_NEAR(normal_cdf(inverse_normal_cdf(p)), p, 1e-6);
  }
}

TEST(RandomVariable, PointMass) {
  const auto rv = RandomVariable::PointMass(3.5);
  EXPECT_DOUBLE_EQ(rv.mean(), 3.5);
  EXPECT_DOUBLE_EQ(rv.stddev(), 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rv.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(rv.quantile(0.01), 3.5);
  EXPECT_DOUBLE_EQ(rv.quantile(0.99), 3.5);
}

TEST(RandomVariable, NormalMoments) {
  const auto rv = RandomVariable::Normal(100.0, 5.0);
  Rng rng(2);
  const auto s = SampleVector::draw(rv, 20000, rng);
  EXPECT_NEAR(s.mean(), 100.0, 0.2);
  EXPECT_NEAR(s.stddev(), 5.0, 0.2);
}

TEST(RandomVariable, NormalThreeSigmaPct) {
  const auto rv = RandomVariable::NormalThreeSigmaPct(90.0, 0.15);
  EXPECT_DOUBLE_EQ(rv.mean(), 90.0);
  EXPECT_NEAR(rv.stddev(), 90.0 * 0.15 / 3.0, 1e-12);
}

TEST(RandomVariable, SamplesAreNonNegative) {
  // Mean close to zero relative to sigma: truncation must kick in.
  const auto rv = RandomVariable::Normal(1.0, 2.0);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) EXPECT_GE(rv.sample(rng), 0.0);
}

TEST(RandomVariable, LogNormalMomentMatch) {
  const auto rv = RandomVariable::LogNormalMeanSigma(50.0, 10.0);
  EXPECT_NEAR(rv.mean(), 50.0, 1e-9);
  EXPECT_NEAR(rv.stddev(), 10.0, 1e-9);
  Rng rng(4);
  const auto s = SampleVector::draw(rv, 40000, rng);
  EXPECT_NEAR(s.mean(), 50.0, 0.5);
  EXPECT_NEAR(s.stddev(), 10.0, 0.5);
}

TEST(RandomVariable, UniformMomentsAndQuantiles) {
  const auto rv = RandomVariable::Uniform(10.0, 20.0);
  EXPECT_DOUBLE_EQ(rv.mean(), 15.0);
  EXPECT_NEAR(rv.stddev(), 10.0 / std::sqrt(12.0), 1e-12);
  EXPECT_NEAR(rv.quantile(0.25), 12.5, 1e-9);
  EXPECT_NEAR(rv.quantile(0.75), 17.5, 1e-9);
}

TEST(RandomVariable, TriangularMoments) {
  const auto rv = RandomVariable::Triangular(0.0, 5.0, 10.0);
  EXPECT_NEAR(rv.mean(), 5.0, 1e-12);
  Rng rng(5);
  const auto s = SampleVector::draw(rv, 20000, rng);
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), rv.stddev(), 0.1);
}

TEST(RandomVariable, QuantileMonotone) {
  for (const auto rv :
       {RandomVariable::Normal(100.0, 8.0),
        RandomVariable::LogNormalMeanSigma(100.0, 8.0),
        RandomVariable::Uniform(1.0, 9.0),
        RandomVariable::Triangular(1.0, 3.0, 9.0)}) {
    double prev = -1.0;
    for (double u = 0.01; u < 1.0; u += 0.01) {
      const double q = rv.quantile(u);
      EXPECT_GE(q, prev) << rv.to_string() << " at u=" << u;
      prev = q;
    }
  }
}

TEST(RandomVariable, QuantileMatchesSampling) {
  const auto rv = RandomVariable::Normal(100.0, 10.0);
  EXPECT_NEAR(rv.quantile(0.5), 100.0, 1e-6);
  EXPECT_NEAR(rv.quantile(0.8413447), 110.0, 1e-3);
}

TEST(RandomVariable, ShiftedMovesMean) {
  const auto rv = RandomVariable::Normal(100.0, 10.0).shifted(30.0);
  EXPECT_DOUBLE_EQ(rv.mean(), 130.0);
  EXPECT_DOUBLE_EQ(rv.stddev(), 10.0);
}

TEST(RandomVariable, ScaledScalesBoth) {
  const auto rv = RandomVariable::Normal(100.0, 10.0).scaled(2.0);
  EXPECT_DOUBLE_EQ(rv.mean(), 200.0);
  EXPECT_DOUBLE_EQ(rv.stddev(), 20.0);
  const auto ln = RandomVariable::LogNormalMeanSigma(50.0, 5.0).scaled(3.0);
  EXPECT_NEAR(ln.mean(), 150.0, 1e-9);
  EXPECT_NEAR(ln.stddev(), 15.0, 1e-9);
}

TEST(RandomVariable, InvalidArgumentsThrow) {
  EXPECT_THROW(RandomVariable::PointMass(-1.0), std::invalid_argument);
  EXPECT_THROW(RandomVariable::Normal(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(RandomVariable::Uniform(5.0, 4.0), std::invalid_argument);
  EXPECT_THROW(RandomVariable::Triangular(0.0, 5.0, 4.0),
               std::invalid_argument);
  EXPECT_THROW(RandomVariable::LogNormalMeanSigma(0.0, 1.0),
               std::invalid_argument);
}

TEST(SampleVector, JointSumAndMax) {
  SampleVector a(std::vector<double>{1.0, 5.0, 2.0});
  const SampleVector b(std::vector<double>{3.0, 1.0, 2.0});
  auto sum = a + b;
  EXPECT_EQ(sum.samples()[0], 4.0);
  EXPECT_EQ(sum.samples()[1], 6.0);
  EXPECT_EQ(sum.samples()[2], 4.0);
  a.max_with(b);
  EXPECT_EQ(a.samples()[0], 3.0);
  EXPECT_EQ(a.samples()[1], 5.0);
  EXPECT_EQ(a.samples()[2], 2.0);
}

TEST(SampleVector, SizeMismatchThrows) {
  SampleVector a(4, 0.0);
  const SampleVector b(5, 0.0);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.max_with(b), std::invalid_argument);
  EXPECT_THROW((void)a.correlation(b), std::invalid_argument);
}

TEST(SampleVector, CriticalProbability) {
  const SampleVector v(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(v.critical_probability(3.0), 0.4);  // strictly greater
  EXPECT_DOUBLE_EQ(v.critical_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(v.critical_probability(5.0), 0.0);
}

TEST(SampleVector, QuantileInterpolates) {
  const SampleVector v(std::vector<double>{0.0, 10.0});
  EXPECT_DOUBLE_EQ(v.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(v.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(v.quantile(1.0), 10.0);
  EXPECT_THROW((void)v.quantile(1.5), std::invalid_argument);
}

TEST(SampleVector, CorrelationOfIdenticalIsOne) {
  Rng rng(6);
  const auto v = SampleVector::draw(RandomVariable::Normal(5.0, 1.0), 500, rng);
  EXPECT_NEAR(v.correlation(v), 1.0, 1e-12);
}

TEST(SampleVector, MaxIsMonotoneInInputs) {
  // Property: adding a positive constant to one operand never decreases
  // the max - the foundation of S_crt >= 0.
  Rng rng(7);
  auto a = SampleVector::draw(RandomVariable::Normal(10.0, 2.0), 200, rng);
  const auto b = SampleVector::draw(RandomVariable::Normal(10.0, 2.0), 200, rng);
  auto m1 = max(a, b);
  a += 1.5;
  const auto m2 = max(a, b);
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_GE(m2[i], m1[i]);
  }
}

TEST(Histogram, MassSumsToOne) {
  Rng rng(8);
  const auto v = SampleVector::draw(RandomVariable::Normal(50.0, 5.0), 1000, rng);
  const Histogram h(v, 20);
  double total = 0.0;
  for (std::size_t i = 0; i < h.bin_count(); ++i) total += h.mass(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Histogram, ClampsOutOfRange) {
  const SampleVector v(std::vector<double>{-5.0, 0.5, 99.0});
  const Histogram h(v, 10, 0.0, 1.0);
  EXPECT_EQ(h.count(0), 1u);  // -5 clamped into first bin
  EXPECT_EQ(h.count(9), 1u);  // 99 clamped into last bin
}

TEST(Histogram, DegenerateDataGetsPaddedRange) {
  const SampleVector v(std::vector<double>{7.0, 7.0, 7.0});
  const Histogram h(v, 5);
  EXPECT_LT(h.lo(), 7.0);
  EXPECT_GT(h.hi(), 7.0);
  EXPECT_FALSE(h.ascii(30).empty());
}

TEST(ProcessVariation, PairwiseCorrelationFormula) {
  const ProcessVariation pv(0.1, 0.1);
  EXPECT_NEAR(pv.pairwise_correlation(), 0.5, 1e-12);
  const ProcessVariation loc(0.0, 0.2);
  EXPECT_DOUBLE_EQ(loc.pairwise_correlation(), 0.0);
}

TEST(ProcessVariation, EmpiricalCorrelationMatchesTheory) {
  const ProcessVariation pv(0.08, 0.04);
  Rng rng(10);
  const auto g = pv.draw_global_factors(4000, rng);
  const auto m1 = pv.draw_multipliers(g, rng);
  const auto m2 = pv.draw_multipliers(g, rng);
  EXPECT_NEAR(m1.correlation(m2), pv.pairwise_correlation(), 0.05);
  EXPECT_NEAR(m1.mean(), 1.0, 0.01);
}

TEST(Cholesky, FactorsIdentity) {
  const std::vector<double> eye = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  const auto L = cholesky_lower(eye, 3);
  EXPECT_EQ(L, eye);
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  const std::vector<double> bad = {1, 2, 2, 1};  // correlation 2 > 1
  EXPECT_THROW(cholesky_lower(bad, 2), std::invalid_argument);
}

TEST(Cholesky, MvnSampleHasRequestedCorrelation) {
  const double rho = 0.7;
  const std::vector<double> cov = {1.0, rho, rho, 1.0};
  const auto L = cholesky_lower(cov, 2);
  Rng rng(11);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 8000; ++i) {
    const auto v = sample_mvn({0.0, 0.0}, L, 2, rng);
    xs.push_back(v[0]);
    ys.push_back(v[1]);
  }
  const SampleVector vx(std::move(xs));
  const SampleVector vy(std::move(ys));
  EXPECT_NEAR(vx.correlation(vy), rho, 0.03);
}

}  // namespace
}  // namespace sddd::stats
