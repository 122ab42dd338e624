// Order statistics behind every bench_e2e metric. Expected quartiles are
// what Python's statistics.quantiles(data, n=4) returns, which compare.py
// uses on the same numbers.

#include "bench/e2e/stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace conformer::bench_e2e {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheSampleAtRankCeilPN) {
  // Shuffled 1..100: the p-th percentile is exactly p.
  std::vector<double> samples = OneTo(100);
  std::reverse(samples.begin(), samples.end());
  EXPECT_EQ(NearestRank(samples, 50).value, 50.0);
  EXPECT_EQ(NearestRank(samples, 90).value, 90.0);
  EXPECT_EQ(NearestRank(samples, 99).value, 99.0);
  EXPECT_EQ(NearestRank(samples, 100).value, 100.0);
  // n = 7: p50 -> rank ceil(3.5) = 4, never an interpolated value.
  const Percentile p50 = NearestRank({7, 1, 6, 2, 5, 3, 4}, 50);
  EXPECT_EQ(p50.rank, 4);
  EXPECT_EQ(p50.value, 4.0);
  EXPECT_EQ(NearestRank({3.5}, 1).value, 3.5);
}

TEST(NearestRank, NeedsTenSamplesBeyond) {
  // 1000 samples: p99 has rank 990 and exactly ten beyond it.
  const Percentile p99 = NearestRank(OneTo(1000), 99);
  EXPECT_EQ(p99.rank, 990);
  EXPECT_EQ(p99.beyond, 10);
  EXPECT_TRUE(p99.valid);
  // 999 samples: rank 990, nine beyond -> not reportable.
  const Percentile short_p99 = NearestRank(OneTo(999), 99);
  EXPECT_EQ(short_p99.beyond, 9);
  EXPECT_FALSE(short_p99.valid);
  // p90 needs at least 100 samples.
  EXPECT_TRUE(NearestRank(OneTo(100), 90).valid);
  EXPECT_FALSE(NearestRank(OneTo(99), 90).valid);
  const Percentile empty = NearestRank({}, 50);
  EXPECT_FALSE(empty.valid);
  EXPECT_EQ(empty.rank, 0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const Quartiles odd = ComputeQuartiles({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(odd.q1, 1.5);
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.q3, 4.5);
  EXPECT_DOUBLE_EQ(odd.iqr(), 3.0);

  const Quartiles two = ComputeQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const Quartiles even = ComputeQuartiles({0.5, 0.25, 8, 1, 2, 4});
  EXPECT_DOUBLE_EQ(even.q1, 0.4375);
  EXPECT_DOUBLE_EQ(even.median, 1.5);
  EXPECT_DOUBLE_EQ(even.q3, 5.0);

  const Quartiles hundred = ComputeQuartiles(OneTo(100));
  EXPECT_DOUBLE_EQ(hundred.q1, 25.25);
  EXPECT_DOUBLE_EQ(hundred.median, 50.5);
  EXPECT_DOUBLE_EQ(hundred.q3, 75.75);
}

TEST(Quartiles, DegenerateInputs) {
  const Quartiles one = ComputeQuartiles({2.5});
  EXPECT_EQ(one.q1, 2.5);
  EXPECT_EQ(one.q3, 2.5);
  EXPECT_EQ(one.iqr(), 0.0);
  EXPECT_EQ(ComputeQuartiles({}).median, 0.0);
  EXPECT_EQ(Median({4, 1, 3}), 3.0);
}

TEST(WindowRates, SpreadsEachCompletionOverItsInterval) {
  constexpr int64_t kSecond = 1'000'000'000;
  // 3 units every 0.3 s for 3.1 s: exactly 10 units/s in each whole window,
  // although every window ends mid-interval.
  std::vector<Completion> done;
  for (int64_t t = 300'000'000; t <= 3'100'000'000; t += 300'000'000) {
    done.push_back({t, 3});
  }
  const std::vector<double> rates =
      WindowRates(done, 0, 3'100'000'000, kSecond);
  ASSERT_EQ(rates.size(), 3u);
  for (double r : rates) EXPECT_NEAR(r, 10.0, 1e-9);

  // Completions seen at one instant (one batch) all count where it lands;
  // order of the input does not matter; the partial last window is dropped.
  const std::vector<double> batch = WindowRates(
      {{1'500'000'000, 8}, {500'000'000, 8}, {1'500'000'000, 8}}, 0,
      2'500'000'000, kSecond);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_NEAR(batch[0], 8.0 + 8.0 / 2, 1e-9);
  EXPECT_NEAR(batch[1], 8.0 / 2 + 8.0, 1e-9);
  EXPECT_TRUE(WindowRates(done, 0, kSecond - 1, kSecond).empty());
}

}  // namespace
}  // namespace conformer::bench_e2e
