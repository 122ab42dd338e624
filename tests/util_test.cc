#include <gtest/gtest.h>

#include <cstdlib>

#include "util/civil_time.h"
#include "util/env.h"
#include "util/linalg.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace conformer {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// -- string_util ----------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(Strip("  x y  "), "x y");
  EXPECT_EQ(Strip("\t\n"), "");
  EXPECT_EQ(Strip("abc"), "abc");
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e-3 ").value(), -1e-3);
  EXPECT_FALSE(ParseDouble("12x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("123").value(), 123);
  EXPECT_EQ(ParseInt("-5").value(), -5);
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.21239, 4), "0.2124");
  EXPECT_EQ(FormatFixed(1.0, 2), "1.00");
}

// -- civil_time -----------------------------------------------------------

TEST(CivilTimeTest, EpochRoundTrip) {
  CivilTime ct = CivilFromUnixSeconds(0);
  EXPECT_EQ(ct.year, 1970);
  EXPECT_EQ(ct.month, 1);
  EXPECT_EQ(ct.day, 1);
  EXPECT_EQ(ct.hour, 0);
  EXPECT_EQ(UnixSecondsFromCivil(ct), 0);
}

TEST(CivilTimeTest, KnownDate) {
  // 2020-03-01 12:30:45 UTC == 1583065845.
  CivilTime ct{2020, 3, 1, 12, 30, 45};
  EXPECT_EQ(UnixSecondsFromCivil(ct), 1583065845);
  EXPECT_EQ(CivilFromUnixSeconds(1583065845), ct);
}

TEST(CivilTimeTest, RoundTripSweep) {
  // Every 1000003 seconds across several decades, including pre-epoch.
  for (int64_t t = -1000000000; t <= 2000000000; t += 100000003) {
    EXPECT_EQ(UnixSecondsFromCivil(CivilFromUnixSeconds(t)), t) << t;
  }
}

TEST(CivilTimeTest, DayOfWeek) {
  // 1970-01-01 was a Thursday (index 3, Monday = 0).
  EXPECT_EQ(DayOfWeek(0), 3);
  // 2023-01-02 was a Monday.
  EXPECT_EQ(DayOfWeek(UnixSecondsFromCivil({2023, 1, 2, 0, 0, 0})), 0);
  // 2023-01-08 was a Sunday.
  EXPECT_EQ(DayOfWeek(UnixSecondsFromCivil({2023, 1, 8, 12, 0, 0})), 6);
}

TEST(CivilTimeTest, DayOfYear) {
  EXPECT_EQ(DayOfYear(UnixSecondsFromCivil({2021, 1, 1, 0, 0, 0})), 1);
  EXPECT_EQ(DayOfYear(UnixSecondsFromCivil({2021, 12, 31, 0, 0, 0})), 365);
  EXPECT_EQ(DayOfYear(UnixSecondsFromCivil({2020, 12, 31, 0, 0, 0})), 366);
}

TEST(CivilTimeTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2023));
}

TEST(CivilTimeTest, ParseTimestampFormats) {
  EXPECT_EQ(ParseTimestamp("1970-01-01 00:00:00").value(), 0);
  EXPECT_EQ(ParseTimestamp("1970-01-02").value(), 86400);
  EXPECT_EQ(ParseTimestamp("1970-01-01 01:00").value(), 3600);
  EXPECT_FALSE(ParseTimestamp("not a date").ok());
  EXPECT_FALSE(ParseTimestamp("2020-13-01").ok());
}

TEST(CivilTimeTest, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(0), "1970-01-01 00:00:00");
  EXPECT_EQ(FormatTimestamp(1583065845), "2020-03-01 12:30:45");
}

// -- random ---------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RandomTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RandomTest, NormalMoments) {
  Rng rng(2);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RandomTest, PermutationIsBijective) {
  Rng rng(3);
  std::vector<int64_t> perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (int64_t p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 100);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(RandomTest, BernoulliProbability) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, GlobalRngReseed) {
  SeedGlobalRng(99);
  const double a = GlobalRng().Uniform();
  SeedGlobalRng(99);
  EXPECT_DOUBLE_EQ(GlobalRng().Uniform(), a);
}

TEST(RandomTest, StudentTIsHeavyTailed) {
  Rng rng(5);
  int extreme_t = 0;
  int extreme_n = 0;
  for (int i = 0; i < 20000; ++i) {
    if (std::fabs(rng.StudentT(3.0)) > 3.0) ++extreme_t;
    if (std::fabs(rng.Normal()) > 3.0) ++extreme_n;
  }
  EXPECT_GT(extreme_t, extreme_n * 3);
}

// -- env ---------------------------------------------------------------------

TEST(EnvTest, FallbackWhenUnset) {
  unsetenv("CONFORMER_TEST_ENV_VAR");
  EXPECT_EQ(GetEnv("CONFORMER_TEST_ENV_VAR", "dflt"), "dflt");
  EXPECT_EQ(GetEnvInt("CONFORMER_TEST_ENV_VAR", 7), 7);
}

TEST(EnvTest, ReadsValues) {
  setenv("CONFORMER_TEST_ENV_VAR", "full", 1);
  EXPECT_EQ(GetEnv("CONFORMER_TEST_ENV_VAR"), "full");
  setenv("CONFORMER_TEST_ENV_VAR", "42", 1);
  EXPECT_EQ(GetEnvInt("CONFORMER_TEST_ENV_VAR", 0), 42);
  setenv("CONFORMER_TEST_ENV_VAR", "not_a_number", 1);
  EXPECT_EQ(GetEnvInt("CONFORMER_TEST_ENV_VAR", 9), 9);
  unsetenv("CONFORMER_TEST_ENV_VAR");
}

// -- logging / CHECK ----------------------------------------------------------

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(CONFORMER_CHECK(1 == 2) << "impossible", "Check failed");
  EXPECT_DEATH(CONFORMER_CHECK_EQ(3, 4), "3 vs 4");
  EXPECT_DEATH(CONFORMER_CHECK_LT(5, 2), "Check failed");
}

TEST(LoggingTest, CheckPassesSilently) {
  CONFORMER_CHECK(true) << "never rendered";
  CONFORMER_CHECK_EQ(1, 1);
  CONFORMER_CHECK_GE(2, 1);
  SUCCEED();
}

TEST(LoggingTest, LevelFilteringRoundTrip) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

// -- linalg -----------------------------------------------------------------

TEST(LinalgTest, CholeskyFactorKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  std::vector<double> a = {4, 2, 2, 3};
  ASSERT_TRUE(CholeskyFactor(&a, 2).ok());
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  EXPECT_NEAR(a[2], 1.0, 1e-12);
  EXPECT_NEAR(a[3], std::sqrt(2.0), 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(&a, 2).ok());
}

TEST(LinalgTest, SolveRecoversKnownSolution) {
  // A x = b with A = [[4, 2], [2, 3]], x = (1, -2) -> b = (0, -4).
  std::vector<double> a = {4, 2, 2, 3};
  ASSERT_TRUE(CholeskyFactor(&a, 2).ok());
  std::vector<double> b = {0, -4};
  CholeskySolveInPlace(a, 2, &b);
  EXPECT_NEAR(b[0], 1.0, 1e-10);
  EXPECT_NEAR(b[1], -2.0, 1e-10);
}

TEST(LinalgTest, RidgeLeastSquaresRecoversLinearMap) {
  // y = 2*x0 - x1 + 0.5, exactly; ridge ~ 0 recovers the coefficients.
  Rng rng(21);
  const int64_t rows = 64;
  std::vector<double> x(rows * 3);
  std::vector<double> y(rows);
  for (int64_t r = 0; r < rows; ++r) {
    const double x0 = rng.Normal();
    const double x1 = rng.Normal();
    x[r * 3] = x0;
    x[r * 3 + 1] = x1;
    x[r * 3 + 2] = 1.0;  // bias column
    y[r] = 2.0 * x0 - x1 + 0.5;
  }
  auto w = RidgeLeastSquares(x, rows, 3, y, 1, 1e-9);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(w.value()[0], 2.0, 1e-6);
  EXPECT_NEAR(w.value()[1], -1.0, 1e-6);
  EXPECT_NEAR(w.value()[2], 0.5, 1e-6);
}

TEST(LinalgTest, RidgeShrinksCoefficients) {
  Rng rng(22);
  const int64_t rows = 32;
  std::vector<double> x(rows);
  std::vector<double> y(rows);
  for (int64_t r = 0; r < rows; ++r) {
    x[r] = rng.Normal();
    y[r] = 3.0 * x[r];
  }
  auto small = RidgeLeastSquares(x, rows, 1, y, 1, 1e-9);
  auto large = RidgeLeastSquares(x, rows, 1, y, 1, 1e3);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_NEAR(small.value()[0], 3.0, 1e-6);
  EXPECT_LT(std::fabs(large.value()[0]), 1.0);
}

// -- civil time: month boundaries -----------------------------------------------

TEST(CivilTimeTest, MonthBoundaries) {
  // End of February in a leap year rolls into the 29th.
  const int64_t feb28_2020 = UnixSecondsFromCivil({2020, 2, 28, 23, 59, 59});
  CivilTime next = CivilFromUnixSeconds(feb28_2020 + 1);
  EXPECT_EQ(next.month, 2);
  EXPECT_EQ(next.day, 29);
  // And into March the day after.
  CivilTime march = CivilFromUnixSeconds(feb28_2020 + 1 + 86400);
  EXPECT_EQ(march.month, 3);
  EXPECT_EQ(march.day, 1);
  // Non-leap year goes straight to March.
  const int64_t feb28_2021 = UnixSecondsFromCivil({2021, 2, 28, 23, 59, 59});
  CivilTime after = CivilFromUnixSeconds(feb28_2021 + 1);
  EXPECT_EQ(after.month, 3);
  EXPECT_EQ(after.day, 1);
}

TEST(CivilTimeTest, YearBoundary) {
  const int64_t nye = UnixSecondsFromCivil({2020, 12, 31, 23, 59, 59});
  CivilTime newyear = CivilFromUnixSeconds(nye + 1);
  EXPECT_EQ(newyear.year, 2021);
  EXPECT_EQ(newyear.month, 1);
  EXPECT_EQ(newyear.day, 1);
}

}  // namespace
}  // namespace conformer
