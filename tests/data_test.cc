// Data substrate: containers, scaling, time features, windowing, splits,
// CSV parsing, and the statistical character of the synthetic datasets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "data/csv_loader.h"
#include "data/dataset_registry.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "data/time_features.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "fft/autocorrelation.h"
#include "util/civil_time.h"

namespace conformer::data {
namespace {

TimeSeries TinySeries(int64_t n = 10, int64_t dims = 2) {
  std::vector<int64_t> ts(n);
  std::vector<float> vals(n * dims);
  for (int64_t i = 0; i < n; ++i) {
    ts[i] = i * 3600;
    for (int64_t d = 0; d < dims; ++d) {
      vals[i * dims + d] = static_cast<float>(i * 10 + d);
    }
  }
  return TimeSeries("tiny", std::move(ts), std::move(vals), dims);
}

// -- TimeSeries -------------------------------------------------------------

TEST(TimeSeriesTest, BasicAccess) {
  TimeSeries ts = TinySeries();
  EXPECT_EQ(ts.num_points(), 10);
  EXPECT_EQ(ts.dims(), 2);
  EXPECT_EQ(ts.value(3, 1), 31.0f);
  EXPECT_EQ(ts.target_column(), 1);  // defaults to last
}

TEST(TimeSeriesTest, SliceRows) {
  TimeSeries ts = TinySeries();
  TimeSeries s = ts.Slice(2, 5);
  EXPECT_EQ(s.num_points(), 3);
  EXPECT_EQ(s.value(0, 0), 20.0f);
  EXPECT_EQ(s.timestamps()[0], 2 * 3600);
}

TEST(TimeSeriesTest, ColumnExtraction) {
  TimeSeries ts = TinySeries();
  TimeSeries col = ts.Column(1);
  EXPECT_EQ(col.dims(), 1);
  EXPECT_EQ(col.value(4, 0), 41.0f);
}

TEST(TimeSeriesTest, CorrelationOfIdenticalColumnsIsOne) {
  TimeSeries ts = TinySeries();
  EXPECT_NEAR(ts.ColumnCorrelation(0, 0), 1.0, 1e-9);
  // Both columns are linear in i: perfectly correlated.
  EXPECT_NEAR(ts.ColumnCorrelation(0, 1), 1.0, 1e-9);
}

TEST(TimeSeriesTest, AntiCorrelatedColumns) {
  std::vector<int64_t> ts = {0, 1, 2, 3};
  std::vector<float> vals = {1, -1, 2, -2, 3, -3, 4, -4};
  TimeSeries series("anti", std::move(ts), std::move(vals), 2);
  EXPECT_NEAR(series.ColumnCorrelation(0, 1), -1.0, 1e-9);
}

// -- StandardScaler -----------------------------------------------------------

TEST(ScalerTest, TransformsToZeroMeanUnitVar) {
  TimeSeries ts = TinySeries(100);
  StandardScaler scaler;
  scaler.Fit(ts);
  TimeSeries scaled = scaler.Transform(ts);
  for (int64_t d = 0; d < 2; ++d) {
    double mean = 0.0;
    for (int64_t i = 0; i < 100; ++i) mean += scaled.value(i, d);
    mean /= 100.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    double var = 0.0;
    for (int64_t i = 0; i < 100; ++i) {
      var += scaled.value(i, d) * scaled.value(i, d);
    }
    EXPECT_NEAR(var / 100.0, 1.0, 1e-4);
  }
}

TEST(ScalerTest, InverseRoundTrip) {
  TimeSeries ts = TinySeries(50);
  StandardScaler scaler;
  scaler.Fit(ts);
  TimeSeries scaled = scaler.Transform(ts);
  EXPECT_NEAR(scaler.InverseValue(scaled.value(7, 0), 0), ts.value(7, 0), 1e-3);
  EXPECT_NEAR(scaler.InverseValue(scaled.value(3, 1), 1), ts.value(3, 1), 1e-3);
}

TEST(ScalerTest, ConstantColumnDoesNotBlowUp) {
  std::vector<int64_t> t = {0, 1, 2};
  std::vector<float> vals = {5, 5, 5};
  TimeSeries ts("const", std::move(t), std::move(vals), 1);
  StandardScaler scaler;
  scaler.Fit(ts);
  TimeSeries scaled = scaler.Transform(ts);
  EXPECT_TRUE(std::isfinite(scaled.value(0, 0)));
}

// -- time features ---------------------------------------------------------------

TEST(TimeFeaturesTest, RangeAndValues) {
  // 2020-06-15 14:30:00 UTC.
  const int64_t ts = UnixSecondsFromCivil({2020, 6, 15, 14, 30, 0});
  float f[kNumTimeFeatures];
  TimeFeaturesOf(ts, f);
  EXPECT_NEAR(f[0], 30.0f / 59.0f - 0.5f, 1e-6);  // minute
  EXPECT_NEAR(f[1], 14.0f / 23.0f - 0.5f, 1e-6);  // hour
  EXPECT_NEAR(f[2], 0.0f / 6.0f - 0.5f, 1e-6);    // Monday
  EXPECT_NEAR(f[3], 14.0f / 30.0f - 0.5f, 1e-6);  // day 15
  for (int i = 0; i < kNumTimeFeatures; ++i) {
    EXPECT_GE(f[i], -0.5f);
    EXPECT_LE(f[i], 0.5f);
  }
}

TEST(TimeFeaturesTest, LeapYearStaysInRange) {
  // Regression: day 366 of a leap year used to evaluate past +0.5 because
  // the day-of-year feature was normalized by a fixed 365 regardless of the
  // actual year length.
  float f[kNumTimeFeatures];

  // 2020-12-31 (day 366 of a leap year) must sit exactly at the top of the
  // documented [-0.5, 0.5] range.
  TimeFeaturesOf(UnixSecondsFromCivil({2020, 12, 31, 12, 0, 0}), f);
  EXPECT_NEAR(f[4], 0.5f, 1e-6);

  // 2020-02-29 is day 60 of 366.
  TimeFeaturesOf(UnixSecondsFromCivil({2020, 2, 29, 0, 0, 0}), f);
  EXPECT_NEAR(f[4], 59.0f / 365.0f - 0.5f, 1e-6);
  EXPECT_GE(f[4], -0.5f);
  EXPECT_LE(f[4], 0.5f);

  // Non-leap Dec 31 (day 365 of 365) also lands exactly on +0.5, and Jan 1
  // on -0.5, in both year kinds.
  TimeFeaturesOf(UnixSecondsFromCivil({2021, 12, 31, 0, 0, 0}), f);
  EXPECT_NEAR(f[4], 0.5f, 1e-6);
  TimeFeaturesOf(UnixSecondsFromCivil({2020, 1, 1, 0, 0, 0}), f);
  EXPECT_NEAR(f[4], -0.5f, 1e-6);
  TimeFeaturesOf(UnixSecondsFromCivil({2021, 1, 1, 0, 0, 0}), f);
  EXPECT_NEAR(f[4], -0.5f, 1e-6);

  // Every feature stays in range across a leap-year boundary sweep.
  for (int64_t ts = UnixSecondsFromCivil({2020, 2, 28, 0, 0, 0});
       ts <= UnixSecondsFromCivil({2020, 3, 1, 0, 0, 0}); ts += 3600) {
    TimeFeaturesOf(ts, f);
    for (int i = 0; i < kNumTimeFeatures; ++i) {
      EXPECT_GE(f[i], -0.5f) << "ts=" << ts << " i=" << i;
      EXPECT_LE(f[i], 0.5f) << "ts=" << ts << " i=" << i;
    }
  }
}

TEST(TimeFeaturesTest, MatrixLayout) {
  std::vector<int64_t> ts = {0, 3600, 7200};
  std::vector<float> m = ExtractTimeFeatures(ts);
  EXPECT_EQ(m.size(), 3u * kNumTimeFeatures);
  // Hour feature increases across the three stamps.
  EXPECT_LT(m[1], m[kNumTimeFeatures + 1]);
  EXPECT_LT(m[kNumTimeFeatures + 1], m[2 * kNumTimeFeatures + 1]);
}

// -- WindowDataset ------------------------------------------------------------------

TEST(WindowDatasetTest, SizeFormula) {
  WindowDataset ds(TinySeries(20), {.input_len = 6, .label_len = 2, .pred_len = 4});
  EXPECT_EQ(ds.size(), 20 - 6 - 4 + 1);
}

TEST(WindowDatasetTest, BatchShapesAndAlignment) {
  WindowConfig cfg{.input_len = 6, .label_len = 2, .pred_len = 4};
  WindowDataset ds(TinySeries(20), cfg);
  Batch b = ds.GetBatch({0, 3});
  EXPECT_EQ(b.x.shape(), (Shape{2, 6, 2}));
  EXPECT_EQ(b.y.shape(), (Shape{2, 6, 2}));  // label + pred
  EXPECT_EQ(b.x_mark.shape(), (Shape{2, 6, kNumTimeFeatures}));

  // Window 0: x rows 0..5; y rows 4..9 (label overlaps x's suffix).
  EXPECT_EQ(b.x.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(b.x.at({0, 5, 0}), 50.0f);
  EXPECT_EQ(b.y.at({0, 0, 0}), 40.0f);
  EXPECT_EQ(b.y.at({0, 5, 0}), 90.0f);
  // Window 3 shifted by 3 rows.
  EXPECT_EQ(b.x.at({1, 0, 0}), 30.0f);
  EXPECT_EQ(b.y.at({1, 5, 0}), 120.0f);
}

TEST(WindowDatasetTest, LabelSectionIsSuffixOfInput) {
  WindowConfig cfg{.input_len = 6, .label_len = 3, .pred_len = 2};
  WindowDataset ds(TinySeries(20), cfg);
  Batch b = ds.GetBatch({5});
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b.y.at({0, i, 0}), b.x.at({0, 3 + i, 0}));
  }
}

TEST(WindowDatasetTest, GetRange) {
  WindowDataset ds(TinySeries(20), {.input_len = 4, .label_len = 2, .pred_len = 2});
  Batch b = ds.GetRange(2, 3);
  EXPECT_EQ(b.size(), 3);
  EXPECT_EQ(b.x.at({0, 0, 0}), 20.0f);
}

TEST(WindowDatasetTest, RejectsTooShortSeries) {
  EXPECT_DEATH(
      WindowDataset(TinySeries(5), {.input_len = 8, .label_len = 2, .pred_len = 4}),
      "window");
}

TEST(SplitsTest, ChronologicalWithContext) {
  WindowConfig cfg{.input_len = 8, .label_len = 4, .pred_len = 4};
  TimeSeries ts = TinySeries(200);
  DatasetSplits splits = MakeSplits(ts, cfg);
  // Train covers rows [0, 140); val [132, 160); test [152, 200).
  EXPECT_EQ(splits.train.series().num_points(), 140);
  EXPECT_EQ(splits.val.series().num_points(), 160 - 132);
  EXPECT_EQ(splits.test.series().num_points(), 200 - 152);
  // Standardization uses train statistics: train mean is ~0.
  double mean = 0.0;
  for (int64_t i = 0; i < 140; ++i) mean += splits.train.series().value(i, 0);
  EXPECT_NEAR(mean / 140.0, 0.0, 1e-4);
  // Test rows sit above the train mean (the raw series increases).
  EXPECT_GT(splits.test.series().value(40, 0), 0.5f);
}

// Under the serving default 32/16/16, val gets n * 8 / 10 - (n * 7 / 10 -
// 32) rows. 150 rows give 120 - 73 = 47, one short of a window; 159, 160
// and 161 give 48 (160 * (0.7 + 0.1) in double would give 47).
TEST(SplitsTest, ValidateSplitsAtTheRowBoundary) {
  const WindowConfig cfg{.input_len = 32, .label_len = 16, .pred_len = 16};
  for (int64_t n : {159, 160, 161}) {
    TimeSeries ts = TinySeries(n);
    EXPECT_TRUE(ValidateSplits(ts, cfg).ok()) << n << " rows";
    DatasetSplits splits = MakeSplits(ts, cfg);
    EXPECT_EQ(splits.val.size(), 1) << n << " rows";
  }
  const Status status = ValidateSplits(TinySeries(150), cfg);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("val split of a series of 150 rows: 47 rows"),
            std::string::npos)
      << status.ToString();
  EXPECT_DEATH(MakeSplits(TinySeries(150), cfg), "val split .* 47 rows");
}

// Both bounds floor exactly: 1400 rows end train at 980 (1400 * 0.7 is
// 979.99... in double) and val at 1120.
TEST(SplitsTest, BoundsAreExactTenths) {
  const WindowConfig cfg{.input_len = 8, .label_len = 4, .pred_len = 4};
  DatasetSplits splits = MakeSplits(TinySeries(1400), cfg);
  EXPECT_EQ(splits.train.series().num_points(), 980);
  EXPECT_EQ(splits.val.series().num_points(), 1120 - (980 - 8));
  EXPECT_EQ(splits.test.series().num_points(), 1400 - (1120 - 8));
}

TEST(SplitsTest, ValidateSplitsRejectsWhatMakeSplitsWouldAbortOn) {
  const WindowConfig ok{.input_len = 32, .label_len = 16, .pred_len = 16};
  const TimeSeries ts = TinySeries(400);
  ASSERT_TRUE(ValidateSplits(ts, ok).ok());
  // Series too short for any train window, and each split's own window.
  // 156 is the longest series the split bounds reject at 32/16/16.
  for (int64_t n : {20, 70, 150, 156}) {
    EXPECT_EQ(ValidateSplits(TinySeries(n), ok).code(),
              StatusCode::kInvalidArgument)
        << n << " rows";
  }
  WindowConfig cfg = ok;
  cfg.input_len = 5000;
  EXPECT_NE(ValidateSplits(ts, cfg).message().find("train split"),
            std::string::npos);
  cfg = ok;
  cfg.label_len = 40;
  EXPECT_NE(ValidateSplits(ts, cfg).message().find("exceeds input_len"),
            std::string::npos);
  for (WindowConfig bad : {WindowConfig{0, 0, 16}, WindowConfig{32, -1, 16},
                           WindowConfig{32, 16, 0}}) {
    EXPECT_EQ(ValidateSplits(ts, bad).code(), StatusCode::kInvalidArgument);
  }
  // Lengths near INT64_MAX must not overflow into a pass.
  cfg = ok;
  cfg.pred_len = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(ValidateSplits(ts, cfg).ok());
}

TEST(BatchIteratorTest, CoversEverySampleOnce) {
  WindowDataset ds(TinySeries(30), {.input_len = 4, .label_len = 2, .pred_len = 2});
  Rng rng(5);
  BatchIterator it(ds, 7, /*shuffle=*/true, &rng);
  EXPECT_EQ(it.num_batches(), (ds.size() + 6) / 7);
  int64_t total = 0;
  Batch b;
  while (it.Next(&b)) total += b.size();
  EXPECT_EQ(total, ds.size());
  // Second epoch works after Reset.
  it.Reset();
  EXPECT_TRUE(it.Next(&b));
}

TEST(BatchIteratorTest, UnshuffledIsSequential) {
  WindowDataset ds(TinySeries(20), {.input_len = 4, .label_len = 1, .pred_len = 2});
  BatchIterator it(ds, 4, /*shuffle=*/false);
  Batch b;
  ASSERT_TRUE(it.Next(&b));
  EXPECT_EQ(b.x.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(b.x.at({1, 0, 0}), 10.0f);
}

// -- CSV loader -------------------------------------------------------------------------

TEST(CsvTest, ParsesDateAndValues) {
  const std::string csv =
      "date,HUFL,OT\n"
      "2016-07-01 00:00:00,5.827,30.531\n"
      "2016-07-01 01:00:00,5.693,27.787\n";
  Result<TimeSeries> r = ParseCsv(csv, "etth1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TimeSeries& ts = r.value();
  EXPECT_EQ(ts.num_points(), 2);
  EXPECT_EQ(ts.dims(), 2);
  EXPECT_EQ(ts.column_names()[1], "OT");
  EXPECT_NEAR(ts.value(0, 0), 5.827f, 1e-4);
  EXPECT_EQ(ts.timestamps()[1] - ts.timestamps()[0], 3600);
}

TEST(CsvTest, NoDateColumnUsesInterval) {
  const std::string csv = "a,b\n1,2\n3,4\n";
  CsvOptions options;
  options.interval_seconds = 60;
  Result<TimeSeries> r = ParseCsv(csv, "plain", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().timestamps()[1] - r.value().timestamps()[0], 60);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n", "bad").ok());
}

TEST(CsvTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseCsv("a,b\n1,x\n", "bad").ok());
}

TEST(CsvTest, RejectsEmpty) {
  EXPECT_FALSE(ParseCsv("", "bad").ok());
  EXPECT_FALSE(ParseCsv("a,b\n", "headers only").ok());
}

// Malformed input must produce a compiler-style file:line[:column]
// diagnostic that pinpoints the offending field, not a bare failure.

TEST(CsvTest, RaggedRowDiagnosticNamesFileAndLine) {
  const Status s = ParseCsv("a,b\n1,2\n3\n", "bad.csv").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bad.csv:3"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("ragged row: 1 fields, expected 2"),
            std::string::npos)
      << s.message();
}

TEST(CsvTest, NonNumericDiagnosticNamesColumn) {
  const Status s = ParseCsv("a,b\n1,x\n", "bad.csv").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bad.csv:2:2"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("column 'b'"), std::string::npos) << s.message();
}

TEST(CsvTest, BadTimestampDiagnosticNamesDateColumn) {
  const Status s =
      ParseCsv("date,a\nnot-a-date,1\n", "bad.csv").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bad.csv:2:1"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("bad timestamp"), std::string::npos)
      << s.message();
}

TEST(CsvTest, EmptyAndHeaderOnlyDiagnosticsAreSpecific) {
  const Status empty = ParseCsv("", "bad.csv").status();
  EXPECT_NE(empty.message().find("empty CSV"), std::string::npos)
      << empty.message();
  const Status no_rows = ParseCsv("a,b\n", "bad.csv").status();
  EXPECT_NE(no_rows.message().find("no data rows"), std::string::npos)
      << no_rows.message();
  const Status no_values = ParseCsv("date\n", "bad.csv").status();
  EXPECT_NE(no_values.message().find("no value columns"), std::string::npos)
      << no_values.message();
}

TEST(CsvTest, BlankLinesDoNotShiftLineNumbers) {
  // The blank line 3 is skipped but still counted, so the bad row reports
  // its real file position.
  const Status s = ParseCsv("a,b\n1,2\n\n3,x\n", "bad.csv").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bad.csv:4:2"), std::string::npos) << s.message();
}

TEST(CsvTest, SaveLoadRoundTrip) {
  // A file written by hand in the benchmark files' layout loads back exactly.
  const std::string path = "/tmp/conformer_csv_roundtrip.csv";
  {
    std::ofstream out(path);
    out << "date,load,temp\n"
           "2020-03-01 00:00:00,1.5,-2\n"
           "2020-03-01 01:00:00,2.25,-1\n"
           "2020-03-01 02:00:00,3,0.125\n";
  }
  Result<TimeSeries> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TimeSeries& ts = loaded.value();
  EXPECT_EQ(ts.num_points(), 3);
  EXPECT_EQ(ts.dims(), 2);
  EXPECT_EQ(ts.column_names(), (std::vector<std::string>{"load", "temp"}));
  const std::vector<float> want = {1.5f, -2.0f, 2.25f, -1.0f, 3.0f, 0.125f};
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ts.timestamps()[i], 1583020800 + i * 3600);
    for (int64_t d = 0; d < 2; ++d) {
      EXPECT_EQ(ts.value(i, d), want[i * 2 + d]);
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  Result<TimeSeries> r = LoadCsv("/tmp/definitely_missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// -- synthetic datasets -------------------------------------------------------------------

TEST(SyntheticTest, RegistryKnowsAllSeven) {
  EXPECT_EQ(AvailableDatasets().size(), 7u);
  for (const std::string& name : AvailableDatasets()) {
    Result<TimeSeries> r = MakeDataset(name, 0.05, 1);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_GT(r.value().num_points(), 500) << name;
  }
}

TEST(SyntheticTest, UnknownNameFails) {
  EXPECT_FALSE(MakeDataset("nope").ok());
  EXPECT_FALSE(MakeDataset("ecl", 0.0).ok());
  EXPECT_FALSE(MakeDataset("ecl", 2.0).ok());
}

TEST(SyntheticTest, DimsMatchTableI) {
  EXPECT_EQ(MakeDataset("weather", 0.05).value().dims(), 21);
  EXPECT_EQ(MakeDataset("exchange", 0.05).value().dims(), 8);
  EXPECT_EQ(MakeDataset("etth1", 0.05).value().dims(), 7);
  EXPECT_EQ(MakeDataset("wind", 0.05).value().dims(), 7);
  EXPECT_EQ(MakeDataset("airdelay", 0.05).value().dims(), 6);
}

TEST(SyntheticTest, FullScaleEclMatchesTableI) {
  SyntheticConfig c = EclConfig(1.0, 1);
  EXPECT_EQ(c.dims, 321);
  EXPECT_EQ(c.points, 26304);
}

TEST(SyntheticTest, DeterministicInSeed) {
  TimeSeries a = MakeDataset("etth1", 0.05, 9).value();
  TimeSeries b = MakeDataset("etth1", 0.05, 9).value();
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(a.value(i, 0), b.value(i, 0));
  TimeSeries c = MakeDataset("etth1", 0.05, 10).value();
  bool differs = false;
  for (int64_t i = 0; i < 100; ++i) differs = differs || a.value(i, 0) != c.value(i, 0);
  EXPECT_TRUE(differs);
}

TEST(SyntheticTest, EtthHasDailyPeriodicity) {
  TimeSeries ts = MakeDataset("etth1", 0.1, 3).value();
  std::vector<double> col(512);
  for (int64_t i = 0; i < 512; ++i) col[i] = ts.value(i, 0);
  auto ac = fft::AutoCorrelationBatch(col, 1, 512);
  // Correlation at the daily lag (24 steps) beats a mid-cycle lag (12).
  EXPECT_GT(ac[24], ac[12]);
}

TEST(SyntheticTest, ExchangeHasNoStrongPeriodicity) {
  TimeSeries ts = MakeDataset("exchange", 0.2, 3).value();
  std::vector<double> col(1024);
  for (int64_t i = 0; i < 1024; ++i) col[i] = ts.value(i, 0);
  auto ac = fft::AutoCorrelationBatch(col, 1, 1024);
  // Normalized correlation decays smoothly: no lag beyond 2 steps should
  // exceed 99.9% of the lag-1 value (random-walk signature: monotone-ish
  // decay, no resonant peaks).
  for (int64_t lag = 10; lag < 100; ++lag) {
    EXPECT_LT(ac[lag], ac[1] * 1.001) << "periodic peak at lag " << lag;
  }
}

TEST(SyntheticTest, WindIsNonNegative) {
  TimeSeries ts = MakeDataset("wind", 0.05, 4).value();
  for (int64_t i = 0; i < ts.num_points(); ++i) {
    EXPECT_GE(ts.value(i, ts.dims() - 1), 0.0f);
  }
}

TEST(SyntheticTest, AirDelayHasIrregularIntervals) {
  TimeSeries ts = MakeDataset("airdelay", 0.05, 5).value();
  std::set<int64_t> gaps;
  for (int64_t i = 1; i < 200; ++i) {
    gaps.insert(ts.timestamps()[i] - ts.timestamps()[i - 1]);
  }
  EXPECT_GT(gaps.size(), 20u);  // many distinct inter-arrival times
}

TEST(SyntheticTest, RegularDatasetsHaveFixedInterval) {
  TimeSeries ts = MakeDataset("etth1", 0.05, 6).value();
  for (int64_t i = 1; i < 100; ++i) {
    EXPECT_EQ(ts.timestamps()[i] - ts.timestamps()[i - 1], 3600);
  }
}

TEST(SyntheticTest, CrossCouplingCorrelatesVariables) {
  TimeSeries ts = MakeDataset("ecl", 0.05, 7).value();
  // Shared latent + shared rhythms: average |corr| should be visible.
  double corr = std::fabs(ts.ColumnCorrelation(0, 1));
  EXPECT_GT(corr, 0.1);
}

}  // namespace
}  // namespace conformer::data
