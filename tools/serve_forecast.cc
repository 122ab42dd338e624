// Serving CLI (docs/SERVING.md): restores a checkpoint into a one-tenant,
// one-shard FleetServer, replays a request stream from a dataset (synthetic
// by name, or a CSV) through the tenant's micro-batching queue with several
// client threads, prints a latency/throughput summary, and dumps the
// process metrics registry as JSON.
//
//   serve_forecast --dataset etth1 --checkpoint ckpt-dir --train-if-missing
//       --requests 64 --max-batch 8 --delay-us 2000 --metrics-out metrics.json
//
// Resilience knobs (docs/SERVING.md, "Overload & failure policy"):
// --max-queue-depth bounds admission, --deadline-ms attaches a deadline to
// every request (expired ones are shed before the model runs), and
// --reload-every-n hot-reloads the checkpoint mid-stream to exercise the
// atomic swap under client load. The summary reports delivered / shed /
// rejected counts and rates.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/csv_loader.h"
#include "data/dataset_registry.h"
#include "serve/fleet_server.h"
#include "serve/stats.h"
#include "train/trainer.h"
#include "util/binary_io.h"
#include "util/metrics.h"

namespace conformer {
namespace {

struct Options {
  std::string model = "conformer";
  std::string dataset = "etth1";
  std::string csv;
  std::string checkpoint;
  std::string metrics_out;
  bool train_if_missing = false;
  int64_t requests = 64;
  int64_t client_threads = 4;
  int64_t max_batch = 8;
  int64_t delay_us = 2000;
  int64_t max_queue_depth = 0;
  int64_t deadline_ms = 0;
  int64_t reload_every_n = 0;
  int64_t breaker = 0;
  int64_t quantile_samples = 0;
  double coverage = 0.9;
  int64_t input_len = 32;
  int64_t label_len = 16;
  int64_t pred_len = 16;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: serve_forecast [options]\n"
      "  --model NAME          registry model (default conformer)\n"
      "  --dataset NAME        synthetic dataset name (default etth1)\n"
      "  --csv FILE            serve a CSV instead of a synthetic dataset\n"
      "  --checkpoint PATH     checkpoint file or directory (empty: serve\n"
      "                        the untrained model)\n"
      "  --train-if-missing    train briefly and checkpoint into\n"
      "                        --checkpoint when it has no MANIFEST yet\n"
      "  --requests N          total requests to replay (default 64)\n"
      "  --clients N           concurrent client threads (default 4)\n"
      "  --max-batch N         micro-batch size cap (default 8)\n"
      "  --delay-us N          max queueing delay per batch (default 2000)\n"
      "  --max-queue-depth N   bounded admission: reject once N requests\n"
      "                        wait (default 0 = unbounded)\n"
      "  --deadline-ms N       per-request deadline; expired requests are\n"
      "                        shed before the model runs (default 0 = none)\n"
      "  --reload-every-n N    hot-reload --checkpoint after every N\n"
      "                        submissions (default 0 = never)\n"
      "  --breaker N           open the circuit after N consecutive failed\n"
      "                        batches (default 0 = disabled)\n"
      "  --quantile-samples N  flow samples per request for a quantile band\n"
      "  --coverage C          band coverage (default 0.9)\n"
      "  --input-len/--label-len/--pred-len N   window geometry (32/16/16)\n"
      "  --metrics-out FILE    write the metrics registry JSON here\n");
}

bool ParseInt(const char* value, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(value, &end, 10);
  return end != value && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--train-if-missing") {
      opts->train_if_missing = true;
    } else if (arg == "--model" && (v = next())) {
      opts->model = v;
    } else if (arg == "--dataset" && (v = next())) {
      opts->dataset = v;
    } else if (arg == "--csv" && (v = next())) {
      opts->csv = v;
    } else if (arg == "--checkpoint" && (v = next())) {
      opts->checkpoint = v;
    } else if (arg == "--metrics-out" && (v = next())) {
      opts->metrics_out = v;
    } else if (arg == "--coverage" && (v = next())) {
      opts->coverage = std::atof(v);
    } else if (arg == "--requests" && (v = next())) {
      if (!ParseInt(v, &opts->requests)) return false;
    } else if (arg == "--clients" && (v = next())) {
      if (!ParseInt(v, &opts->client_threads)) return false;
    } else if (arg == "--max-batch" && (v = next())) {
      if (!ParseInt(v, &opts->max_batch)) return false;
    } else if (arg == "--delay-us" && (v = next())) {
      if (!ParseInt(v, &opts->delay_us)) return false;
    } else if (arg == "--max-queue-depth" && (v = next())) {
      if (!ParseInt(v, &opts->max_queue_depth)) return false;
    } else if (arg == "--deadline-ms" && (v = next())) {
      if (!ParseInt(v, &opts->deadline_ms)) return false;
    } else if (arg == "--reload-every-n" && (v = next())) {
      if (!ParseInt(v, &opts->reload_every_n)) return false;
    } else if (arg == "--breaker" && (v = next())) {
      if (!ParseInt(v, &opts->breaker)) return false;
    } else if (arg == "--quantile-samples" && (v = next())) {
      if (!ParseInt(v, &opts->quantile_samples)) return false;
    } else if (arg == "--input-len" && (v = next())) {
      if (!ParseInt(v, &opts->input_len)) return false;
    } else if (arg == "--label-len" && (v = next())) {
      if (!ParseInt(v, &opts->label_len)) return false;
    } else if (arg == "--pred-len" && (v = next())) {
      if (!ParseInt(v, &opts->pred_len)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return opts->requests > 0 && opts->client_threads > 0;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }

  // -- Data ---------------------------------------------------------------
  Result<data::TimeSeries> series =
      opts.csv.empty() ? data::MakeDataset(opts.dataset, 0.08)
                       : data::LoadCsv(opts.csv);
  if (!series.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 series.status().ToString().c_str());
    return 1;
  }
  const data::WindowConfig window{.input_len = opts.input_len,
                                  .label_len = opts.label_len,
                                  .pred_len = opts.pred_len};
  if (Status valid = data::ValidateSplits(series.value(), window);
      !valid.ok()) {
    std::fprintf(stderr, "bad data or window: %s\n", valid.ToString().c_str());
    return 1;
  }
  data::DatasetSplits splits = data::MakeSplits(series.value(), window);

  // -- Optional bootstrap training ---------------------------------------
  if (opts.train_if_missing && !opts.checkpoint.empty() &&
      !io::FileExists(opts.checkpoint + "/MANIFEST")) {
    std::fprintf(stderr, "[serve_forecast] no checkpoint at %s; training...\n",
                 opts.checkpoint.c_str());
    Result<std::unique_ptr<models::Forecaster>> model =
        models::MakeForecaster(opts.model, window, series.value().dims());
    if (!model.ok()) {
      std::fprintf(stderr, "unknown model: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    train::TrainConfig train_config;
    train_config.epochs = 2;
    train_config.max_train_batches = 32;
    train_config.max_eval_batches = 8;
    train_config.learning_rate = 2e-3f;
    train_config.checkpoint_dir = opts.checkpoint;
    train::Trainer(train_config).Fit(model.value().get(), splits.train,
                                     splits.val);
  }

  // -- One-tenant fleet ---------------------------------------------------
  serve::TenantSpec spec;
  spec.session.model_name = opts.model;
  spec.session.window = window;
  spec.session.dims = series.value().dims();
  spec.session.quantile_samples = opts.quantile_samples;
  spec.session.coverage = opts.coverage;
  spec.checkpoint = opts.checkpoint;
  spec.queue = {.max_batch_size = opts.max_batch,
                .max_queue_delay_us = opts.delay_us,
                .max_queue_depth = opts.max_queue_depth,
                .circuit_breaker_failures = opts.breaker};
  serve::FleetServer fleet({.num_dispatchers = 1});
  const std::string key = serve::MakeTenantKey(opts.model, opts.pred_len);
  const Status added = fleet.AddTenant(key, spec);
  if (!added.ok()) {
    std::fprintf(stderr, "failed to open session: %s\n",
                 added.ToString().c_str());
    return 1;
  }

  // -- Replay the request stream -----------------------------------------
  const data::WindowDataset& test = splits.test;
  const int64_t n_windows = test.size();
  const serve::RequestOptions request_options{.deadline_us =
                                                  opts.deadline_ms * 1000};
  std::atomic<int64_t> submitted{0}, delivered{0}, shed{0}, rejected{0},
      failed{0}, reloads{0}, reload_failures{0};
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < opts.client_threads; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<serve::Forecast>>> futures;
      for (int64_t r = c; r < opts.requests; r += opts.client_threads) {
        futures.push_back(
            fleet.Submit(key, test.GetRange(r % n_windows, 1),
                         request_options));
        // Hot-reload under live client load: the swap is atomic, so no
        // in-flight request should fail because of it.
        if (opts.reload_every_n > 0 && !opts.checkpoint.empty() &&
            ++submitted % opts.reload_every_n == 0) {
          if (fleet.Reload(key, opts.checkpoint).ok()) {
            ++reloads;
          } else {
            ++reload_failures;
          }
        }
      }
      for (auto& f : futures) {
        const Result<serve::Forecast> result = f.get();
        if (result.ok()) {
          ++delivered;
        } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
          ++shed;
        } else if (result.status().code() == StatusCode::kResourceExhausted ||
                   result.status().code() == StatusCode::kUnavailable) {
          ++rejected;
        } else {
          ++failed;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  fleet.Shutdown();

  // -- Report -------------------------------------------------------------
  metrics::Registry& registry = metrics::Registry::Global();
  const int64_t requests = registry.GetCounter("serve.requests").value();
  const int64_t batches = registry.GetCounter("serve.batches").value();
  const metrics::Histogram::Snapshot latency =
      registry.GetHistogram("serve.request_latency_seconds").GetSnapshot();
  // series/batch divides *delivered* (not offered) requests: rejected and
  // shed requests never occupy a batch slot.
  std::printf("served %lld requests in %lld micro-batches (%.2f series/batch)\n",
              static_cast<long long>(requests),
              static_cast<long long>(batches),
              batches > 0 ? static_cast<double>(delivered.load()) /
                                static_cast<double>(batches)
                          : 0.0);
  std::printf("request latency: p50 %.1fms  p95 %.1fms  p99 %.1fms  (n=%lld)\n",
              serve::HistogramQuantile(latency, 0.50) * 1e3,
              serve::HistogramQuantile(latency, 0.95) * 1e3,
              serve::HistogramQuantile(latency, 0.99) * 1e3,
              static_cast<long long>(latency.count));
  std::printf(
      "delivered %lld  shed %lld (%.1f%%)  rejected %lld (%.1f%%)  "
      "failed %lld\n",
      static_cast<long long>(delivered.load()),
      static_cast<long long>(shed.load()),
      100.0 * static_cast<double>(shed.load()) /
          static_cast<double>(opts.requests),
      static_cast<long long>(rejected.load()),
      100.0 * static_cast<double>(rejected.load()) /
          static_cast<double>(opts.requests),
      static_cast<long long>(failed.load()));
  if (opts.reload_every_n > 0) {
    std::printf("hot reloads: %lld ok, %lld failed\n",
                static_cast<long long>(reloads.load()),
                static_cast<long long>(reload_failures.load()));
  }

  if (!opts.metrics_out.empty()) {
    const Status written =
        io::AtomicWriteFile(opts.metrics_out, registry.ToJson());
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write metrics: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", opts.metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace conformer

int main(int argc, char** argv) { return conformer::Main(argc, argv); }
