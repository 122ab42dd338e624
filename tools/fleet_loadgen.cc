// Multi-tenant fleet load generator (docs/SERVING.md, "Driving a fleet
// with fleet_loadgen"): stands up a FleetServer with the requested tenant
// mix, sweeps an open-loop Poisson request stream across a range of offered
// loads, and prints a per-tenant saturation table — goodput and latency
// quantiles per load point — so the knee of the fleet's saturation curve is
// one command away.
//
//   fleet_loadgen --tenants linear@8:2,linear@16:1 --rps 32 --sweep 4
//       --duration-s 0.5 --deadline-ms 50 --json curve.json
//
// Tenant specs are KEY[:MIX[:WEIGHT]]: KEY is the model@horizon tenant key
// (the horizon sets the session's pred_len), MIX the relative traffic
// share, WEIGHT the dispatcher's round-robin share. Models serve fresh
// (untrained) weights — load shape does not depend on parameter values.
// --think-scale-us adds Pareto heavy-tail think time to every client's
// arrival schedule (bursty traffic at the same long-run rate).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/dataset_registry.h"
#include "serve/fleet_server.h"
#include "serve/loadgen.h"
#include "util/binary_io.h"

namespace conformer {
namespace {

struct TenantArg {
  std::string key;
  double mix = 1.0;
  int64_t weight = 1;
};

struct Options {
  std::string tenants = "linear@8:2,linear@16:1";
  std::string dataset = "etth1";
  std::string json_out;
  int64_t dispatchers = 2;
  int64_t clients = 4;
  int64_t max_batch = 8;
  int64_t delay_us = 1000;
  int64_t max_queue_depth = 64;
  int64_t breaker = 0;
  int64_t deadline_ms = 0;
  double rps = 32.0;
  int64_t sweep = 4;
  double sweep_factor = 2.0;
  double duration_s = 1.0;
  double think_scale_us = 0.0;
  double think_alpha = 1.5;
  int64_t input_len = 32;
  int64_t label_len = 16;
  int64_t seed = 42;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: fleet_loadgen [options]\n"
      "  --tenants SPECS       comma list of KEY[:MIX[:WEIGHT]]; KEY is\n"
      "                        model@horizon (default linear@8:2,linear@16:1)\n"
      "  --dataset NAME        synthetic dataset name (default etth1)\n"
      "  --dispatchers N       shared dispatcher shards (default 2)\n"
      "  --clients N           open-loop client threads (default 4)\n"
      "  --max-batch N         per-tenant micro-batch cap (default 8)\n"
      "  --delay-us N          per-tenant coalescing delay (default 1000)\n"
      "  --max-queue-depth N   per-tenant admission bound (default 64)\n"
      "  --breaker N           per-tenant circuit breaker (default 0 = off)\n"
      "  --deadline-ms N       per-request deadline (default 0 = none)\n"
      "  --rps R               first offered load, requests/s (default 32)\n"
      "  --sweep N             load points, multiplying by --sweep-factor\n"
      "                        each step (default 4)\n"
      "  --sweep-factor F      offered-load multiplier per step (default 2)\n"
      "  --duration-s S        arrival window per load point (default 1.0)\n"
      "  --think-scale-us S    Pareto heavy-tail think time scale (default 0\n"
      "                        = pure Poisson arrivals)\n"
      "  --think-alpha A       Pareto tail index (default 1.5)\n"
      "  --input-len/--label-len N   window geometry (32/16; pred_len comes\n"
      "                        from each tenant key's horizon)\n"
      "  --seed N              RNG seed (default 42)\n"
      "  --json FILE           write the saturation curve JSON here\n");
}

bool ParseInt(const char* value, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(value, &end, 10);
  return end != value && *end == '\0';
}

bool ParseDouble(const char* value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value, &end);
  return end != value && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tenants" && (v = next())) {
      opts->tenants = v;
    } else if (arg == "--dataset" && (v = next())) {
      opts->dataset = v;
    } else if (arg == "--json" && (v = next())) {
      opts->json_out = v;
    } else if (arg == "--dispatchers" && (v = next())) {
      if (!ParseInt(v, &opts->dispatchers)) return false;
    } else if (arg == "--clients" && (v = next())) {
      if (!ParseInt(v, &opts->clients)) return false;
    } else if (arg == "--max-batch" && (v = next())) {
      if (!ParseInt(v, &opts->max_batch)) return false;
    } else if (arg == "--delay-us" && (v = next())) {
      if (!ParseInt(v, &opts->delay_us)) return false;
    } else if (arg == "--max-queue-depth" && (v = next())) {
      if (!ParseInt(v, &opts->max_queue_depth)) return false;
    } else if (arg == "--breaker" && (v = next())) {
      if (!ParseInt(v, &opts->breaker)) return false;
    } else if (arg == "--deadline-ms" && (v = next())) {
      if (!ParseInt(v, &opts->deadline_ms)) return false;
    } else if (arg == "--rps" && (v = next())) {
      if (!ParseDouble(v, &opts->rps)) return false;
    } else if (arg == "--sweep" && (v = next())) {
      if (!ParseInt(v, &opts->sweep)) return false;
    } else if (arg == "--sweep-factor" && (v = next())) {
      if (!ParseDouble(v, &opts->sweep_factor)) return false;
    } else if (arg == "--duration-s" && (v = next())) {
      if (!ParseDouble(v, &opts->duration_s)) return false;
    } else if (arg == "--think-scale-us" && (v = next())) {
      if (!ParseDouble(v, &opts->think_scale_us)) return false;
    } else if (arg == "--think-alpha" && (v = next())) {
      if (!ParseDouble(v, &opts->think_alpha)) return false;
    } else if (arg == "--input-len" && (v = next())) {
      if (!ParseInt(v, &opts->input_len)) return false;
    } else if (arg == "--label-len" && (v = next())) {
      if (!ParseInt(v, &opts->label_len)) return false;
    } else if (arg == "--seed" && (v = next())) {
      if (!ParseInt(v, &opts->seed)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return opts->rps > 0 && opts->sweep > 0 && opts->duration_s > 0 &&
         opts->sweep_factor > 0;
}

// "linear@8:2,conformer@16" -> [{linear@8, mix 2, weight 1}, ...].
bool ParseTenants(const std::string& spec, std::vector<TenantArg>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    TenantArg tenant;
    const size_t colon = item.find(':');
    tenant.key = item.substr(0, colon);
    if (colon != std::string::npos) {
      const std::string rest = item.substr(colon + 1);
      const size_t colon2 = rest.find(':');
      if (!ParseDouble(rest.substr(0, colon2).c_str(), &tenant.mix) ||
          tenant.mix <= 0) {
        return false;
      }
      if (colon2 != std::string::npos &&
          (!ParseInt(rest.c_str() + colon2 + 1, &tenant.weight) ||
           tenant.weight < 1)) {
        return false;
      }
    }
    if (!serve::ValidateTenantKey(tenant.key).ok()) return false;
    out->push_back(std::move(tenant));
  }
  return !out->empty();
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  std::vector<TenantArg> tenant_args;
  if (!ParseTenants(opts.tenants, &tenant_args)) {
    std::fprintf(stderr, "malformed --tenants spec: %s\n",
                 opts.tenants.c_str());
    Usage();
    return 2;
  }

  Result<data::TimeSeries> series = data::MakeDataset(opts.dataset, 0.08);
  if (!series.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 series.status().ToString().c_str());
    return 1;
  }

  // -- Fleet + traffic mix --------------------------------------------------
  serve::FleetServer fleet({.num_dispatchers = opts.dispatchers});
  std::vector<serve::TenantLoad> mix;
  for (const TenantArg& tenant : tenant_args) {
    // The horizon half of the key is the tenant's pred_len.
    const int64_t pred_len =
        std::strtoll(tenant.key.c_str() + tenant.key.find('@') + 1, nullptr,
                     10);
    if (pred_len <= 0) {
      std::fprintf(stderr, "tenant %s: horizon must be a positive integer\n",
                   tenant.key.c_str());
      return 2;
    }
    serve::TenantSpec spec;
    spec.session.model_name = tenant.key.substr(0, tenant.key.find('@'));
    spec.session.window = {.input_len = opts.input_len,
                           .label_len = opts.label_len,
                           .pred_len = pred_len};
    if (Status valid =
            data::ValidateSplits(series.value(), spec.session.window);
        !valid.ok()) {
      std::fprintf(stderr, "tenant %s: %s\n", tenant.key.c_str(),
                   valid.ToString().c_str());
      return 1;
    }
    spec.session.dims = series.value().dims();
    spec.queue = {.max_batch_size = opts.max_batch,
                  .max_queue_delay_us = opts.delay_us,
                  .max_queue_depth = opts.max_queue_depth,
                  .circuit_breaker_failures = opts.breaker};
    spec.weight = tenant.weight;
    Status added = fleet.AddTenant(tenant.key, spec);
    if (!added.ok()) {
      std::fprintf(stderr, "failed to add tenant %s: %s\n",
                   tenant.key.c_str(), added.ToString().c_str());
      return 1;
    }
    data::DatasetSplits splits =
        data::MakeSplits(series.value(), spec.session.window);
    mix.push_back({tenant.key, splits.test.GetRange(0, 1), tenant.mix});
  }

  // -- Sweep ----------------------------------------------------------------
  std::string json = "{\"curve\": [";
  std::printf(
      "%-16s %10s %10s %12s %9s %9s %9s\n", "tenant", "offered", "ok/issued",
      "goodput/s", "p50 ms", "p95 ms", "p99 ms");
  for (int64_t step = 0; step < opts.sweep; ++step) {
    serve::LoadgenOptions load;
    load.offered_rps = opts.rps * std::pow(opts.sweep_factor,
                                           static_cast<double>(step));
    load.duration_seconds = opts.duration_s;
    load.num_clients = opts.clients;
    load.think_scale_us = opts.think_scale_us;
    load.think_tail_alpha = opts.think_alpha;
    load.deadline_us = opts.deadline_ms * 1000;
    load.seed = static_cast<uint64_t>(opts.seed) + step;
    const serve::LoadReport report = serve::RunOpenLoop(fleet, mix, load);

    json += std::string(step == 0 ? "" : ",") + "\n  {\"offered_rps\": " +
            std::to_string(report.offered_rps) +
            ", \"achieved_rps\": " + std::to_string(report.achieved_rps) +
            ", \"goodput_rps\": " + std::to_string(report.goodput_rps) +
            ", \"wall_seconds\": " + std::to_string(report.wall_seconds) +
            ", \"tenants\": [";
    for (size_t i = 0; i < report.tenants.size(); ++i) {
      const serve::TenantLoadStats& t = report.tenants[i];
      std::printf("%-16s %10.1f %4lld/%-5lld %12.1f %9.2f %9.2f %9.2f\n",
                  t.key.c_str(), report.offered_rps,
                  static_cast<long long>(t.ok),
                  static_cast<long long>(t.issued), t.goodput_rps, t.p50_ms,
                  t.p95_ms, t.p99_ms);
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s\n    {\"key\": \"%s\", \"issued\": %lld, \"ok\": %lld, "
          "\"rejected\": %lld, \"shed\": %lld, \"failed\": %lld, "
          "\"goodput_rps\": %.3f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
          "\"p99_ms\": %.3f}",
          i == 0 ? "" : ",", t.key.c_str(), static_cast<long long>(t.issued),
          static_cast<long long>(t.ok), static_cast<long long>(t.rejected),
          static_cast<long long>(t.shed), static_cast<long long>(t.failed),
          t.goodput_rps, t.p50_ms, t.p95_ms, t.p99_ms);
      json += row;
    }
    json += "\n  ]}";
    std::printf("%-16s %10.1f %10s %12.1f  (achieved %.1f rps)\n\n",
                "  = aggregate", report.offered_rps, "", report.goodput_rps,
                report.achieved_rps);
  }
  json += "\n]}\n";

  if (!opts.json_out.empty()) {
    const Status written = io::AtomicWriteFile(opts.json_out, json);
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", opts.json_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("saturation curve written to %s\n", opts.json_out.c_str());
  }
  fleet.Shutdown();
  return 0;
}

}  // namespace
}  // namespace conformer

int main(int argc, char** argv) { return conformer::Main(argc, argv); }
