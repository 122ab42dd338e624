#include "baselines/registry.h"

#include <mutex>

#include "baselines/deepar.h"
#include "baselines/gru_forecaster.h"
#include "baselines/linear_forecaster.h"
#include "baselines/lstm_forecaster.h"
#include "baselines/lstnet.h"
#include "baselines/naive.h"
#include "baselines/nbeats.h"
#include "baselines/timesnet_lite.h"
#include "baselines/transformer_forecaster.h"
#include "baselines/ts2vec.h"
#include "core/conformer_model.h"
#include "util/string_util.h"

namespace conformer::models {

namespace {

using Window = data::WindowConfig;
using Params = ModelHyperParams;
using Model = std::unique_ptr<Forecaster>;

/// The Transformer-family baselines differ only in their attention preset.
template <TransformerConfig (*Preset)()>
Model MakeTransformer(const Window& window, int64_t dims, const Params& p) {
  TransformerConfig config = Preset();
  config.d_model = p.d_model;
  config.n_heads = p.n_heads;
  config.d_ff = 2 * p.d_model;
  config.ma_kernel = p.ma_kernel;
  config.dropout = p.dropout;
  config.attn.seed = p.seed;
  return std::make_unique<TransformerForecaster>(config, window, dims);
}

struct Entry {
  const char* name;
  Model (*make)(const Window& window, int64_t dims, const Params& p);
};

/// Every registry model, in AvailableModels() order.
const Entry kModels[] = {
    {"conformer",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       core::ConformerConfig config;
       config.d_model = p.d_model;
       config.n_heads = p.n_heads;
       config.ma_kernel = p.ma_kernel;
       config.dropout = p.dropout;
       config.seed = p.seed;
       if (p.univariate) config.dec_rnn_layers = 1;
       return std::make_unique<core::ConformerModel>(config, window, dims);
     }},
    {"longformer", MakeTransformer<LongformerConfig>},
    {"autoformer", MakeTransformer<AutoformerConfig>},
    {"informer", MakeTransformer<InformerConfig>},
    {"reformer", MakeTransformer<ReformerConfig>},
    {"logtrans", MakeTransformer<LogTransConfig>},
    {"transformer", MakeTransformer<VanillaTransformerConfig>},
    {"gru",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<GruForecaster>(window, dims, p.hidden);
     }},
    {"lstm",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<LstmForecaster>(window, dims, p.hidden);
     }},
    {"lstnet",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<LstNet>(window, dims, p.hidden, /*kernel=*/6,
                                       p.hidden, p.dropout);
     }},
    {"nbeats",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<NBeats>(window, dims, /*blocks=*/3,
                                       2 * p.hidden);
     }},
    {"ts2vec",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<Ts2Vec>(window, dims, p.hidden);
     }},
    {"deepar",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<DeepAr>(window, dims, p.hidden, /*layers=*/2,
                                       p.seed);
     }},
    {"timesnet",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<TimesNetLite>(window, dims, p.d_model,
                                             /*top_k=*/3);
     }},
    {"linear",
     [](const Window& window, int64_t dims, const Params&) -> Model {
       return std::make_unique<LinearForecaster>(window, dims);
     }},
    {"naive",
     [](const Window& window, int64_t dims, const Params&) -> Model {
       return std::make_unique<NaiveForecaster>(window, dims);
     }},
    {"seasonal_naive",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<SeasonalNaiveForecaster>(window, dims,
                                                        p.seasonal_period);
     }},
};

}  // namespace

std::vector<std::string> AvailableModels() {
  std::vector<std::string> names;
  for (const Entry& entry : kModels) names.emplace_back(entry.name);
  return names;
}

Result<std::unique_ptr<Forecaster>> MakeForecaster(
    const std::string& name, data::WindowConfig window, int64_t dims,
    const ModelHyperParams& params) {
  const std::string key = ToLower(name);
  for (const Entry& entry : kModels) {
    if (key != entry.name) continue;
    // Parameter initializers draw from the unsynchronized GlobalRng(), and
    // serving builds models from several threads at once (concurrent
    // Reload / AddTenant calls), so construction is serialized.
    static std::mutex construct_mu;
    std::lock_guard<std::mutex> lock(construct_mu);
    return entry.make(window, dims, params);
  }
  return Status::NotFound("unknown model '" + name + "'");
}

}  // namespace conformer::models
