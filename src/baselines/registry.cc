#include "baselines/registry.h"

#include <mutex>
#include <string>

#include "baselines/gru_forecaster.h"
#include "baselines/linear_forecaster.h"
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
  /// Shortest input window the architecture accepts: LSTNet's valid
  /// kernel-6 convolution needs 7 steps; TimesNet-lite a non-DC frequency
  /// bin, Autoformer one AutoCorrelation lag and Informer one distilling
  /// pool window need 2.
  int64_t min_input_len = 1;
  /// Shortest decoder window (label_len + pred_len): Autoformer's decoder
  /// AutoCorrelation also needs one lag.
  int64_t min_decoder_len = 1;
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
    {"autoformer", MakeTransformer<AutoformerConfig>, 2, 2},
    {"informer", MakeTransformer<InformerConfig>, 2},
    {"reformer", MakeTransformer<ReformerConfig>},
    {"logtrans", MakeTransformer<LogTransConfig>},
    {"gru",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<GruForecaster>(window, dims, p.hidden);
     }},
    {"lstnet",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<LstNet>(window, dims, p.hidden, /*kernel=*/6,
                                       p.hidden, p.dropout);
     },
     7},
    {"nbeats",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<NBeats>(window, dims, /*blocks=*/3,
                                       2 * p.hidden);
     }},
    {"ts2vec",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<Ts2Vec>(window, dims, p.hidden);
     }},
    {"timesnet",
     [](const Window& window, int64_t dims, const Params& p) -> Model {
       return std::make_unique<TimesNetLite>(window, dims, p.d_model,
                                             /*top_k=*/3);
     },
     2},
    {"linear",
     [](const Window& window, int64_t dims, const Params&) -> Model {
       return std::make_unique<LinearForecaster>(window, dims);
     }},
    {"naive",
     [](const Window& window, int64_t dims, const Params&) -> Model {
       return std::make_unique<NaiveForecaster>(window, dims);
     }},
};

/// Rejects every window, width and hyperparameter value that would reach a
/// CHECK in a model constructor or in Predict. The hyperparameter rules hold
/// for every model, whether or not it reads the knob, so one config is
/// valid or invalid fleet-wide.
Status ValidateConfig(const Entry& entry, const Window& window, int64_t dims,
                      const Params& p) {
  auto invalid = [&](const std::string& why) {
    return Status::InvalidArgument(std::string(entry.name) + ": " + why);
  };
  if (dims <= 0) return invalid("dims must be positive");
  if (window.input_len < entry.min_input_len) {
    return invalid("input_len must be at least " +
                   std::to_string(entry.min_input_len));
  }
  if (window.pred_len <= 0) return invalid("pred_len must be positive");
  if (window.label_len < 0 || window.label_len > window.input_len) {
    return invalid("label_len must be in [0, input_len]");
  }
  // label_len >= 0 here, so the subtraction cannot overflow.
  if (window.pred_len < entry.min_decoder_len - window.label_len) {
    return invalid("label_len + pred_len must be at least " +
                   std::to_string(entry.min_decoder_len));
  }
  if (p.d_model <= 0 || p.n_heads <= 0 || p.hidden <= 0) {
    return invalid("d_model, n_heads and hidden must be positive");
  }
  if (p.d_model % p.n_heads != 0) {
    return invalid("d_model must be divisible by n_heads");
  }
  if (p.ma_kernel < 1) return invalid("ma_kernel must be at least 1");
  if (!(p.dropout >= 0.0f && p.dropout < 1.0f)) {
    return invalid("dropout must be in [0, 1)");
  }
  return Status::OK();
}

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
    if (Status status = ValidateConfig(entry, window, dims, params);
        !status.ok()) {
      return status;
    }
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
