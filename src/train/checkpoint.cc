#include "train/checkpoint.h"

#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "nn/serialize.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/string_util.h"

namespace conformer::train {

namespace {

constexpr uint32_t kCheckpointMagic = 0xC04FCC01;
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kMaxSections = 64;
constexpr uint64_t kMaxHistory = 1ull << 24;   // Per-epoch history entries.
constexpr uint64_t kMaxSnapshots = 1ull << 20;  // Best-snapshot buffers.
const char kManifestName[] = "MANIFEST";
const char kManifestHeader[] = "conformer-checkpoint-manifest v1";
// Type string that opens the "optimizer" section. Adam is the only
// optimizer; any other type is refused.
const char kOptimizerType[] = "adam";

std::string CheckpointFileName(int64_t global_step) {
  std::string digits = std::to_string(global_step);
  if (digits.size() < 12) digits.insert(0, 12 - digits.size(), '0');
  return "ckpt-" + digits + ".ckpt";
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

void SerializeTrainerSection(const TrainProgress& p, std::ostream& out) {
  io::WriteI64(out, p.epoch);
  io::WriteI64(out, p.step_in_epoch);
  io::WriteI64(out, p.global_step);
  io::WriteF64(out, p.loss_sum);
  io::WriteI64(out, p.finite_batches);
  io::WriteF64(out, p.best_val);
  io::WriteI64(out, p.bad_epochs);
  io::WriteI64(out, p.result.epochs_run);
  io::WriteF64(out, p.result.best_val_mse);
  io::WriteI64(out, p.result.early_stopped ? 1 : 0);
  io::WriteI64(out, p.result.nonfinite_steps);
  io::WriteU64(out, p.result.train_losses.size());
  for (double v : p.result.train_losses) io::WriteF64(out, v);
  io::WriteU64(out, p.result.val_mses.size());
  for (double v : p.result.val_mses) io::WriteF64(out, v);
  io::WriteU64(out, p.best_snapshot.size());
  for (const std::vector<float>& buf : p.best_snapshot) {
    io::WriteFloats(out, buf.data(), static_cast<int64_t>(buf.size()));
  }
}

Status ParseTrainerSection(const std::string& payload, TrainProgress* out) {
  std::istringstream in(payload, std::ios::binary);
  TrainProgress p;
  CONFORMER_RETURN_IF_ERROR(io::ReadI64(in, &p.epoch, "trainer epoch"));
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.step_in_epoch, "trainer step_in_epoch"));
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.global_step, "trainer global_step"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &p.loss_sum, "trainer loss_sum"));
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.finite_batches, "trainer finite_batches"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &p.best_val, "trainer best_val"));
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.bad_epochs, "trainer bad_epochs"));
  if (p.epoch < 0 || p.step_in_epoch < 0 || p.global_step < 0 ||
      p.finite_batches < 0 || p.bad_epochs < 0) {
    return Status::InvalidArgument("trainer section has a negative cursor");
  }
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.result.epochs_run, "result epochs_run"));
  CONFORMER_RETURN_IF_ERROR(
      io::ReadF64(in, &p.result.best_val_mse, "result best_val_mse"));
  int64_t early = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadI64(in, &early, "result early_stopped"));
  p.result.early_stopped = early != 0;
  CONFORMER_RETURN_IF_ERROR(
      io::ReadI64(in, &p.result.nonfinite_steps, "result nonfinite_steps"));
  uint64_t n = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadU64(in, &n, "train_losses count"));
  if (n > kMaxHistory) {
    return Status::IOError("implausible train_losses count " +
                           std::to_string(n));
  }
  p.result.train_losses.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    CONFORMER_RETURN_IF_ERROR(
        io::ReadF64(in, &p.result.train_losses[i], "train_losses entry"));
  }
  CONFORMER_RETURN_IF_ERROR(io::ReadU64(in, &n, "val_mses count"));
  if (n > kMaxHistory) {
    return Status::IOError("implausible val_mses count " + std::to_string(n));
  }
  p.result.val_mses.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    CONFORMER_RETURN_IF_ERROR(
        io::ReadF64(in, &p.result.val_mses[i], "val_mses entry"));
  }
  CONFORMER_RETURN_IF_ERROR(io::ReadU64(in, &n, "best_snapshot count"));
  if (n > kMaxSnapshots) {
    return Status::IOError("implausible best_snapshot count " +
                           std::to_string(n));
  }
  p.best_snapshot.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    CONFORMER_RETURN_IF_ERROR(io::ReadFloats(
        in, &p.best_snapshot[i], "best_snapshot buffer",
        payload.size() / sizeof(float)));
  }
  *out = std::move(p);
  return Status::OK();
}

/// Applies an "optimizer" section to `optimizer`; Adam::LoadState leaves
/// the optimizer unchanged when it fails.
Status LoadOptimizerSection(const std::string& payload, const std::string& path,
                            Adam* optimizer) {
  std::istringstream in(payload, std::ios::binary);
  std::string type;
  CONFORMER_RETURN_IF_ERROR(
      io::ReadString(in, &type, path + ": optimizer type", 256));
  if (type != kOptimizerType) {
    return Status::InvalidArgument(path + ": checkpoint holds '" + type +
                                   "' optimizer state; only '" +
                                   kOptimizerType + "' is supported");
  }
  return optimizer->LoadState(in);
}

/// Parses the section table of a checkpoint file, validating every CRC
/// before returning. `contents` is the whole file.
Status ParseSections(const std::string& contents, const std::string& path,
                     std::map<std::string, std::string>* sections) {
  std::istringstream in(contents, std::ios::binary);
  uint32_t magic = 0;
  Status st = io::ReadU32(in, &magic, path + ": magic");
  if (!st.ok() || magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a conformer training checkpoint: " +
                                   path);
  }
  uint32_t version = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadU32(in, &version, path + ": version"));
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(path + ": unsupported checkpoint version " +
                                   std::to_string(version));
  }
  uint32_t count = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadU32(in, &count, path + ": section count"));
  if (count == 0 || count > kMaxSections) {
    return Status::IOError(path + ": implausible section count " +
                           std::to_string(count));
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    CONFORMER_RETURN_IF_ERROR(
        io::ReadString(in, &name, path + ": section name", 256));
    uint64_t payload_len = 0;
    CONFORMER_RETURN_IF_ERROR(io::ReadU64(
        in, &payload_len, path + ": length of section '" + name + "'"));
    if (payload_len > contents.size()) {
      return Status::IOError(path + ": section '" + name + "' claims " +
                             std::to_string(payload_len) +
                             " bytes, beyond the file's " +
                             std::to_string(contents.size()));
    }
    uint32_t crc = 0;
    CONFORMER_RETURN_IF_ERROR(
        io::ReadU32(in, &crc, path + ": crc of section '" + name + "'"));
    std::string payload(payload_len, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(payload_len));
    if (!in) {
      return Status::IOError(path + ": truncated payload in section '" + name +
                             "'");
    }
    const uint32_t actual = io::Crc32(payload.data(), payload.size());
    if (actual != crc) {
      return Status::IOError(path + ": CRC mismatch in section '" + name +
                             "' (stored " + std::to_string(crc) +
                             ", computed " + std::to_string(actual) + ")");
    }
    if (!sections->emplace(name, std::move(payload)).second) {
      return Status::InvalidArgument(path + ": duplicate section '" + name +
                                     "'");
    }
  }
  return Status::OK();
}

// Reads only the "model" section of one checkpoint file into `model`,
// after every section's CRC validates.
Status LoadParamsFile(const std::string& path, nn::Module* model) {
  CONFORMER_PROFILE_SCOPE_CAT("checkpoint", "load_params");
  Result<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();

  std::map<std::string, std::string> sections;
  CONFORMER_RETURN_IF_ERROR(ParseSections(contents.value(), path, &sections));
  auto it = sections.find("model");
  if (it == sections.end()) {
    return Status::InvalidArgument(path + ": missing section 'model'");
  }
  std::istringstream in(it->second, std::ios::binary);
  return nn::DeserializeModule(model, in, path + ": model section",
                               it->second.size());
}

// The one MANIFEST walk: tries `dir`'s retained checkpoints newest-first
// with `load` and falls back to an older one when a newer fails
// validation. NotFound without a manifest or with an empty one; IOError
// when every retained checkpoint fails.
Status LoadNewestValid(const std::string& dir,
                       const std::function<Status(const std::string&)>& load) {
  Result<std::vector<std::string>> list =
      CheckpointManager(dir).ListCheckpoints();
  if (!list.ok()) return list.status();
  if (list.value().empty()) {
    return Status::NotFound("checkpoint manifest is empty in " + dir);
  }
  Status last_error = Status::OK();
  for (auto it = list.value().rbegin(); it != list.value().rend(); ++it) {
    const Status st = load(*it);
    if (st.ok()) {
      if (it != list.value().rbegin()) {
        CONFORMER_LOG(Warning)
            << "newest checkpoint failed validation ("
            << last_error.ToString() << "); fell back to " << *it;
      }
      return st;
    }
    last_error = st;
    CONFORMER_LOG(Warning) << "checkpoint " << *it
                           << " failed to load: " << st.ToString();
  }
  return Status::IOError("every retained checkpoint in " + dir +
                         " failed to load; last error: " +
                         last_error.message());
}

}  // namespace

Status LoadCheckpointFile(const std::string& path, nn::Module* model,
                          Adam* optimizer, TrainProgress* progress) {
  CONFORMER_PROFILE_SCOPE_CAT("checkpoint", "load");
  Result<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();

  std::map<std::string, std::string> sections;
  CONFORMER_RETURN_IF_ERROR(ParseSections(contents.value(), path, &sections));
  for (const char* required : {"model", "optimizer", "rng", "trainer"}) {
    if (sections.count(required) == 0) {
      return Status::InvalidArgument(path + ": missing section '" +
                                     std::string(required) + "'");
    }
  }

  // Stage the side-effect-free sections first so a parse failure leaves the
  // caller's state untouched.
  TrainProgress staged;
  CONFORMER_RETURN_IF_ERROR(ParseTrainerSection(sections["trainer"], &staged));
  staged.epoch_rng_state = sections["rng"];
  {
    Rng probe;  // Reject a corrupt RNG token stream before applying anything.
    CONFORMER_RETURN_IF_ERROR(probe.Deserialize(staged.epoch_rng_state));
  }

  // Validate every section before writing anything: the best snapshot's
  // geometry and the optimizer section (on a scratch Adam) against the
  // model's parameters, then the model section, which DeserializeModule
  // applies only once the whole stream validates.
  const std::vector<Tensor> params = model->Parameters();
  if (!staged.best_snapshot.empty()) {
    if (staged.best_snapshot.size() != params.size()) {
      return Status::InvalidArgument(
          path + ": best snapshot holds " +
          std::to_string(staged.best_snapshot.size()) +
          " buffers but the model has " + std::to_string(params.size()) +
          " parameters");
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (static_cast<int64_t>(staged.best_snapshot[i].size()) !=
          params[i].numel()) {
        return Status::InvalidArgument(
            path + ": best snapshot buffer " + std::to_string(i) +
            " size mismatch");
      }
    }
  }
  {
    Adam probe(params);
    CONFORMER_RETURN_IF_ERROR(
        LoadOptimizerSection(sections["optimizer"], path, &probe));
  }
  {
    std::istringstream in(sections["model"], std::ios::binary);
    CONFORMER_RETURN_IF_ERROR(nn::DeserializeModule(
        model, in, path + ": model section", sections["model"].size()));
  }
  CONFORMER_RETURN_IF_ERROR(
      LoadOptimizerSection(sections["optimizer"], path, optimizer));

  *progress = std::move(staged);
  return Status::OK();
}

Status LoadCheckpointParams(const std::string& path, nn::Module* model) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return LoadNewestValid(path, [model](const std::string& file) {
      return LoadParamsFile(file, model);
    });
  }
  return LoadParamsFile(path, model);
}

CheckpointManager::CheckpointManager(std::string dir, int64_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last < 1 ? 1 : keep_last) {}

Result<std::vector<std::string>> CheckpointManager::ListCheckpoints() const {
  const std::string manifest_path = JoinPath(dir_, kManifestName);
  if (!io::FileExists(manifest_path)) {
    return Status::NotFound("no checkpoint manifest in " + dir_);
  }
  Result<std::string> contents = io::ReadFileToString(manifest_path);
  if (!contents.ok()) return contents.status();
  std::vector<std::string> lines;
  for (const std::string& raw : Split(contents.value(), '\n')) {
    const std::string line = Strip(raw);
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty() || lines[0] != kManifestHeader) {
    return Status::IOError("corrupt checkpoint manifest: " + manifest_path);
  }
  std::vector<std::string> paths;
  for (size_t i = 1; i < lines.size(); ++i) {
    paths.push_back(JoinPath(dir_, lines[i]));
  }
  return paths;
}

Status CheckpointManager::Save(const nn::Module& model,
                               const Adam& optimizer,
                               const TrainProgress& progress) {
  CONFORMER_PROFILE_SCOPE_CAT("checkpoint", "save");
  const int64_t start_ns = prof::internal::NowNs();
  CONFORMER_RETURN_IF_ERROR(io::MakeDirs(dir_));

  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ostringstream out(std::ios::binary);
    CONFORMER_RETURN_IF_ERROR(nn::SerializeModule(model, out));
    sections.emplace_back("model", out.str());
  }
  {
    std::ostringstream out(std::ios::binary);
    io::WriteString(out, kOptimizerType);
    optimizer.SaveState(out);
    sections.emplace_back("optimizer", out.str());
  }
  sections.emplace_back("rng", progress.epoch_rng_state);
  {
    std::ostringstream out(std::ios::binary);
    SerializeTrainerSection(progress, out);
    sections.emplace_back("trainer", out.str());
  }

  std::ostringstream file(std::ios::binary);
  io::WriteU32(file, kCheckpointMagic);
  io::WriteU32(file, kCheckpointVersion);
  io::WriteU32(file, static_cast<uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    io::WriteString(file, name);
    io::WriteU64(file, payload.size());
    io::WriteU32(file, io::Crc32(payload.data(), payload.size()));
    file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }

  const std::string name = CheckpointFileName(progress.global_step);
  CONFORMER_RETURN_IF_ERROR(
      io::AtomicWriteFile(JoinPath(dir_, name), file.str()));

  // Fold the new file into the manifest and prune past the retention window.
  std::vector<std::string> entries;
  Result<std::vector<std::string>> existing = ListCheckpoints();
  if (existing.ok()) {
    for (const std::string& path : existing.value()) {
      const std::string base =
          path.substr(path.find_last_of('/') + 1);
      if (base != name) entries.push_back(base);
    }
  }
  entries.push_back(name);
  std::vector<std::string> pruned;
  while (static_cast<int64_t>(entries.size()) > keep_last_) {
    pruned.push_back(entries.front());
    entries.erase(entries.begin());
  }
  std::string manifest = std::string(kManifestHeader) + "\n";
  for (const std::string& entry : entries) manifest += entry + "\n";
  CONFORMER_RETURN_IF_ERROR(
      io::AtomicWriteFile(JoinPath(dir_, kManifestName), manifest));
  for (const std::string& old : pruned) {
    const Status st = io::RemoveFile(JoinPath(dir_, old));
    if (!st.ok()) {
      CONFORMER_LOG(Warning) << "failed to prune checkpoint: " << st.ToString();
    }
  }

  metrics::Registry& registry = metrics::Registry::Global();
  registry.GetCounter("train.checkpoint_writes").Increment();
  registry.GetHistogram("train.checkpoint_seconds")
      .Observe(static_cast<double>(prof::internal::NowNs() - start_ns) * 1e-9);
  return Status::OK();
}

Status CheckpointManager::RestoreLatest(nn::Module* model,
                                        Adam* optimizer,
                                        TrainProgress* progress) const {
  CONFORMER_PROFILE_SCOPE_CAT("checkpoint", "restore");
  return LoadNewestValid(dir_, [&](const std::string& path) {
    return LoadCheckpointFile(path, model, optimizer, progress);
  });
}

}  // namespace conformer::train
