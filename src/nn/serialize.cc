#include "nn/serialize.h"

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/binary_io.h"

namespace conformer::nn {

namespace {
constexpr uint32_t kMagic = 0xC04F04E8;  // "Conformer" checkpoint marker.
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxRank = 16;
}  // namespace

Status SerializeModule(const Module& module, std::ostream& out) {
  const auto named = module.NamedParameters();
  io::WriteU32(out, kMagic);
  io::WriteU64(out, named.size());
  for (const auto& [name, tensor] : named) {
    io::WriteString(out, name);
    io::WriteU64(out, tensor.shape().size());
    for (int64_t d : tensor.shape()) io::WriteI64(out, d);
    out.write(reinterpret_cast<const char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  if (!out) return Status::IOError("module serialization write failed");
  return Status::OK();
}

Status DeserializeModule(Module* module, std::istream& in,
                         const std::string& context, uint64_t byte_limit) {
  uint32_t magic = 0;
  Status st = io::ReadU32(in, &magic, context + ": magic");
  if (!st.ok() || magic != kMagic) {
    return Status::InvalidArgument("not a conformer checkpoint: " + context);
  }
  uint64_t count = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadU64(in, &count, context + ": count"));

  std::map<std::string, Tensor> by_name;
  for (auto& [name, tensor] : module->NamedParameters()) {
    by_name.emplace(name, tensor);
  }
  if (count > by_name.size()) {
    return Status::InvalidArgument(
        context + ": file claims " + std::to_string(count) +
        " parameters but the module has only " +
        std::to_string(by_name.size()));
  }

  // Every tensor is staged and the whole stream validated before any
  // parameter is written, so a rejected stream leaves the module unchanged.
  std::set<std::string> loaded;
  std::vector<std::pair<Tensor, Tensor>> staged;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    CONFORMER_RETURN_IF_ERROR(io::ReadString(
        in, &name, context + ": parameter name", kMaxNameLen));
    uint64_t rank = 0;
    CONFORMER_RETURN_IF_ERROR(
        io::ReadU64(in, &rank, context + ": rank of '" + name + "'"));
    if (rank > kMaxRank) {
      return Status::IOError(context + ": corrupt rank " +
                             std::to_string(rank) + " for '" + name + "'");
    }
    Shape shape(rank);
    int64_t numel = 1;
    for (uint64_t d = 0; d < rank; ++d) {
      CONFORMER_RETURN_IF_ERROR(
          io::ReadI64(in, &shape[d], context + ": shape of '" + name + "'"));
      if (shape[d] < 0) {
        return Status::IOError(context + ": negative dim " +
                               std::to_string(shape[d]) + " for '" + name +
                               "'");
      }
      if (shape[d] > 0 &&
          numel > std::numeric_limits<int64_t>::max() / shape[d]) {
        return Status::IOError(context + ": shape overflow for '" + name +
                               "': " + ShapeToString(shape));
      }
      numel *= shape[d];
    }
    const uint64_t bytes = static_cast<uint64_t>(numel) * sizeof(float);
    if (bytes > byte_limit) {
      return Status::IOError(context + ": tensor '" + name + "' claims " +
                             std::to_string(bytes) +
                             " bytes, beyond the stream's " +
                             std::to_string(byte_limit));
    }
    if (!loaded.insert(name).second) {
      return Status::InvalidArgument(context + ": duplicate parameter '" +
                                     name + "'");
    }
    std::vector<float> values(numel);
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) {
      return Status::IOError(context + ": truncated data for '" + name + "'");
    }

    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound(context + ": parameter '" + name +
                              "' not in module");
    }
    if (it->second.shape() != shape) {
      return Status::InvalidArgument(
          context + ": shape mismatch for '" + name + "': file " +
          ShapeToString(shape) + " vs module " +
          ShapeToString(it->second.shape()));
    }
    staged.emplace_back(it->second,
                        Tensor::FromVector(std::move(values), shape));
  }

  for (const auto& [name, tensor] : by_name) {
    (void)tensor;
    if (loaded.count(name) == 0) {
      return Status::InvalidArgument(
          context + ": file leaves module parameter '" + name + "' unset");
    }
  }
  for (auto& [param, values] : staged) param.CopyDataFrom(values);
  return Status::OK();
}

}  // namespace conformer::nn
