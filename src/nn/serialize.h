// Module parameter streams: a module's named parameters in a simple binary
// format (magic, count, then per-parameter name + shape + float data). The
// training checkpoint embeds one as its CRC-protected "model" section (see
// train/checkpoint.h); that checkpoint is the only model file.

#ifndef CONFORMER_NN_SERIALIZE_H_
#define CONFORMER_NN_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "nn/module.h"
#include "util/status.h"

namespace conformer::nn {

/// Writes every named parameter of `module` to `out`.
Status SerializeModule(const Module& module, std::ostream& out);

/// Loads parameters by name into `module`, validating the stream after
/// every field. Fails on: truncation, negative or overflowing shape dims,
/// tensors larger than `byte_limit`, duplicate parameter names, names
/// missing from the module, shape mismatches, and files that leave any
/// module parameter unset. Nothing is written unless the whole stream
/// validates. `context` prefixes error messages (a path or section name).
Status DeserializeModule(Module* module, std::istream& in,
                         const std::string& context, uint64_t byte_limit);

}  // namespace conformer::nn

#endif  // CONFORMER_NN_SERIALIZE_H_
