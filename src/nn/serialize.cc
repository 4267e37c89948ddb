#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/binio.h"
#include "core/crc32.h"
#include "core/fileio.h"
#include "core/hash.h"

namespace kt {
namespace nn {
namespace {

constexpr char kMagicV2[4] = {'K', 'T', 'W', '2'};  // CRC-checksummed
constexpr char kMagicV1[4] = {'K', 'T', 'W', '1'};  // legacy, no checksum

// No module in this codebase goes near this depth; an on-disk rank beyond
// it means corruption, and bounding it keeps a hostile `rank` field from
// driving a multi-GB Shape allocation.
constexpr uint32_t kMaxRank = 16;

// Marks a metadata chunk at the start of the payload; can never collide
// with a real param_count.
constexpr uint64_t kMetaSentinel = 0xFFFFFFFFFFFFFFFFull;
constexpr uint32_t kMetaVersion = 2;
// A version-2 body is 60 bytes; anything near this bound is corruption.
constexpr uint32_t kMaxMetaBody = 4096;

void AppendMetaChunk(const ModelMeta& meta, std::string* out) {
  std::string body;
  AppendPod(&body, meta.encoder_kind);
  AppendPod(&body, meta.dim);
  AppendPod(&body, meta.num_layers);
  AppendPod(&body, meta.num_heads);
  AppendPod(&body, meta.num_questions);
  AppendPod(&body, meta.num_concepts);
  AppendPod(&body, meta.weights_fnv64);
  AppendPod(&body, meta.weight_version);
  AppendPod(out, kMetaSentinel);
  AppendPod(out, kMetaVersion);
  AppendPod(out, static_cast<uint32_t>(body.size()));
  *out += body;
}

// Detects and parses a metadata chunk at the head of `data`. On success
// `*consumed` is the chunk size to skip before the module state (0 when
// there is no chunk) and `*present` says whether `*meta` was filled — an
// unknown future version is skipped with *present=false.
Status ParseMetaChunk(const char* data, size_t size, bool* present,
                      ModelMeta* meta, size_t* consumed) {
  *present = false;
  *consumed = 0;
  BinCursor cursor(data, size);
  uint64_t sentinel = 0;
  if (size < sizeof(sentinel)) return Status::Ok();
  if (!cursor.Read(&sentinel) || sentinel != kMetaSentinel) {
    return Status::Ok();  // plain module-state payload
  }
  uint32_t version = 0;
  uint32_t body_len = 0;
  if (!cursor.Read(&version)) {
    return Status::IoError("truncated metadata version");
  }
  if (!cursor.Read(&body_len)) {
    return Status::IoError("truncated metadata length");
  }
  if (body_len > kMaxMetaBody) {
    return Status::InvalidArgument("implausible metadata length " +
                                   std::to_string(body_len));
  }
  if (cursor.remaining() < body_len) {
    return Status::IoError("truncated metadata body");
  }
  if (version == 1 || version == kMetaVersion) {
    BinCursor body(cursor.ptr(), body_len);
    if (!body.Read(&meta->encoder_kind) || !body.Read(&meta->dim) ||
        !body.Read(&meta->num_layers) || !body.Read(&meta->num_heads) ||
        !body.Read(&meta->num_questions) || !body.Read(&meta->num_concepts)) {
      return Status::InvalidArgument("malformed metadata body");
    }
    if (version >= 2 && (!body.Read(&meta->weights_fnv64) ||
                         !body.Read(&meta->weight_version))) {
      return Status::InvalidArgument("malformed v2 metadata body");
    }
    *present = true;
  }
  *consumed = sizeof(kMetaSentinel) + 2 * sizeof(uint32_t) + body_len;
  return Status::Ok();
}

}  // namespace

uint64_t FingerprintModule(const Module& module) {
  const auto params = module.Parameters();
  const auto names = module.ParameterNames();
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < params.size(); ++i) {
    h = Fnv1a(names[i], h);
    const Tensor& value = params[i].value();
    h = Fnv1a({reinterpret_cast<const char*>(value.data()),
               sizeof(float) * static_cast<size_t>(value.numel())},
              h);
  }
  return h;
}

void AppendModuleState(const Module& module, std::string* out) {
  const auto params = module.Parameters();
  const auto names = module.ParameterNames();
  KT_CHECK_EQ(params.size(), names.size());

  AppendPod(out, static_cast<uint64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& value = params[i].value();
    AppendPod(out, static_cast<uint32_t>(names[i].size()));
    AppendBytes(out, names[i].data(), names[i].size());
    AppendPod(out, static_cast<uint32_t>(value.dim()));
    for (int64_t d = 0; d < value.dim(); ++d) {
      AppendPod(out, static_cast<int64_t>(value.size(d)));
    }
    AppendBytes(out, value.data(), sizeof(float) * value.numel());
  }
}

Status ParseModuleState(const char* data, size_t size, Module& module) {
  auto params = module.Parameters();
  const auto names = module.ParameterNames();
  BinCursor cursor(data, size);

  uint64_t count = 0;
  if (!cursor.Read(&count)) return Status::IoError("truncated header");
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", module has " + std::to_string(params.size()));
  }

  // Stage everything first so a mid-buffer error leaves the module untouched.
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    uint32_t name_len = 0;
    if (!cursor.Read(&name_len)) return Status::IoError("truncated name len");
    // Validate against the expected name before allocating anything: a
    // corrupt length field must not drive a huge allocation.
    if (name_len != names[i].size()) {
      return Status::InvalidArgument(
          "parameter name length mismatch at index " + std::to_string(i) +
          ": file says " + std::to_string(name_len) + ", module expects " +
          std::to_string(names[i].size()) + " ('" + names[i] + "')");
    }
    std::string name;
    if (!cursor.ReadString(&name, name_len)) {
      return Status::IoError("truncated name");
    }
    if (name != names[i]) {
      return Status::InvalidArgument("parameter name mismatch at index " +
                                     std::to_string(i) + ": file '" + name +
                                     "' vs module '" + names[i] + "'");
    }
    uint32_t rank = 0;
    if (!cursor.Read(&rank)) return Status::IoError("truncated rank");
    if (rank > kMaxRank) {
      return Status::InvalidArgument(
          "implausible rank " + std::to_string(rank) + " for '" + name +
          "' (max " + std::to_string(kMaxRank) + ")");
    }
    const Shape& expected = params[i].value().shape();
    if (rank != expected.size()) {
      return Status::InvalidArgument(
          "rank mismatch for '" + name + "': file " + std::to_string(rank) +
          " vs module " + std::to_string(expected.size()));
    }
    Shape shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      if (!cursor.Read(&shape[d])) return Status::IoError("truncated shape");
    }
    if (shape != expected) {
      return Status::InvalidArgument(
          "shape mismatch for '" + name + "': file " + ShapeToString(shape) +
          " vs module " + ShapeToString(expected));
    }
    // Shape equals the module's, so the allocation size is trusted.
    Tensor value(shape);
    if (!cursor.ReadBytes(value.data(), sizeof(float) * value.numel())) {
      return Status::IoError("truncated data for '" + name + "'");
    }
    staged.push_back(std::move(value));
  }

  if (!cursor.done()) {
    return Status::InvalidArgument(
        std::to_string(cursor.remaining()) +
        " trailing bytes after the last parameter");
  }

  module.SetState(staged);
  return Status::Ok();
}

Status SaveModule(const Module& module, const std::string& path) {
  std::string file(kMagicV2, sizeof(kMagicV2));
  std::string payload;
  AppendModuleState(module, &payload);
  AppendPod(&file, Crc32(payload.data(), payload.size()));
  file += payload;
  return AtomicWriteFile(path, file);
}

Status SaveModuleWithMeta(const Module& module, const ModelMeta& meta,
                          const std::string& path) {
  std::string file(kMagicV2, sizeof(kMagicV2));
  std::string payload;
  AppendMetaChunk(meta, &payload);
  AppendModuleState(module, &payload);
  AppendPod(&file, Crc32(payload.data(), payload.size()));
  file += payload;
  return AtomicWriteFile(path, file);
}

namespace {

// Shared front half of LoadModule / ReadModuleMeta: validates magic (and
// the CRC for KTW2), then points *payload at the checksummed body.
Status OpenPayload(const std::string& file, const std::string& path,
                   const char** payload, size_t* payload_size) {
  if (file.size() < sizeof(kMagicV2)) {
    return Status::InvalidArgument("file too short for magic in " + path);
  }
  if (std::memcmp(file.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    constexpr size_t kHeader = sizeof(kMagicV2) + sizeof(uint32_t);
    if (file.size() < kHeader) {
      return Status::InvalidArgument("truncated checksum in " + path);
    }
    uint32_t expected_crc = 0;
    std::memcpy(&expected_crc, file.data() + sizeof(kMagicV2),
                sizeof(expected_crc));
    const uint32_t actual_crc =
        Crc32(file.data() + kHeader, file.size() - kHeader);
    if (actual_crc != expected_crc) {
      return Status::InvalidArgument("checksum mismatch in " + path +
                                     " (file is corrupt)");
    }
    *payload = file.data() + kHeader;
    *payload_size = file.size() - kHeader;
    return Status::Ok();
  }
  if (std::memcmp(file.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    *payload = file.data() + sizeof(kMagicV1);
    *payload_size = file.size() - sizeof(kMagicV1);
    return Status::Ok();
  }
  return Status::InvalidArgument("bad magic in " + path);
}

}  // namespace

Status LoadModule(Module& module, const std::string& path) {
  std::string file;
  if (Status status = ReadFileToString(path, &file); !status.ok()) {
    return status;
  }
  const char* payload = nullptr;
  size_t payload_size = 0;
  if (Status status = OpenPayload(file, path, &payload, &payload_size);
      !status.ok()) {
    return status;
  }
  // KTW1 never carries metadata, but probing is harmless there: a legacy
  // payload starts with a plausible param count, not the sentinel.
  bool meta_present = false;
  ModelMeta meta;
  size_t meta_bytes = 0;
  if (Status status = ParseMetaChunk(payload, payload_size, &meta_present,
                                     &meta, &meta_bytes);
      !status.ok()) {
    return status;
  }
  return ParseModuleState(payload + meta_bytes, payload_size - meta_bytes,
                          module);
}

Status ReadModuleMeta(const std::string& path, bool* present,
                      ModelMeta* meta) {
  *present = false;
  std::string file;
  if (Status status = ReadFileToString(path, &file); !status.ok()) {
    return status;
  }
  const char* payload = nullptr;
  size_t payload_size = 0;
  if (Status status = OpenPayload(file, path, &payload, &payload_size);
      !status.ok()) {
    return status;
  }
  size_t meta_bytes = 0;
  return ParseMetaChunk(payload, payload_size, present, meta, &meta_bytes);
}

}  // namespace nn
}  // namespace kt
