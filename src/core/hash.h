// FNV-1a 64, the one non-cryptographic digest behind shard routing,
// cold-tier file names, model fingerprints, the reservoir's sample keys
// and the loadgen traffic/prediction/recourse digests. Every one of those
// values is persisted or compared across builds, so the byte order is
// fixed: strings hash their bytes in order, and integers hash their eight
// bytes least significant first, whatever the host's endianness.
//
// The digests start from kFnvOffset = 1469598103934665603, not from the
// FNV offset basis 14695981039346656037 (0xcbf29ce484222325): the decimal
// lost its last digit when the first copy was written, and every stored
// shard assignment, cold-tier file name and fingerprint depends on it.
// Pass the basis as `h` for textbook FNV-1a.
#ifndef KT_CORE_HASH_H_
#define KT_CORE_HASH_H_

#include <cstdint>
#include <string_view>

namespace kt {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Folds `bytes` into `h` (kFnvOffset starts a fresh digest).
inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Folds the eight bytes of `v` into `h`, least significant byte first.
inline uint64_t FnvMixU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace kt

#endif  // KT_CORE_HASH_H_
