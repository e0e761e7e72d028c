#ifndef DNLR_COMMON_HASH_H_
#define DNLR_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnlr::common {

namespace hash_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// XXH64 reads its input as little-endian words; like common/binio.h, the
// code targets little-endian hosts only, where a word is one plain load.
static_assert(std::endian::native == std::endian::little,
              "common::Hash64 requires a little-endian target");

/// Unaligned loads through memcpy: no alignment or aliasing assumption.
inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace hash_internal

/// xxHash64 (XXH64) of `len` bytes at `data`, bit-exact with the reference
/// implementation for the same seed. Four independent lanes consume 32-byte
/// stripes, so the multiply chains overlap; the tail is folded in 8-, 4-
/// and 1-byte steps, then avalanched. Scalar C++ with no intrinsics: the
/// value is the same on every build and ISA. Not cryptographic. `data` may
/// be null only when `len` is 0.
inline uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  using namespace hash_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    const unsigned char* const last_stripe = end - 32;
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(len);

  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Read64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace dnlr::common

#endif  // DNLR_COMMON_HASH_H_
