#ifndef DNLR_COMMON_HASH_H_
#define DNLR_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dnlr::common {

namespace hash_internal {

inline constexpr uint64_t kPrime32_1 = 0x9E3779B1u;
inline constexpr uint64_t kPrime32_2 = 0x85EBCA77u;
inline constexpr uint64_t kPrime32_3 = 0xC2B2AE3Du;
inline constexpr uint64_t kPrime64_1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kPrime64_2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kPrime64_3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kPrime64_4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kPrime64_5 = 0x27D4EB2F165667C5ull;
inline constexpr uint64_t kPrimeMx1 = 0x165667919E3779F9ull;
inline constexpr uint64_t kPrimeMx2 = 0x9FB21C651E98DF25ull;

/// XXH3's default 192-byte secret. For inputs past kMidSizeMax a non-zero
/// seed derives a per-call secret from it (see Xxh3).
inline constexpr size_t kSecretSize = 192;
alignas(64) inline constexpr unsigned char kSecret[kSecretSize] = {
    0xb8, 0xfe, 0x6c, 0x39, 0x23, 0xa4, 0x4b, 0xbe, 0x7c, 0x01, 0x81, 0x2c,
    0xf7, 0x21, 0xad, 0x1c, 0xde, 0xd4, 0x6d, 0xe9, 0x83, 0x90, 0x97, 0xdb,
    0x72, 0x40, 0xa4, 0xa4, 0xb7, 0xb3, 0x67, 0x1f, 0xcb, 0x79, 0xe6, 0x4e,
    0xcc, 0xc0, 0xe5, 0x78, 0x82, 0x5a, 0xd0, 0x7d, 0xcc, 0xff, 0x72, 0x21,
    0xb8, 0x08, 0x46, 0x74, 0xf7, 0x43, 0x24, 0x8e, 0xe0, 0x35, 0x90, 0xe6,
    0x81, 0x3a, 0x26, 0x4c, 0x3c, 0x28, 0x52, 0xbb, 0x91, 0xc3, 0x00, 0xcb,
    0x88, 0xd0, 0x65, 0x8b, 0x1b, 0x53, 0x2e, 0xa3, 0x71, 0x64, 0x48, 0x97,
    0xa2, 0x0d, 0xf9, 0x4e, 0x38, 0x19, 0xef, 0x46, 0xa9, 0xde, 0xac, 0xd8,
    0xa8, 0xfa, 0x76, 0x3f, 0xe3, 0x9c, 0x34, 0x3f, 0xf9, 0xdc, 0xbb, 0xc7,
    0xc7, 0x0b, 0x4f, 0x1d, 0x8a, 0x51, 0xe0, 0x4b, 0xcd, 0xb4, 0x59, 0x31,
    0xc8, 0x9f, 0x7e, 0xc9, 0xd9, 0x78, 0x73, 0x64, 0xea, 0xc5, 0xac, 0x83,
    0x34, 0xd3, 0xeb, 0xc3, 0xc5, 0x81, 0xa0, 0xff, 0xfa, 0x13, 0x63, 0xeb,
    0x17, 0x0d, 0xdd, 0x51, 0xb7, 0xf0, 0xda, 0x49, 0xd3, 0x16, 0x55, 0x26,
    0x29, 0xd4, 0x68, 0x9e, 0x2b, 0x16, 0xbe, 0x58, 0x7d, 0x47, 0xa1, 0xfc,
    0x8f, 0xf8, 0xb8, 0xd1, 0x7a, 0xd0, 0x31, 0xce, 0x45, 0xcb, 0x3a, 0x8f,
    0x95, 0x16, 0x04, 0x28, 0xaf, 0xd7, 0xfb, 0xca, 0xbb, 0x4b, 0x40, 0x7e,
};

inline constexpr size_t kMidSizeMax = 240;
inline constexpr size_t kStripeLen = 64;
/// Each stripe of a block reads the secret 8 bytes further on, so a block
/// is (192 - 64) / 8 = 16 stripes, 1 KB, followed by one scramble.
inline constexpr size_t kStripesPerBlock = (kSecretSize - kStripeLen) / 8;
inline constexpr size_t kBlockLen = kStripeLen * kStripesPerBlock;

// XXH3 reads its input as little-endian words; like common/binio.h, the
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

/// Low and high halves of the 128-bit product, xor-folded.
inline uint64_t Mul128Fold64(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

inline uint64_t XorShift(uint64_t v, int shift) { return v ^ (v >> shift); }

inline uint64_t Avalanche(uint64_t h) {
  h = XorShift(h, 37) * kPrimeMx1;
  return XorShift(h, 32);
}

/// XXH64's final mix, which XXH3 reuses for inputs of 0 to 3 bytes.
inline uint64_t Xxh64Avalanche(uint64_t h) {
  h = XorShift(h, 33) * kPrime64_2;
  h = XorShift(h, 29) * kPrime64_3;
  return XorShift(h, 32);
}

inline uint64_t RrMxMx(uint64_t h, uint64_t len) {
  h ^= std::rotl(h, 49) ^ std::rotl(h, 24);
  h *= kPrimeMx2;
  h ^= (h >> 35) + len;
  h *= kPrimeMx2;
  return XorShift(h, 28);
}

inline uint64_t Mix16(const unsigned char* p, const unsigned char* secret,
                      uint64_t seed) {
  return Mul128Fold64(Read64(p) ^ (Read64(secret) + seed),
                      Read64(p + 8) ^ (Read64(secret + 8) - seed));
}

inline uint64_t Hash0To16(const unsigned char* p, size_t len, uint64_t seed) {
  const unsigned char* const s = kSecret;
  if (len > 8) {
    const uint64_t lo = Read64(p) ^ ((Read64(s + 24) ^ Read64(s + 32)) + seed);
    const uint64_t hi =
        Read64(p + len - 8) ^ ((Read64(s + 40) ^ Read64(s + 48)) - seed);
    return Avalanche(len + __builtin_bswap64(lo) + hi + Mul128Fold64(lo, hi));
  }
  if (len >= 4) {
    const uint32_t seed32 = static_cast<uint32_t>(seed);
    seed ^= static_cast<uint64_t>(__builtin_bswap32(seed32)) << 32;
    const uint64_t input =
        Read32(p + len - 4) + (static_cast<uint64_t>(Read32(p)) << 32);
    return RrMxMx(input ^ ((Read64(s + 8) ^ Read64(s + 16)) - seed), len);
  }
  if (len > 0) {
    const uint32_t combined = (uint32_t{p[0]} << 16) |
                              (uint32_t{p[len >> 1]} << 24) |
                              uint32_t{p[len - 1]} |
                              (static_cast<uint32_t>(len) << 8);
    return Xxh64Avalanche(combined ^
                          ((uint64_t{Read32(s)} ^ Read32(s + 4)) + seed));
  }
  return Xxh64Avalanche(seed ^ Read64(s + 56) ^ Read64(s + 64));
}

inline uint64_t Hash17To128(const unsigned char* p, size_t len,
                            uint64_t seed) {
  const unsigned char* const s = kSecret;
  uint64_t acc = len * kPrime64_1;
  if (len > 32) {
    if (len > 64) {
      if (len > 96) {
        acc += Mix16(p + 48, s + 96, seed);
        acc += Mix16(p + len - 64, s + 112, seed);
      }
      acc += Mix16(p + 32, s + 64, seed);
      acc += Mix16(p + len - 48, s + 80, seed);
    }
    acc += Mix16(p + 16, s + 32, seed);
    acc += Mix16(p + len - 32, s + 48, seed);
  }
  acc += Mix16(p, s, seed);
  acc += Mix16(p + len - 16, s + 16, seed);
  return Avalanche(acc);
}

inline uint64_t Hash129To240(const unsigned char* p, size_t len,
                             uint64_t seed) {
  const unsigned char* const s = kSecret;
  uint64_t acc = len * kPrime64_1;
  for (size_t i = 0; i < 8; ++i) acc += Mix16(p + 16 * i, s + 16 * i, seed);
  acc = Avalanche(acc);
  // Rounds 8.. reuse the secret from byte 3 on; the last 16 input bytes
  // take the 16 secret bytes that end 1 byte short of the 136-byte minimum.
  for (size_t i = 8; i < len / 16; ++i) {
    acc += Mix16(p + 16 * i, s + 16 * (i - 8) + 3, seed);
  }
  acc += Mix16(p + len - 16, s + 136 - 17, seed);
  return Avalanche(acc);
}

// The stripe accumulators. Each holds XXH3's eight 64-bit lanes and
// implements the same two steps:
//   Accumulate: for lane i of a 64-byte stripe, with key = data ^ secret,
//               acc[i] += lo32(key) * hi32(key) + data[i ^ 1].
//   Scramble:   acc[i] = (acc[i] ^ (acc[i] >> 47) ^ secret[i]) * kPrime32_1.
// Both are exact integer arithmetic mod 2^64, so every body computes the
// same lanes bit for bit; the SIMD ones only do eight of them at once.
// Loads are unaligned (the input is a caller's pointer, the secret is read
// at 8-byte steps).

/// Plain C++, compiled on every build; the reference the others are
/// pinned to.
class ScalarAccumulator {
 public:
  explicit ScalarAccumulator(const uint64_t* init) {
    std::memcpy(acc_, init, sizeof(acc_));
  }
  void Accumulate(const unsigned char* p, const unsigned char* secret) {
    for (size_t i = 0; i < 8; ++i) {
      const uint64_t data = Read64(p + 8 * i);
      const uint64_t key = data ^ Read64(secret + 8 * i);
      acc_[i ^ 1] += data;
      acc_[i] += (key & 0xFFFFFFFFu) * (key >> 32);
    }
  }
  void Scramble(const unsigned char* secret) {
    for (size_t i = 0; i < 8; ++i) {
      acc_[i] = (XorShift(acc_[i], 47) ^ Read64(secret + 8 * i)) * kPrime32_1;
    }
  }
  void Store(uint64_t* out) const { std::memcpy(out, acc_, sizeof(acc_)); }

 private:
  uint64_t acc_[8];
};

#if defined(__AVX2__)
/// Two 256-bit registers of four lanes each.
class Avx2Accumulator {
 public:
  explicit Avx2Accumulator(const uint64_t* init)
      : acc_{Load(init), Load(init + 4)} {}
  void Accumulate(const unsigned char* p, const unsigned char* secret) {
    for (int h = 0; h < 2; ++h) {
      const __m256i data = Load(p + 32 * h);
      const __m256i key = _mm256_xor_si256(data, Load(secret + 32 * h));
      // lo32(key) * hi32(key) per lane; MULUDQ reads each lane's low half.
      const __m256i product =
          _mm256_mul_epu32(key, _mm256_srli_epi64(key, 32));
      // data[i ^ 1]: swap the two 64-bit lanes of each 128-bit half.
      const __m256i swapped =
          _mm256_shuffle_epi32(data, _MM_SHUFFLE(1, 0, 3, 2));
      acc_[h] = _mm256_add_epi64(acc_[h], _mm256_add_epi64(product, swapped));
    }
  }
  void Scramble(const unsigned char* secret) {
    const __m256i prime = _mm256_set1_epi32(static_cast<int>(kPrime32_1));
    for (int h = 0; h < 2; ++h) {
      const __m256i mixed = _mm256_xor_si256(
          _mm256_xor_si256(acc_[h], _mm256_srli_epi64(acc_[h], 47)),
          Load(secret + 32 * h));
      // x * kPrime32_1 mod 2^64 = lo32(x) * P + ((hi32(x) * P) << 32).
      const __m256i lo = _mm256_mul_epu32(mixed, prime);
      const __m256i hi =
          _mm256_mul_epu32(_mm256_srli_epi64(mixed, 32), prime);
      acc_[h] = _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
    }
  }
  void Store(uint64_t* out) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc_[0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), acc_[1]);
  }

 private:
  static __m256i Load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  __m256i acc_[2];
};
#endif

#if defined(__AVX512F__)
/// All eight lanes in one 512-bit register.
class Avx512Accumulator {
 public:
  explicit Avx512Accumulator(const uint64_t* init)
      : acc_(_mm512_loadu_si512(init)) {}
  void Accumulate(const unsigned char* p, const unsigned char* secret) {
    const __m512i data = _mm512_loadu_si512(p);
    const __m512i key = _mm512_xor_si512(data, _mm512_loadu_si512(secret));
    const __m512i product = MulLo32(key, ShiftRight(key, 32));
    // _MM_PERM_BADC is _MM_SHUFFLE(1, 0, 3, 2): data[i ^ 1].
    const __m512i swapped =
        _mm512_mask_shuffle_epi32(data, kAll16, data, _MM_PERM_BADC);
    acc_ = _mm512_add_epi64(acc_, _mm512_add_epi64(product, swapped));
  }
  void Scramble(const unsigned char* secret) {
    const __m512i prime = _mm512_set1_epi32(static_cast<int>(kPrime32_1));
    const __m512i mixed =
        _mm512_xor_si512(_mm512_xor_si512(acc_, ShiftRight(acc_, 47)),
                         _mm512_loadu_si512(secret));
    const __m512i lo = MulLo32(mixed, prime);
    const __m512i hi = MulLo32(ShiftRight(mixed, 32), prime);
    acc_ = _mm512_add_epi64(lo, _mm512_mask_slli_epi64(hi, kAll8, hi, 32));
  }
  void Store(uint64_t* out) const { _mm512_storeu_si512(out, acc_); }

 private:
  // The all-lanes masked forms compile to the same instructions as the
  // unmasked ones, whose GCC 12 headers pass _mm512_undefined_epi32()
  // through and raise a spurious -Wmaybe-uninitialized once inlined.
  static constexpr __mmask8 kAll8 = 0xFF;
  static constexpr __mmask16 kAll16 = 0xFFFF;
  static __m512i ShiftRight(__m512i x, unsigned n) {
    return _mm512_mask_srli_epi64(x, kAll8, x, n);
  }
  static __m512i MulLo32(__m512i a, __m512i b) {
    return _mm512_mask_mul_epu32(a, kAll8, a, b);
  }
  __m512i acc_;
};
#endif

/// The body this build compiles for Hash64, chosen by the build's ISA the
/// way mm/gemm.h picks its micro-kernel. No runtime dispatch: an AVX-512
/// build runs the AVX-512 body, an x86-64-v3 build the AVX2 one.
#if defined(__AVX512F__)
using NativeAccumulator = Avx512Accumulator;
#elif defined(__AVX2__)
using NativeAccumulator = Avx2Accumulator;
#else
using NativeAccumulator = ScalarAccumulator;
#endif

/// Inputs past kMidSizeMax: 1 KB blocks of 16 stripes, a scramble after
/// each full block, the leftover stripes, then the input's last 64 bytes
/// (which may overlap the stripes before them), merged to 64 bits.
template <class Accumulator>
uint64_t HashLong(const unsigned char* p, size_t len,
                  const unsigned char* secret) {
  alignas(64) uint64_t acc[8] = {kPrime32_3, kPrime64_1, kPrime64_2,
                                 kPrime64_3, kPrime64_4, kPrime32_2,
                                 kPrime64_5, kPrime32_1};
  Accumulator lanes(acc);
  const size_t blocks = (len - 1) / kBlockLen;
  for (size_t b = 0; b < blocks; ++b) {
    const unsigned char* const block = p + b * kBlockLen;
    for (size_t s = 0; s < kStripesPerBlock; ++s) {
      lanes.Accumulate(block + s * kStripeLen, secret + s * 8);
    }
    lanes.Scramble(secret + kSecretSize - kStripeLen);
  }
  const unsigned char* const tail = p + blocks * kBlockLen;
  const size_t stripes = (len - 1 - blocks * kBlockLen) / kStripeLen;
  for (size_t s = 0; s < stripes; ++s) {
    lanes.Accumulate(tail + s * kStripeLen, secret + s * 8);
  }
  // The last stripe's key ends 7 bytes short of the scramble's; the merge
  // keys start at secret byte 11. Both offsets are the reference's.
  lanes.Accumulate(p + len - kStripeLen,
                   secret + kSecretSize - kStripeLen - 7);
  lanes.Store(acc);

  uint64_t h = len * kPrime64_1;
  for (size_t i = 0; i < 4; ++i) {
    const unsigned char* const key = secret + 11 + 16 * i;
    h += Mul128Fold64(acc[2 * i] ^ Read64(key),
                      acc[2 * i + 1] ^ Read64(key + 8));
  }
  return Avalanche(h);
}

/// XXH3_64bits_withSeed with the long-input stripes run by `Accumulator`.
/// Hash64 is Xxh3<NativeAccumulator>; tests instantiate it with
/// ScalarAccumulator to pin the SIMD body to the scalar one.
template <class Accumulator>
uint64_t Xxh3(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (len <= 16) return Hash0To16(p, len, seed);
  if (len <= 128) return Hash17To128(p, len, seed);
  if (len <= kMidSizeMax) return Hash129To240(p, len, seed);
  if (seed == 0) return HashLong<Accumulator>(p, len, kSecret);
  // A seeded long hash runs over the default secret with the seed added to
  // every even 64-bit word and subtracted from every odd one.
  alignas(64) unsigned char secret[kSecretSize];
  for (size_t i = 0; i < kSecretSize; i += 16) {
    const uint64_t lo = Read64(kSecret + i) + seed;
    const uint64_t hi = Read64(kSecret + i + 8) - seed;
    std::memcpy(secret + i, &lo, sizeof(lo));
    std::memcpy(secret + i + 8, &hi, sizeof(hi));
  }
  return HashLong<Accumulator>(p, len, secret);
}

}  // namespace hash_internal

/// XXH3-64 (XXH3_64bits_withSeed of xxHash 0.8) of `len` bytes at `data`,
/// bit-exact with the reference implementation for the same seed. Inputs
/// up to 240 bytes take XXH3's scalar short paths. Longer ones run 64-byte
/// stripes through eight 64-bit lanes, each stripe costing one 32x32->64
/// multiply per lane and no dependency between lanes, with a scramble
/// every 1 KB; the lanes run in one AVX-512 register, two AVX2 registers or
/// plain C++ as the build's ISA allows. The value is the same on every
/// build and ISA. Not cryptographic. `data` may be null only when `len` is
/// 0.
inline uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  return hash_internal::Xxh3<hash_internal::NativeAccumulator>(data, len,
                                                               seed);
}

}  // namespace dnlr::common

#endif  // DNLR_COMMON_HASH_H_
