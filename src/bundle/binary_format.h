#ifndef DNLR_BUNDLE_BINARY_FORMAT_H_
#define DNLR_BUNDLE_BINARY_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bundle/bundle.h"
#include "common/status.h"

namespace dnlr::bundle {

/// dnlrbundle v2: the binary, little-endian, section-aligned container a
/// serving process `mmap`s and scores from directly. The v1 text container
/// (bundle.h) stays the portable interchange; v2 is the deployment format.
///
/// On-disk layout (all integers little-endian; kSimdAlignment = 64):
///
///   [ 0, 12)  magic "dnlrbundle2" (NUL-padded)
///   [12, 16)  u32 format version (2)
///   [16, 20)  u32 section count
///   [20, 24)  u32 section-table offset (64)
///   [24, 32)  u64 payload offset   = align64(64 + 48 * count)
///   [32, 40)  u64 total file bytes
///   [40, 44)  u32 CRC32 of the section table
///   [44, 60)  reserved, zero
///   [60, 64)  u32 CRC32 of header bytes [0, 60)
///
///   section table: `count` entries of 48 bytes each:
///   [ 0, 24)  section name, NUL-padded (canonical order, unique)
///   [24, 32)  u64 payload offset (absolute, multiple of 64)
///   [32, 40)  u64 payload bytes
///   [40, 44)  u32 CRC32 of the payload
///   [44, 48)  reserved, zero
///
///   payloads: concatenated in table order, each starting on a 64-byte
///   boundary (zero padding between), the last one ending exactly at
///   `total file bytes`.
///
/// Validation is split by cost: ParseBinaryLayout is the cheap map-time
/// check (magic, version, header/table CRCs over ~few hundred bytes, and
/// full structural validation of every offset/size — overflow-safe, so a
/// forged 2^64-1 size cannot wrap past the bounds check). Payload CRCs
/// cover megabytes and are verified once at pack time plus on demand
/// (`bundle verify`, MappedBundle::VerifyPayloadCrcs), never per map.
inline constexpr std::string_view kBinaryMagic = "dnlrbundle2";
inline constexpr uint32_t kBinaryFormatVersion = 2;
inline constexpr size_t kBinaryMagicBytes = 12;
inline constexpr size_t kBinaryHeaderBytes = 64;
inline constexpr size_t kBinarySectionEntryBytes = 48;
inline constexpr size_t kBinarySectionNameBytes = 24;
inline constexpr size_t kBinaryMaxSections = 16;

/// True when `bytes` begins with the v2 binary magic (format sniffing; a v1
/// text bundle starts with "dnlrbundle " instead).
bool IsBinaryBundle(std::string_view bytes);

/// Cheap map-time validation: parses and fully validates the header and
/// section table of `bytes` WITHOUT touching payload bytes. Every
/// corruption mode (bad magic, unsupported version, header/table CRC
/// mismatch, length mismatch, misaligned / overlapping / out-of-order /
/// duplicate / unknown sections, overflow-forged sizes, truncation,
/// trailing bytes) yields a distinct ParseError.
Result<std::vector<SectionRange>> ParseBinaryLayout(
    std::string_view bytes);

/// Serializes `sections` (already canonically ordered, as ModelBundle
/// maintains) into a v2 binary container, computing all CRCs. The inverse
/// of ParseBinaryLayout + payload slicing.
std::string BuildBinaryBundle(const std::vector<Section>& sections);

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_BINARY_FORMAT_H_
