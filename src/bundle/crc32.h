#ifndef DNLR_BUNDLE_CRC32_H_
#define DNLR_BUNDLE_CRC32_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace dnlr::bundle {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320), computed with a
/// table-driven byte-at-a-time loop. Crc32("123456789") == 0xCBF43926.
/// Checksums every bundle section so bit rot, torn writes and truncation
/// are detected at load time instead of surfacing as garbage models.
uint32_t Crc32(std::string_view data);

/// Incremental form: feed `crc` the previous return value (start with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// The eight lowercase hex digits a text bundle header stores a CRC as.
std::string Crc32Hex(uint32_t crc);

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_CRC32_H_
