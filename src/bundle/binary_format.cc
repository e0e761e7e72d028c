#include "bundle/binary_format.h"

#include <cstring>

#include "bundle/crc32.h"
#include "common/aligned.h"
#include "common/binio.h"

namespace dnlr::bundle {
namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// Reads the NUL-padded name field of a section-table entry. Requires at
/// least one terminator and zero padding after it, so a tampered name field
/// cannot smuggle bytes past the validator.
bool ReadSectionName(std::string_view field, std::string* out) {
  const size_t len = field.find('\0');
  if (len == std::string_view::npos || len == 0) return false;
  for (size_t i = len; i < field.size(); ++i) {
    if (field[i] != '\0') return false;
  }
  *out = std::string(field.substr(0, len));
  return true;
}

}  // namespace

bool IsBinaryBundle(std::string_view bytes) {
  if (bytes.size() < kBinaryMagicBytes) return false;
  // Magic is "dnlrbundle2" + NUL padding; the text container's first bytes
  // are "dnlrbundle " (space), so 12 bytes disambiguate unambiguously.
  char magic[kBinaryMagicBytes] = {};
  std::memcpy(magic, kBinaryMagic.data(), kBinaryMagic.size());
  return std::memcmp(bytes.data(), magic, kBinaryMagicBytes) == 0;
}

Result<std::vector<SectionRange>> ParseBinaryLayout(
    std::string_view bytes) {
  if (!IsBinaryBundle(bytes)) {
    return Status::ParseError("not a binary dnlr bundle (bad magic)");
  }
  BinaryReader header(bytes.substr(0, kBinaryHeaderBytes));
  if (bytes.size() < kBinaryHeaderBytes) {
    return Status::ParseError("binary bundle shorter than its fixed header");
  }
  std::string_view magic;
  uint32_t version = 0;
  uint32_t num_sections = 0;
  uint32_t table_offset = 0;
  uint64_t payload_offset = 0;
  uint64_t file_bytes = 0;
  uint32_t table_crc = 0;
  std::string_view reserved;
  uint32_t header_crc = 0;
  if (!header.ReadView(kBinaryMagicBytes, &magic) ||
      !header.ReadU32(&version) || !header.ReadU32(&num_sections) ||
      !header.ReadU32(&table_offset) || !header.ReadU64(&payload_offset) ||
      !header.ReadU64(&file_bytes) || !header.ReadU32(&table_crc) ||
      !header.ReadView(16, &reserved) || !header.ReadU32(&header_crc)) {
    return Status::ParseError("binary bundle shorter than its fixed header");
  }
  if (version != kBinaryFormatVersion) {
    return Status::ParseError(
        "unsupported binary bundle version " + std::to_string(version) +
        " (this build reads " + std::to_string(kBinaryFormatVersion) + ")");
  }
  // The header CRC covers every field above (bytes [0, 60)), so a bit flip
  // in a declared offset or count is caught here, before the fields are
  // trusted by any of the checks below.
  if (Crc32(bytes.substr(0, kBinaryHeaderBytes - sizeof(uint32_t))) !=
      header_crc) {
    return Status::ParseError("binary bundle header crc mismatch");
  }
  if (file_bytes != bytes.size()) {
    return Status::ParseError(
        "binary bundle length mismatch (header declares " +
        std::to_string(file_bytes) + " bytes, file holds " +
        std::to_string(bytes.size()) + ")");
  }
  if (num_sections > kBinaryMaxSections) {
    return Status::ParseError("implausible binary bundle section count " +
                              std::to_string(num_sections));
  }
  if (table_offset != kBinaryHeaderBytes) {
    return Status::ParseError("malformed binary bundle section-table offset");
  }
  // num_sections <= 16, so this arithmetic cannot overflow.
  const uint64_t table_end =
      kBinaryHeaderBytes + num_sections * kBinarySectionEntryBytes;
  if (table_end > bytes.size()) {
    return Status::ParseError("truncated binary bundle section table");
  }
  const std::string_view table =
      bytes.substr(kBinaryHeaderBytes, table_end - kBinaryHeaderBytes);
  if (Crc32(table) != table_crc) {
    return Status::ParseError("binary bundle section table crc mismatch");
  }
  const uint64_t expected_payload_offset = AlignUp(table_end, kSimdAlignment);
  if (payload_offset != expected_payload_offset) {
    return Status::ParseError("malformed binary bundle payload offset");
  }
  if (payload_offset > bytes.size()) {
    return Status::ParseError("truncated binary bundle payload region");
  }

  std::vector<SectionRange> sections(num_sections);
  BinaryReader entries(table);
  int previous_index = -1;
  uint64_t expected_offset = payload_offset;
  for (uint32_t s = 0; s < num_sections; ++s) {
    SectionRange& range = sections[s];
    std::string_view name_field;
    uint32_t entry_reserved = 0;
    if (!entries.ReadView(kBinarySectionNameBytes, &name_field) ||
        !entries.ReadU64(&range.offset) || !entries.ReadU64(&range.size) ||
        !entries.ReadU32(&range.crc32) || !entries.ReadU32(&entry_reserved)) {
      return Status::ParseError("malformed binary section entry " +
                                std::to_string(s));
    }
    if (!ReadSectionName(name_field, &range.name)) {
      return Status::ParseError("malformed binary section name in entry " +
                                std::to_string(s));
    }
    const int index = CanonicalSectionIndex(range.name);
    if (index < 0) {
      return Status::ParseError("unknown bundle section '" + range.name +
                                "'");
    }
    if (index == previous_index) {
      return Status::ParseError("duplicate bundle section '" + range.name +
                                "'");
    }
    if (index < previous_index) {
      return Status::ParseError(
          "bundle section '" + range.name +
          "' out of canonical order (teacher, student, normalizer, rungs)");
    }
    previous_index = index;
    if (range.offset % kSimdAlignment != 0) {
      return Status::ParseError("misaligned binary section offset for '" +
                                range.name + "'");
    }
    // Sections are packed back-to-back (modulo alignment padding), so the
    // only valid offset is the aligned end of the previous payload; any
    // other value means overlap, a gap, or an out-of-bounds range.
    if (range.offset != expected_offset) {
      return Status::ParseError(
          "binary section '" + range.name +
          "' overlaps or leaves a gap (expected offset " +
          std::to_string(expected_offset) + ", header declares " +
          std::to_string(range.offset) + ")");
    }
    if (range.offset > bytes.size() ||
        // Overflow-safe form: `offset + size > file` wraps for a forged
        // size near 2^64 and would skip this check entirely.
        range.size > bytes.size() - range.offset) {
      return Status::ParseError(
          "truncated binary section '" + range.name + "' (declares " +
          std::to_string(range.size) + " bytes, " +
          std::to_string(bytes.size() - range.offset) + " remain)");
    }
    expected_offset = AlignUp(range.offset + range.size, kSimdAlignment);
  }
  const uint64_t last_end =
      sections.empty() ? payload_offset
                       : sections.back().offset + sections.back().size;
  if (last_end != bytes.size()) {
    return Status::ParseError("trailing bytes after the last section (" +
                              std::to_string(bytes.size() - last_end) +
                              " unaccounted)");
  }
  return sections;
}

std::string BuildBinaryBundle(const std::vector<Section>& sections) {
  // Section table first (so its CRC lands in the header), then header,
  // then payloads; assembled header-first into `out`.
  std::string table;
  uint64_t payload_offset =
      AlignUp(kBinaryHeaderBytes + sections.size() * kBinarySectionEntryBytes,
              kSimdAlignment);
  uint64_t offset = payload_offset;
  for (const Section& section : sections) {
    char name[kBinarySectionNameBytes] = {};
    DNLR_CHECK(section.name.size() < kBinarySectionNameBytes)
        << "section name too long for the binary table:" << section.name;
    std::memcpy(name, section.name.data(), section.name.size());
    AppendBytes(table, name, kBinarySectionNameBytes);
    AppendU64(table, offset);
    AppendU64(table, section.payload.size());
    AppendU32(table, Crc32(section.payload));
    AppendU32(table, 0);
    offset = AlignUp(offset + section.payload.size(), kSimdAlignment);
  }
  // `offset` now points past the aligned end of the last payload; the file
  // ends at the unaligned end of the last payload instead.
  uint64_t file_bytes = payload_offset;
  if (!sections.empty()) {
    uint64_t cursor = payload_offset;
    for (const Section& section : sections) {
      file_bytes = cursor + section.payload.size();
      cursor = AlignUp(file_bytes, kSimdAlignment);
    }
  }

  std::string out;
  out.reserve(file_bytes);
  char magic[kBinaryMagicBytes] = {};
  std::memcpy(magic, kBinaryMagic.data(), kBinaryMagic.size());
  AppendBytes(out, magic, kBinaryMagicBytes);
  AppendU32(out, kBinaryFormatVersion);
  AppendU32(out, static_cast<uint32_t>(sections.size()));
  AppendU32(out, static_cast<uint32_t>(kBinaryHeaderBytes));
  AppendU64(out, payload_offset);
  AppendU64(out, file_bytes);
  AppendU32(out, Crc32(table));
  out.append(16, '\0');
  AppendU32(out, Crc32(out));  // header CRC over bytes [0, 60)
  DNLR_CHECK_EQ(out.size(), kBinaryHeaderBytes);
  out += table;
  for (const Section& section : sections) {
    AppendPadTo(out, kSimdAlignment);
    out += section.payload;
  }
  DNLR_CHECK_EQ(out.size(), file_bytes);
  return out;
}

}  // namespace dnlr::bundle
