#include "bundle/bundle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

#include "bundle/binary_format.h"
#include "bundle/crc32.h"
#include "common/binio.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace dnlr::bundle {
namespace {

/// Canonical order of every known section name. The index doubles as the
/// sort key SetSection keeps sections_ ordered by.
constexpr const char* kCanonicalOrder[] = {
    kTeacherSection, kStudentSection, kNormalizerSection, kRungsSection};

/// Parses a section-header CRC field: exactly eight lowercase-or-uppercase
/// hex digits, nothing else. strtoul is deliberately NOT used here — it
/// accepts sign prefixes ("-1"), "0x" markers, and arbitrarily long digit
/// runs that silently truncate, any of which would let a tampered header
/// carry a CRC field that re-serializes differently than it parsed.
bool ParseCrcHex8(const std::string& field, uint32_t* crc) {
  if (field.size() != 8) return false;
  uint32_t value = 0;
  for (const char c : field) {
    uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *crc = value;
  return true;
}

/// Classic-locale numeric stream helpers shared by the rung-config and
/// normalizer codecs.
std::ostringstream MakeOut() {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  return out;
}

std::istringstream MakeIn(const std::string& text) {
  std::istringstream in(text);
  in.imbue(std::locale::classic());
  return in;
}

/// Shared serialize-time validation for both rung codecs: non-empty,
/// space-free names/kinds, finite positive costs, non-increasing down the
/// ladder.
Status ValidateRungsForSerialize(const std::vector<RungSpec>& rungs) {
  if (rungs.empty()) {
    return Status::InvalidArgument("rung config has no rungs");
  }
  double previous = std::numeric_limits<double>::infinity();
  for (const RungSpec& rung : rungs) {
    if (rung.name.empty() || rung.kind.empty()) {
      return Status::InvalidArgument("rung with empty name or kind");
    }
    if (rung.name.find(' ') != std::string::npos ||
        rung.kind.find(' ') != std::string::npos) {
      return Status::InvalidArgument("rung name/kind must not contain spaces");
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0) {
      return Status::InvalidArgument("rung '" + rung.name +
                                     "' has non-positive or non-finite cost");
    }
    if (rung.us_per_doc > previous) {
      return Status::InvalidArgument(
          "rung '" + rung.name +
          "' is more expensive than its predecessor (rungs must be "
          "strongest-first with non-increasing cost)");
    }
    previous = rung.us_per_doc;
  }
  return Status::Ok();
}

}  // namespace

int CanonicalSectionIndex(const std::string& name) {
  for (size_t i = 0; i < std::size(kCanonicalOrder); ++i) {
    if (name == kCanonicalOrder[i]) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// RungConfig

// Grammar:
//   rungs <n>
//   rung <name> <kind> <us_per_doc>     (n lines, strongest first)
Result<std::string> RungConfig::Serialize() const {
  DNLR_RETURN_IF_ERROR(ValidateRungsForSerialize(rungs));
  std::ostringstream out = MakeOut();
  out << "rungs " << rungs.size() << '\n';
  for (const RungSpec& rung : rungs) {
    out << "rung " << rung.name << ' ' << rung.kind << ' ' << rung.us_per_doc
        << '\n';
  }
  return out.str();
}

Result<RungConfig> RungConfig::Deserialize(const std::string& text) {
  std::istringstream in = MakeIn(text);
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "rungs") {
    return Status::ParseError("expected 'rungs <n>' header");
  }
  // Each rung line is four tokens.
  if (count > MaxTokensLeft(in) / 4) {
    return Status::ParseError("rung config declares " +
                              std::to_string(count) +
                              " rungs, more than its text holds");
  }
  RungConfig config;
  config.rungs.resize(count);
  double previous = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    RungSpec& rung = config.rungs[i];
    if (!(in >> keyword >> rung.name >> rung.kind >> rung.us_per_doc) ||
        keyword != "rung") {
      return Status::ParseError("bad rung line " + std::to_string(i));
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0 ||
        rung.us_per_doc > previous) {
      return Status::ParseError("rung '" + rung.name +
                                "' cost is invalid or increases down the "
                                "ladder");
    }
    previous = rung.us_per_doc;
  }
  return config;
}

// Binary "RNG2" payload layout (little-endian; see common/binio.h):
//   "RNG2"  u32 num_rungs
//   per rung: u32 name_bytes, name, u32 kind_bytes, kind, f64 us_per_doc
Result<std::string> RungConfig::SerializeBinary() const {
  DNLR_RETURN_IF_ERROR(ValidateRungsForSerialize(rungs));
  std::string out;
  AppendBytes(out, "RNG2", 4);
  AppendU32(out, static_cast<uint32_t>(rungs.size()));
  for (const RungSpec& rung : rungs) {
    AppendU32(out, static_cast<uint32_t>(rung.name.size()));
    AppendBytes(out, rung.name.data(), rung.name.size());
    AppendU32(out, static_cast<uint32_t>(rung.kind.size()));
    AppendBytes(out, rung.kind.data(), rung.kind.size());
    AppendF64(out, rung.us_per_doc);
  }
  return out;
}

Result<RungConfig> RungConfig::DeserializeBinary(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (!reader.ExpectTag("RNG2")) {
    return Status::ParseError("not a binary rung config (bad RNG2 tag)");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count) || count == 0) {
    return Status::ParseError("bad binary rung count");
  }
  RungConfig config;
  double previous = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < count; ++i) {
    RungSpec rung;
    uint32_t name_bytes = 0;
    uint32_t kind_bytes = 0;
    std::string_view name;
    std::string_view kind;
    // ReadView bounds-checks each declared length against the remaining
    // payload, so a forged length cannot read past the section.
    if (!reader.ReadU32(&name_bytes) || !reader.ReadView(name_bytes, &name) ||
        !reader.ReadU32(&kind_bytes) || !reader.ReadView(kind_bytes, &kind) ||
        !reader.ReadF64(&rung.us_per_doc)) {
      return Status::ParseError("truncated binary rung " + std::to_string(i));
    }
    rung.name = std::string(name);
    rung.kind = std::string(kind);
    if (rung.name.empty() || rung.kind.empty()) {
      return Status::ParseError("binary rung " + std::to_string(i) +
                                " has an empty name or kind");
    }
    if (!std::isfinite(rung.us_per_doc) || rung.us_per_doc <= 0.0 ||
        rung.us_per_doc > previous) {
      return Status::ParseError("rung '" + rung.name +
                                "' cost is invalid or increases down the "
                                "ladder");
    }
    previous = rung.us_per_doc;
    config.rungs.push_back(std::move(rung));
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("trailing bytes after binary rung config");
  }
  return config;
}

// ---------------------------------------------------------------------------
// Normalizer codec

// Grammar:
//   znorm <num_features>
//   <num_features means> <num_features stddevs>
Result<std::string> SerializeNormalizer(const data::ZNormalizer& normalizer) {
  if (!normalizer.fitted()) {
    return Status::InvalidArgument("cannot serialize an unfitted normalizer");
  }
  const std::vector<float>& mean = normalizer.mean();
  const std::vector<float>& stddev = normalizer.stddev();
  for (size_t f = 0; f < mean.size(); ++f) {
    if (!std::isfinite(mean[f]) || !std::isfinite(stddev[f]) ||
        stddev[f] <= 0.0f) {
      return Status::InvalidArgument(
          "cannot serialize normalizer: bad statistics at feature " +
          std::to_string(f));
    }
  }
  std::ostringstream out = MakeOut();
  out << "znorm " << mean.size() << '\n';
  for (size_t f = 0; f < mean.size(); ++f) {
    out << mean[f] << (f + 1 == mean.size() ? '\n' : ' ');
  }
  for (size_t f = 0; f < stddev.size(); ++f) {
    out << stddev[f] << (f + 1 == stddev.size() ? '\n' : ' ');
  }
  return out.str();
}

Result<data::ZNormalizer> DeserializeNormalizer(const std::string& text) {
  std::istringstream in = MakeIn(text);
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "znorm" || count == 0) {
    return Status::ParseError("expected 'znorm <n>' header");
  }
  // A mean and a stddev per feature.
  if (count > MaxTokensLeft(in) / 2) {
    return Status::ParseError("normalizer declares " + std::to_string(count) +
                              " features, more than its text holds");
  }
  std::vector<float> mean(count);
  std::vector<float> stddev(count);
  for (float& m : mean) {
    if (!(in >> m) || !std::isfinite(m)) {
      return Status::ParseError("truncated or non-finite normalizer means");
    }
  }
  for (float& s : stddev) {
    if (!(in >> s) || !std::isfinite(s) || s <= 0.0f) {
      return Status::ParseError(
          "truncated or non-positive normalizer stddevs");
    }
  }
  return data::ZNormalizer(std::move(mean), std::move(stddev));
}

// ---------------------------------------------------------------------------
// ModelBundle

Status ModelBundle::SetSection(const std::string& name, std::string payload) {
  const int index = CanonicalSectionIndex(name);
  if (index < 0) {
    return Status::InvalidArgument("unknown bundle section '" + name + "'");
  }
  for (Section& section : sections_) {
    if (section.name == name) {
      section.payload = std::move(payload);
      return Status::Ok();
    }
  }
  Section section{name, std::move(payload)};
  const auto pos = std::find_if(
      sections_.begin(), sections_.end(), [index](const Section& s) {
        return CanonicalSectionIndex(s.name) > index;
      });
  sections_.insert(pos, std::move(section));
  return Status::Ok();
}

Status ModelBundle::SetTeacher(const gbdt::Ensemble& teacher) {
  Result<std::string> text = teacher.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kTeacherSection, std::move(*text));
}

Status ModelBundle::SetStudent(const nn::Mlp& student) {
  Result<std::string> text = student.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kStudentSection, std::move(*text));
}

Status ModelBundle::SetNormalizer(const data::ZNormalizer& normalizer) {
  Result<std::string> text = SerializeNormalizer(normalizer);
  if (!text.ok()) return text.status();
  return SetSection(kNormalizerSection, std::move(*text));
}

Status ModelBundle::SetRungs(const RungConfig& rungs) {
  Result<std::string> text = rungs.Serialize();
  if (!text.ok()) return text.status();
  return SetSection(kRungsSection, std::move(*text));
}

std::string ModelBundle::Serialize() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << kMagic << ' ' << kFormatVersion << ' ' << sections_.size() << '\n';
  for (const Section& section : sections_) {
    out << "section " << section.name << ' ' << section.payload.size() << ' '
        << Crc32Hex(Crc32(section.payload)) << '\n';
  }
  out << "payload\n";
  for (const Section& section : sections_) {
    out << section.payload;
  }
  return out.str();
}

namespace {

/// Re-encodes one stored text payload with the binary codec of its section.
/// The text codecs print max_digits10 under the classic locale, so parse +
/// re-encode keeps every float bitwise: conversion is score-lossless by
/// construction.
Result<std::string> EncodeBinaryPayload(const Section& section) {
  if (section.name == kTeacherSection) {
    Result<gbdt::Ensemble> teacher =
        gbdt::Ensemble::Deserialize(section.payload);
    if (!teacher.ok()) return teacher.status();
    return teacher->SerializeBinary();
  }
  if (section.name == kStudentSection) {
    Result<nn::Mlp> student = nn::Mlp::Deserialize(section.payload);
    if (!student.ok()) return student.status();
    return student->SerializeBinary();
  }
  if (section.name == kNormalizerSection) {
    Result<data::ZNormalizer> normalizer =
        DeserializeNormalizer(section.payload);
    if (!normalizer.ok()) return normalizer.status();
    return normalizer->SerializeBinary();
  }
  Result<RungConfig> rungs = RungConfig::Deserialize(section.payload);
  if (!rungs.ok()) return rungs.status();
  return rungs->SerializeBinary();
}

}  // namespace

Result<std::string> ModelBundle::SerializeAs(BundleFormat format) const {
  if (format == BundleFormat::kText) return Serialize();
  std::vector<Section> binary;
  for (const Section& section : sections_) {
    Result<std::string> payload = EncodeBinaryPayload(section);
    if (!payload.ok()) {
      return Status::ParseError("cannot convert section '" + section.name +
                                "': " + payload.status().message());
    }
    binary.push_back(Section{section.name, std::move(*payload)});
  }
  return BuildBinaryBundle(binary);
}

Status ModelBundle::SaveToFile(const std::string& path) const {
  return AtomicWriteFile(path, Serialize());
}

Status ModelBundle::SaveToFile(const std::string& path,
                               BundleFormat format) const {
  Result<std::string> bytes = SerializeAs(format);
  if (!bytes.ok()) return bytes.status();
  return AtomicWriteFile(path, *bytes);
}

// ---------------------------------------------------------------------------
// Text container layout

Result<std::vector<SectionRange>> ParseTextLayout(std::string_view bytes) {
  // The header lines are parsed off a stream over the header alone (up to
  // and including the marker line), so the payload bytes are never copied.
  // The payload starts right after the newline that ends the marker line.
  constexpr std::string_view kMarker = "\npayload\n";
  const size_t marker = bytes.find(kMarker);
  std::istringstream in = MakeIn(std::string(
      bytes.substr(0, marker == std::string_view::npos
                          ? bytes.size()
                          : marker + kMarker.size())));
  std::string magic;
  uint32_t version = 0;
  size_t num_sections = 0;
  if (!(in >> magic) || magic != kMagic) {
    return Status::ParseError("not a dnlr bundle (bad magic)");
  }
  if (!(in >> version >> num_sections)) {
    return Status::ParseError("malformed bundle header");
  }
  if (version != kFormatVersion) {
    return Status::ParseError("unsupported bundle version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kFormatVersion) + ")");
  }
  // Sections are unique and canonical, so no valid header declares more;
  // the check also bounds the allocation below.
  if (num_sections > std::size(kCanonicalOrder)) {
    return Status::ParseError("implausible bundle section count " +
                              std::to_string(num_sections));
  }

  std::vector<SectionRange> ranges(num_sections);
  int previous_index = -1;
  for (size_t s = 0; s < num_sections; ++s) {
    SectionRange& range = ranges[s];
    std::string keyword;
    std::string crc_hex;
    // operator>> reads "-1" into a size_t as SIZE_MAX without failing; the
    // overflow-safe bounds check below turns that into "truncated".
    size_t size = 0;
    if (!(in >> keyword >> range.name >> size >> crc_hex) ||
        keyword != "section") {
      return Status::ParseError("malformed section header " +
                                std::to_string(s));
    }
    range.size = size;
    if (!ParseCrcHex8(crc_hex, &range.crc32)) {
      return Status::ParseError("malformed crc in section header '" +
                                range.name +
                                "' (want exactly 8 hex digits, got '" +
                                crc_hex + "')");
    }
    const int index = CanonicalSectionIndex(range.name);
    if (index < 0) {
      return Status::ParseError("unknown bundle section '" + range.name + "'");
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
  }

  std::string keyword;
  if (!(in >> keyword) || keyword != "payload" ||
      marker == std::string_view::npos) {
    return Status::ParseError("missing payload marker");
  }
  uint64_t offset = marker + kMarker.size();
  for (SectionRange& range : ranges) {
    // Overflow-safe form: `offset + size > bytes.size()` wraps for a forged
    // size near 2^64 and would wave it through. `offset` never exceeds
    // bytes.size() here, so the subtraction cannot underflow.
    if (range.size > bytes.size() - offset) {
      return Status::ParseError(
          "truncated section '" + range.name + "' (declares " +
          std::to_string(range.size) + " bytes, " +
          std::to_string(bytes.size() - offset) + " remain)");
    }
    range.offset = offset;
    offset += range.size;
  }
  if (offset != bytes.size()) {
    return Status::ParseError("trailing bytes after the last section (" +
                              std::to_string(bytes.size() - offset) +
                              " unaccounted)");
  }
  return ranges;
}

}  // namespace dnlr::bundle
