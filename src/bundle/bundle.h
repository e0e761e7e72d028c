#ifndef DNLR_BUNDLE_BUNDLE_H_
#define DNLR_BUNDLE_BUNDLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"

namespace dnlr::bundle {

/// Bundle-format constants. A bundle is the single deployable unit the
/// paper's pipeline produces per rollout: the LambdaMART teacher, the
/// distilled (possibly pruned) student MLP, the feature normalizer the
/// student was trained behind, and the serve-rung configuration the
/// DegradationLadder was budgeted with — versioned and checksummed so the
/// whole family rolls (and rolls back) together.
inline constexpr char kMagic[] = "dnlrbundle";
inline constexpr uint32_t kFormatVersion = 1;

/// The two container formats a bundle serializes to. Text (v1) is the
/// portable, diffable interchange format; binary (v2, binary_format.h) is
/// the section-aligned deployment format a server mmaps and decodes with
/// bounds-checked memcpy instead of a float parse (the decoded models are
/// heap copies; nothing is scored from the mapping). Payload codecs pair
/// with the container: a text container carries text payloads, a binary
/// container carries the "MLP2"/"GBT2"/"ZNM2"/"RNG2" binary payloads.
/// Conversion between the two is bitwise score-lossless (the text codecs
/// print max_digits10, so floats round-trip exactly).
enum class BundleFormat { kText, kBinary };

/// Canonical position of `name` in the section order, or -1 for unknown
/// names. Shared by the v1 text and v2 binary layout parsers.
int CanonicalSectionIndex(const std::string& name);

/// Canonical section names, in the only order a valid bundle may declare
/// them. Any subset is allowed; reordering is a distinct parse error so a
/// tampered or hand-edited bundle never half-loads.
inline constexpr char kTeacherSection[] = "teacher";
inline constexpr char kStudentSection[] = "student";
inline constexpr char kNormalizerSection[] = "normalizer";
inline constexpr char kRungsSection[] = "rungs";

/// One rung of the serve configuration as budgeted offline: which model the
/// rung runs (`kind`: "student", "teacher", "cascade" or "teacher-subset")
/// and the predicted per-document cost the engine budgets with.
struct RungSpec {
  std::string name;
  std::string kind;
  double us_per_doc = 0.0;
};

/// The degradation-ladder configuration carried inside a bundle. Rungs are
/// ordered strongest-first with non-increasing costs, mirroring
/// serve::DegradationLadder::AddRung's contract.
struct RungConfig {
  std::vector<RungSpec> rungs;

  /// Classic-locale text form; rejects non-finite or non-positive costs and
  /// costs that increase down the ladder.
  Result<std::string> Serialize() const;
  static Result<RungConfig> Deserialize(const std::string& text);

  /// Binary "RNG2" form carried by v2 binary bundles (length-prefixed
  /// strings + f64 costs, little-endian). Enforces the same invariants as
  /// the text codec in both directions.
  Result<std::string> SerializeBinary() const;
  static Result<RungConfig> DeserializeBinary(std::string_view bytes);
};

/// A named, CRC-checksummed byte payload inside a bundle.
struct Section {
  std::string name;
  std::string payload;
};

/// Where one section's payload lives inside a container's bytes, as the
/// layout parsers of both formats report it (ParseTextLayout below,
/// ParseBinaryLayout in binary_format.h). Payloads are read through these
/// ranges as views into the one buffer; nothing is copied per section.
struct SectionRange {
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

/// Structural validation of a v1 text container:
///
///   dnlrbundle <format-version> <num-sections>\n
///   section <name> <payload-bytes> <crc32-hex8>\n     (one per section,
///                                                      canonical order)
///   payload\n
///   <section payloads, concatenated in declared order>
///
/// Checks the magic, version, section count, section order and every
/// declared length, each corruption mode with a distinct ParseError (bad
/// magic, unsupported version, malformed header, implausible section count,
/// section out of order, duplicate or unknown section, malformed crc,
/// missing payload marker, truncated section, trailing bytes). Like
/// ParseBinaryLayout it does not read payload bytes; the reader
/// (bundle/mapped_bundle.h) checks the payload CRCs of a text container
/// before it hands any section out.
Result<std::vector<SectionRange>> ParseTextLayout(std::string_view bytes);

/// The bundle writer. Payloads enter only through the typed setters, which
/// store the text codec; Serialize/SerializeAs/SaveToFile write either
/// container. Reading a bundle back is bundle::MappedBundle's job. SaveToFile
/// is crash-safe (temp file + flush + fsync + atomic rename), so a crash at
/// any point during save leaves the published path untouched.
class ModelBundle {
 public:
  /// Typed setters: each serializes its object into the matching section
  /// (replacing any previous payload) and fails without touching the bundle
  /// when the object cannot serialize (e.g. non-finite weights).
  Status SetTeacher(const gbdt::Ensemble& teacher);
  Status SetStudent(const nn::Mlp& student);
  Status SetNormalizer(const data::ZNormalizer& normalizer);
  Status SetRungs(const RungConfig& rungs);

  /// Sections in canonical order, each holding its text payload.
  const std::vector<Section>& sections() const { return sections_; }

  /// v1 text container.
  std::string Serialize() const;

  /// Serializes to the requested container format. The binary container
  /// carries the binary payload codecs, re-encoded from the stored text by
  /// parse + serialize, which is bitwise lossless.
  Result<std::string> SerializeAs(BundleFormat format) const;

  /// Crash-safe save via common::AtomicWriteFile.
  Status SaveToFile(const std::string& path) const;
  Status SaveToFile(const std::string& path, BundleFormat format) const;

 private:
  /// Inserts or replaces `name`, keeping sections_ in canonical order.
  Status SetSection(const std::string& name, std::string payload);

  std::vector<Section> sections_;
};

/// Classic-locale (de)serialization of the Z-normalizer statistics, so the
/// student's preprocessing travels with the model instead of being re-fit
/// from whatever data happens to be at hand at load time.
Result<std::string> SerializeNormalizer(const data::ZNormalizer& normalizer);
Result<data::ZNormalizer> DeserializeNormalizer(const std::string& text);

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_BUNDLE_H_
