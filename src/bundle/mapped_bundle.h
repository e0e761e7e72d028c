#ifndef DNLR_BUNDLE_MAPPED_BUNDLE_H_
#define DNLR_BUNDLE_MAPPED_BUNDLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bundle/binary_format.h"
#include "bundle/bundle.h"
#include "common/mapped_file.h"
#include "common/status.h"

namespace dnlr::bundle {

/// The bundle reader, for both containers. It holds the bundle's bytes in
/// one common::MappedFile (an mmap of the file, or an owned heap buffer),
/// sniffs the format from the magic, and runs that format's layout parser
/// (ParseTextLayout or ParseBinaryLayout) to find every section as a range
/// of those bytes. Everything below then serves both formats alike.
///
/// Validation follows each format's cost split. A v1 text bundle has every
/// payload CRC checked at open. A v2 binary bundle gets only the cheap
/// structural pass at open (header + table CRCs, every offset and size
/// checked overflow-safely): its payload CRCs cost a full scan of the
/// mapping and are deferred to VerifyPayloadCrcs(), which `dnlr_cli bundle
/// verify` calls and serving does not.
///
/// The typed getters decode straight out of the buffer: the binary codecs
/// are bounds-checked memcpy with no intermediate payload string.
class MappedBundle {
 public:
  /// Maps `path` (or reads it, with `prefer_mmap = false` or where mmap
  /// fails) and validates the layout of whichever container it holds.
  static Result<MappedBundle> Map(const std::string& path,
                                  bool prefer_mmap = true);

  /// Adopts `bytes` as the buffer and validates them exactly as Map does.
  static Result<MappedBundle> FromBytes(std::string bytes);

  BundleFormat format() const { return format_; }
  bool HasSection(const std::string& name) const;
  /// View of a section's payload inside the buffer, or an empty view when
  /// the section is absent. Valid only while this MappedBundle lives.
  std::string_view FindSectionView(const std::string& name) const;

  /// Typed getters. Each picks the payload codec from its leading bytes
  /// ("GBT2"/"MLP2"/"ZNM2"/"RNG2" tag = binary, anything else = text).
  /// NotFound when the section is absent; the codec's ParseError otherwise.
  Result<gbdt::Ensemble> Teacher() const;
  Result<nn::Mlp> Student() const;
  Result<data::ZNormalizer> Normalizer() const;
  Result<RungConfig> Rungs() const;

  /// CRC32 of every payload against its header entry. ParseError naming the
  /// first mismatching section.
  Status VerifyPayloadCrcs() const;

  const std::vector<SectionRange>& layout() const { return layout_; }
  /// True when the bytes come from a real mmap (false on the heap buffer).
  bool is_mapped() const { return file_.is_mapped(); }
  size_t file_bytes() const { return file_.size(); }

 private:
  MappedBundle(common::MappedFile file, BundleFormat format,
               std::vector<SectionRange> layout)
      : file_(std::move(file)),
        format_(format),
        layout_(std::move(layout)) {}

  static Result<MappedBundle> Open(common::MappedFile file);
  /// The section's range, or nullptr when the bundle has no such section.
  const SectionRange* Find(std::string_view name) const;
  /// Shared body of the typed getters.
  template <typename T>
  Result<T> Decode(const char* section, std::string_view binary_tag,
                   Result<T> (*binary)(std::string_view),
                   Result<T> (*text)(const std::string&)) const;
  std::string_view View(const SectionRange& range) const {
    return file_.view().substr(range.offset, range.size);
  }

  common::MappedFile file_;
  BundleFormat format_;
  std::vector<SectionRange> layout_;
};

/// Decodes every section `from` holds and sets it on `to` through the typed
/// setters, which store the text codec: how a bundle of either format is
/// re-packed or unpacked.
Status RepackSections(const MappedBundle& from, ModelBundle* to);

}  // namespace dnlr::bundle

#endif  // DNLR_BUNDLE_MAPPED_BUNDLE_H_
