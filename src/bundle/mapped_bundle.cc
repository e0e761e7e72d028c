#include "bundle/mapped_bundle.h"

#include <utility>

#include "bundle/crc32.h"

namespace dnlr::bundle {

Result<MappedBundle> MappedBundle::Map(const std::string& path,
                                       bool prefer_mmap) {
  Result<common::MappedFile> file = common::MappedFile::Open(path, prefer_mmap);
  if (!file.ok()) return file.status();
  return Open(std::move(*file));
}

Result<MappedBundle> MappedBundle::FromBytes(std::string bytes) {
  return Open(common::MappedFile::FromBytes(std::move(bytes)));
}

Result<MappedBundle> MappedBundle::Open(common::MappedFile file) {
  const BundleFormat format = IsBinaryBundle(file.view())
                                  ? BundleFormat::kBinary
                                  : BundleFormat::kText;
  Result<std::vector<SectionRange>> layout =
      format == BundleFormat::kBinary ? ParseBinaryLayout(file.view())
                                      : ParseTextLayout(file.view());
  if (!layout.ok()) return layout.status();
  MappedBundle bundle(std::move(file), format, std::move(*layout));
  // Text is the interchange format and nothing defers for it: every
  // payload CRC is checked before any section is handed out.
  if (format == BundleFormat::kText) {
    DNLR_RETURN_IF_ERROR(bundle.VerifyPayloadCrcs());
  }
  return bundle;
}

const SectionRange* MappedBundle::Find(std::string_view name) const {
  for (const SectionRange& range : layout_) {
    if (range.name == name) return &range;
  }
  return nullptr;
}

bool MappedBundle::HasSection(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string_view MappedBundle::FindSectionView(const std::string& name) const {
  const SectionRange* range = Find(name);
  return range == nullptr ? std::string_view() : View(*range);
}

template <typename T>
Result<T> MappedBundle::Decode(const char* section,
                               std::string_view binary_tag,
                               Result<T> (*binary)(std::string_view),
                               Result<T> (*text)(const std::string&)) const {
  const SectionRange* range = Find(section);
  if (range == nullptr) {
    return Status::NotFound(std::string("bundle has no ") + section +
                            " section");
  }
  const std::string_view payload = View(*range);
  if (payload.substr(0, binary_tag.size()) == binary_tag) {
    return binary(payload);
  }
  return text(std::string(payload));
}

Result<gbdt::Ensemble> MappedBundle::Teacher() const {
  return Decode<gbdt::Ensemble>(kTeacherSection, "GBT2",
                                &gbdt::Ensemble::DeserializeBinary,
                                &gbdt::Ensemble::Deserialize);
}

Result<nn::Mlp> MappedBundle::Student() const {
  return Decode<nn::Mlp>(kStudentSection, "MLP2", &nn::Mlp::DeserializeBinary,
                         &nn::Mlp::Deserialize);
}

Result<data::ZNormalizer> MappedBundle::Normalizer() const {
  return Decode<data::ZNormalizer>(kNormalizerSection, "ZNM2",
                                   &data::ZNormalizer::DeserializeBinary,
                                   &DeserializeNormalizer);
}

Result<RungConfig> MappedBundle::Rungs() const {
  return Decode<RungConfig>(kRungsSection, "RNG2",
                            &RungConfig::DeserializeBinary,
                            &RungConfig::Deserialize);
}

Status MappedBundle::VerifyPayloadCrcs() const {
  for (const SectionRange& range : layout_) {
    const uint32_t actual = Crc32(View(range));
    if (actual != range.crc32) {
      return Status::ParseError("crc mismatch in section '" + range.name +
                                "' (header " + Crc32Hex(range.crc32) +
                                ", payload " + Crc32Hex(actual) + ")");
    }
  }
  return Status::Ok();
}

Status RepackSections(const MappedBundle& from, ModelBundle* to) {
  if (from.HasSection(kTeacherSection)) {
    Result<gbdt::Ensemble> teacher = from.Teacher();
    if (!teacher.ok()) return teacher.status();
    DNLR_RETURN_IF_ERROR(to->SetTeacher(*teacher));
  }
  if (from.HasSection(kStudentSection)) {
    Result<nn::Mlp> student = from.Student();
    if (!student.ok()) return student.status();
    DNLR_RETURN_IF_ERROR(to->SetStudent(*student));
  }
  if (from.HasSection(kNormalizerSection)) {
    Result<data::ZNormalizer> normalizer = from.Normalizer();
    if (!normalizer.ok()) return normalizer.status();
    DNLR_RETURN_IF_ERROR(to->SetNormalizer(*normalizer));
  }
  if (from.HasSection(kRungsSection)) {
    Result<RungConfig> rungs = from.Rungs();
    if (!rungs.ok()) return rungs.status();
    DNLR_RETURN_IF_ERROR(to->SetRungs(*rungs));
  }
  return Status::Ok();
}

}  // namespace dnlr::bundle
