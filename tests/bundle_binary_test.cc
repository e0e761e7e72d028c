// Binary (v2) bundle tests: bitwise-lossless conversion between the text
// and binary containers, mmap residency through MappedFile/MappedBundle,
// the cheap-at-map / deep-on-demand validation split, a corruption matrix
// where every tampering mode yields its own distinct ParseError, serving
// parity (a binary-loaded Servable reproduces the text-loaded ladder's
// scores bitwise), and crash-point atomicity of binary saves including the
// published-but-not-durable kAfterRename window.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bundle/binary_format.h"
#include "bundle/bundle.h"
#include "bundle/crc32.h"
#include "bundle/mapped_bundle.h"
#include "common/aligned.h"
#include "common/file_util.h"
#include "common/mapped_file.h"
#include "common/rng.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"
#include "predict/architecture.h"
#include "serve/engine.h"
#include "serve/servable.h"

namespace dnlr {
namespace {

// ---------------------------------------------------------------------------
// Helpers (same random-model construction as bundle_test.cc: random
// structures reach shapes training rarely makes).

gbdt::RegressionTree RandomTree(Rng& rng, uint32_t leaves,
                                uint32_t num_features) {
  if (leaves == 1) {
    return gbdt::RegressionTree({}, {rng.Normal()});
  }
  std::vector<gbdt::TreeNode> nodes;
  std::vector<double> values;
  std::function<int32_t(uint32_t)> build = [&](uint32_t budget) -> int32_t {
    if (budget == 1) {
      values.push_back(rng.Normal());
      return gbdt::TreeNode::EncodeLeaf(
          static_cast<uint32_t>(values.size() - 1));
    }
    const uint32_t left_budget =
        1 + static_cast<uint32_t>(rng.Below(budget - 1));
    const auto index = static_cast<int32_t>(nodes.size());
    nodes.push_back({});
    nodes[index].feature = static_cast<uint32_t>(rng.Below(num_features));
    nodes[index].threshold = static_cast<float>(rng.Normal(0.0, 2.0));
    const int32_t left = build(left_budget);
    nodes[index].left = left;
    const int32_t right = build(budget - left_budget);
    nodes[index].right = right;
    return index;
  };
  build(leaves);
  gbdt::RegressionTree tree(std::move(nodes), std::move(values));
  tree.NormalizeLeafOrder();
  return tree;
}

gbdt::Ensemble RandomEnsemble(Rng& rng, uint32_t trees, uint32_t max_leaves,
                              uint32_t num_features) {
  gbdt::Ensemble ensemble(rng.Normal());
  for (uint32_t t = 0; t < trees; ++t) {
    const uint32_t leaves = 1 + static_cast<uint32_t>(rng.Below(max_leaves));
    ensemble.AddTree(RandomTree(rng, leaves, num_features));
  }
  return ensemble;
}

data::ZNormalizer RandomNormalizer(Rng& rng, uint32_t num_features) {
  std::vector<float> mean(num_features);
  std::vector<float> stddev(num_features);
  for (uint32_t f = 0; f < num_features; ++f) {
    mean[f] = static_cast<float>(rng.Normal(0.0, 3.0));
    stddev[f] = 0.05f + static_cast<float>(rng.Uniform()) * 4.0f;
  }
  return data::ZNormalizer(std::move(mean), std::move(stddev));
}

bundle::RungConfig TestRungs() {
  bundle::RungConfig config;
  config.rungs = {{"student", "student", 2.75},
                  {"cascade", "cascade", 1.5},
                  {"floor", "teacher-subset", 0.25}};
  return config;
}

bundle::ModelBundle MakeFullBundle(uint64_t seed, uint32_t num_features) {
  Rng rng(seed);
  bundle::ModelBundle pack;
  EXPECT_TRUE(
      pack.SetTeacher(RandomEnsemble(rng, 6, 32, num_features)).ok());
  const predict::Architecture arch(num_features, {16, 8});
  EXPECT_TRUE(pack.SetStudent(nn::Mlp(arch, seed + 1)).ok());
  EXPECT_TRUE(pack.SetNormalizer(RandomNormalizer(rng, num_features)).ok());
  EXPECT_TRUE(pack.SetRungs(TestRungs()).ok());
  return pack;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string BinaryBytes(const bundle::ModelBundle& pack) {
  auto bytes = pack.SerializeAs(bundle::BundleFormat::kBinary);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

/// Concatenated text serialization of every model a bundle holds. The text
/// codecs print max_digits10 under the classic locale, so two bundles with
/// equal fingerprints carry bitwise-identical parameters — this is the
/// same losslessness proof `dnlr_cli bundle bench` gates on.
std::string Fingerprint(const bundle::MappedBundle& bundle) {
  std::string out;
  const auto take = [&out](Result<std::string> text) {
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    if (text.ok()) out += *text;
  };
  auto teacher = bundle.Teacher();
  EXPECT_TRUE(teacher.ok()) << teacher.status().ToString();
  if (teacher.ok()) take(teacher->Serialize());
  auto student = bundle.Student();
  EXPECT_TRUE(student.ok()) << student.status().ToString();
  if (student.ok()) take(student->Serialize());
  auto normalizer = bundle.Normalizer();
  EXPECT_TRUE(normalizer.ok()) << normalizer.status().ToString();
  if (normalizer.ok()) take(bundle::SerializeNormalizer(*normalizer));
  auto rungs = bundle.Rungs();
  EXPECT_TRUE(rungs.ok()) << rungs.status().ToString();
  if (rungs.ok()) take(rungs->Serialize());
  return out;
}

/// Fingerprint of what a writer holds, read back from its text container.
std::string Fingerprint(const bundle::ModelBundle& pack) {
  auto loaded = bundle::MappedBundle::FromBytes(pack.Serialize());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? Fingerprint(*loaded) : std::string();
}

/// Decodes everything a reader holds and re-packs it through the setters.
bundle::ModelBundle Repack(const bundle::MappedBundle& loaded) {
  bundle::ModelBundle pack;
  EXPECT_TRUE(bundle::RepackSections(loaded, &pack).ok());
  return pack;
}

// ---------------------------------------------------------------------------
// Round trips: text <-> binary conversion loses nothing, and both mapped
// and heap-read binary loads materialize the exact same parameters.

class BinaryRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BinaryRoundTripTest, ConversionIsLosslessAndDeterministic) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const uint32_t num_features = 4 + static_cast<uint32_t>(seed % 5);
  const bundle::ModelBundle pack = MakeFullBundle(seed, num_features);
  const std::string expected = Fingerprint(pack);
  ASSERT_FALSE(expected.empty());

  const std::string binary = BinaryBytes(pack);
  ASSERT_TRUE(bundle::IsBinaryBundle(binary));
  auto restored = bundle::MappedBundle::FromBytes(binary);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->format(), bundle::BundleFormat::kBinary);
  EXPECT_TRUE(restored->VerifyPayloadCrcs().ok());
  EXPECT_EQ(Fingerprint(*restored), expected);

  // The binary container is deterministic, and converting back to text
  // reproduces the original text container byte for byte.
  const bundle::ModelBundle repacked = Repack(*restored);
  EXPECT_EQ(BinaryBytes(repacked), binary);
  auto text = repacked.SerializeAs(bundle::BundleFormat::kText);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, pack.Serialize());
}

TEST_P(BinaryRoundTripTest, MappedAndHeapLoadsMatchTheSourceBitwise) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const uint32_t num_features = 4 + static_cast<uint32_t>(seed % 5);
  const bundle::ModelBundle pack = MakeFullBundle(seed, num_features);
  const std::string expected = Fingerprint(pack);
  ASSERT_FALSE(expected.empty());
  // The one reader serves both containers over both buffers.
  for (const bundle::BundleFormat format :
       {bundle::BundleFormat::kText, bundle::BundleFormat::kBinary}) {
    const bool binary = format == bundle::BundleFormat::kBinary;
    SCOPED_TRACE(binary ? "binary" : "text");
    const std::string path = TempPath("roundtrip_" + std::to_string(seed) +
                                      (binary ? ".dnlr.bin" : ".dnlr"));
    ASSERT_TRUE(pack.SaveToFile(path, format).ok());

    auto mapped = bundle::MappedBundle::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto heap = bundle::MappedBundle::Map(path, /*prefer_mmap=*/false);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
#ifndef _WIN32
    EXPECT_TRUE(mapped->is_mapped());
#endif
    EXPECT_FALSE(heap->is_mapped());
    EXPECT_EQ(mapped->format(), format);
    EXPECT_EQ(heap->format(), format);

    EXPECT_EQ(Fingerprint(*mapped), expected);
    EXPECT_EQ(Fingerprint(*heap), expected);
    EXPECT_TRUE(mapped->VerifyPayloadCrcs().ok());
    EXPECT_TRUE(heap->VerifyPayloadCrcs().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTripTest, ::testing::Range(0, 8));

TEST(BinaryLayoutTest, SectionsAreSimdAlignedAndCanonicallyOrdered) {
  const std::string binary = BinaryBytes(MakeFullBundle(11, 7));
  auto layout = bundle::ParseBinaryLayout(binary);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  ASSERT_EQ(layout->size(), 4u);
  int previous = -1;
  for (const bundle::SectionRange& range : *layout) {
    EXPECT_EQ(range.offset % kSimdAlignment, 0u) << range.name;
    EXPECT_GE(range.offset, bundle::kBinaryHeaderBytes);
    const int index = bundle::CanonicalSectionIndex(range.name);
    EXPECT_GT(index, previous) << range.name;
    previous = index;
    EXPECT_EQ(bundle::Crc32(binary.substr(range.offset, range.size)),
              range.crc32)
        << range.name;
  }
  // The text container must never sniff as binary, and vice versa.
  EXPECT_FALSE(bundle::IsBinaryBundle(MakeFullBundle(11, 7).Serialize()));
}

// ---------------------------------------------------------------------------
// Corruption matrix: every tampering mode yields its own distinct
// ParseError at map time — except payload flips, which are deliberately
// deferred past the cheap structural pass.

class BinaryCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = BinaryBytes(MakeFullBundle(/*seed=*/5, /*num_features=*/6));
    ASSERT_FALSE(bytes_.empty());
  }

  static void StoreU32(std::string* bytes, size_t offset, uint32_t value) {
    std::memcpy(&(*bytes)[offset], &value, sizeof(value));
  }
  static void StoreU64(std::string* bytes, size_t offset, uint64_t value) {
    std::memcpy(&(*bytes)[offset], &value, sizeof(value));
  }
  static uint32_t LoadU32(const std::string& bytes, size_t offset) {
    uint32_t value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
  }

  /// Recomputes the table CRC (header bytes [40, 44)) and then the header
  /// CRC (bytes [60, 64) over [0, 60)) after a deliberate mutation, so a
  /// test exercises exactly the check it targets instead of tripping the
  /// CRC gates in front of it.
  static void FixCrcs(std::string* bytes) {
    const uint64_t count = LoadU32(*bytes, 16);
    const uint64_t table_end = bundle::kBinaryHeaderBytes +
                               count * bundle::kBinarySectionEntryBytes;
    if (table_end <= bytes->size()) {
      StoreU32(bytes, 40,
               bundle::Crc32(std::string_view(*bytes).substr(
                   bundle::kBinaryHeaderBytes,
                   table_end - bundle::kBinaryHeaderBytes)));
    }
    StoreU32(bytes, 60,
             bundle::Crc32(std::string_view(*bytes).substr(0, 60)));
  }

  /// Byte offset of a field inside section-table entry `entry`.
  static size_t EntryField(size_t entry, size_t field_offset) {
    return bundle::kBinaryHeaderBytes +
           entry * bundle::kBinarySectionEntryBytes + field_offset;
  }

  static void ExpectError(const std::string& bytes,
                          const std::string& needle) {
    auto loaded = bundle::MappedBundle::FromBytes(bytes);
    ASSERT_FALSE(loaded.ok()) << "corrupt binary bundle parsed successfully";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().ToString();
  }

  std::string bytes_;
};

TEST_F(BinaryCorruptionTest, IntactBytesParse) {
  EXPECT_TRUE(bundle::ParseBinaryLayout(bytes_).ok());
  EXPECT_TRUE(bundle::MappedBundle::FromBytes(bytes_).ok());
}

TEST_F(BinaryCorruptionTest, BadMagic) {
  std::string corrupt = bytes_;
  corrupt[0] = 'x';
  ExpectError(corrupt, "bad magic");
}

TEST_F(BinaryCorruptionTest, TruncatedHeader) {
  ExpectError(bytes_.substr(0, 32), "shorter than its fixed header");
}

TEST_F(BinaryCorruptionTest, UnsupportedVersion) {
  std::string corrupt = bytes_;
  StoreU32(&corrupt, 12, 9);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "unsupported binary bundle version 9");
}

TEST_F(BinaryCorruptionTest, HeaderCrcCatchesFlippedHeaderByte) {
  std::string corrupt = bytes_;
  // A flip in the declared payload offset must be caught by the header CRC
  // before the field is trusted by any placement check.
  corrupt[24] ^= 0x01;
  ExpectError(corrupt, "header crc mismatch");
}

TEST_F(BinaryCorruptionTest, LengthMismatchOnTruncation) {
  // Dropping trailing bytes leaves the header CRC intact but breaks the
  // declared total length.
  ExpectError(bytes_.substr(0, bytes_.size() - 1), "length mismatch");
}

TEST_F(BinaryCorruptionTest, ImplausibleSectionCount) {
  std::string corrupt = bytes_;
  StoreU32(&corrupt, 16, bundle::kBinaryMaxSections + 1);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "implausible binary bundle section count");
}

TEST_F(BinaryCorruptionTest, BadTableOffset) {
  std::string corrupt = bytes_;
  StoreU32(&corrupt, 20, 128);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "section-table offset");
}

TEST_F(BinaryCorruptionTest, TableCrcCatchesFlippedTableByte) {
  std::string corrupt = bytes_;
  // Flip a byte of entry 0's declared payload CRC without refreshing the
  // table CRC: the table-level checksum must notice.
  corrupt[EntryField(0, 40)] ^= 0x01;
  StoreU32(&corrupt, 60,
           bundle::Crc32(std::string_view(corrupt).substr(0, 60)));
  ExpectError(corrupt, "section table crc mismatch");
}

TEST_F(BinaryCorruptionTest, UnknownSectionName) {
  std::string corrupt = bytes_;
  char name[bundle::kBinarySectionNameBytes] = {};
  std::memcpy(name, "mystery", 7);
  corrupt.replace(EntryField(0, 0), sizeof(name), name, sizeof(name));
  FixCrcs(&corrupt);
  ExpectError(corrupt, "unknown bundle section 'mystery'");
}

TEST_F(BinaryCorruptionTest, DuplicateSectionName) {
  std::string corrupt = bytes_;
  // Entry 1 takes entry 0's name ("teacher"); its offset/size stay its own,
  // but the duplicate check fires before any placement check.
  corrupt.replace(EntryField(1, 0), bundle::kBinarySectionNameBytes,
                  corrupt, EntryField(0, 0),
                  bundle::kBinarySectionNameBytes);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "duplicate bundle section 'teacher'");
}

TEST_F(BinaryCorruptionTest, SectionsOutOfCanonicalOrder) {
  std::string corrupt = bytes_;
  // Swap the *name fields* of entries 0 and 1 (offsets and sizes stay put,
  // so placement stays valid and only the ordering rule is violated).
  const std::string name0 =
      corrupt.substr(EntryField(0, 0), bundle::kBinarySectionNameBytes);
  const std::string name1 =
      corrupt.substr(EntryField(1, 0), bundle::kBinarySectionNameBytes);
  corrupt.replace(EntryField(0, 0), bundle::kBinarySectionNameBytes, name1);
  corrupt.replace(EntryField(1, 0), bundle::kBinarySectionNameBytes, name0);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "out of canonical order");
}

TEST_F(BinaryCorruptionTest, MisalignedSectionOffset) {
  std::string corrupt = bytes_;
  uint64_t offset = 0;
  std::memcpy(&offset, corrupt.data() + EntryField(1, 24), sizeof(offset));
  StoreU64(&corrupt, EntryField(1, 24), offset + 1);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "misaligned binary section offset");
}

TEST_F(BinaryCorruptionTest, GapBetweenSections) {
  std::string corrupt = bytes_;
  uint64_t offset = 0;
  std::memcpy(&offset, corrupt.data() + EntryField(1, 24), sizeof(offset));
  StoreU64(&corrupt, EntryField(1, 24), offset + kSimdAlignment);
  FixCrcs(&corrupt);
  ExpectError(corrupt, "overlaps or leaves a gap");
}

TEST_F(BinaryCorruptionTest, ForgedHugeSizeIsCaughtOverflowSafely) {
  std::string corrupt = bytes_;
  // A declared size near 2^64 makes `offset + size` wrap past the file end;
  // the overflow-safe `size > file - offset` form must still reject it (and
  // must reject it *before* the aligned-end arithmetic that would also
  // wrap). The last section is forged so no later placement check can fire
  // first and mask a regression.
  StoreU64(&corrupt, EntryField(3, 32), ~uint64_t{0});
  FixCrcs(&corrupt);
  ExpectError(corrupt, "truncated binary section 'rungs'");
}

TEST_F(BinaryCorruptionTest, TrailingBytes) {
  std::string corrupt = bytes_;
  corrupt.append(kSimdAlignment, '\0');
  StoreU64(&corrupt, 32, corrupt.size());
  FixCrcs(&corrupt);
  ExpectError(corrupt, "trailing bytes after the last section");
}

TEST_F(BinaryCorruptionTest, FlippedPayloadByteDefersToDeepValidation) {
  auto layout = bundle::ParseBinaryLayout(bytes_);
  ASSERT_TRUE(layout.ok());
  std::string corrupt = bytes_;
  // Flip a byte squarely inside section 0's payload (not in alignment
  // padding, which no CRC covers).
  const bundle::SectionRange& teacher = layout->front();
  ASSERT_GT(teacher.size, 2u);
  corrupt[teacher.offset + teacher.size / 2] ^= 0x20;

  // The cheap structural pass — what every map and hot swap pays — does not
  // scan payloads, so opening still accepts the bytes...
  EXPECT_TRUE(bundle::ParseBinaryLayout(corrupt).ok());
  auto loaded = bundle::MappedBundle::FromBytes(corrupt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // ...while the deferred CRC sweep `dnlr_cli bundle verify` runs catches
  // the flip and names the section.
  const Status crcs = loaded->VerifyPayloadCrcs();
  ASSERT_FALSE(crcs.ok());
  EXPECT_EQ(crcs.code(), StatusCode::kParseError);
  EXPECT_NE(crcs.message().find("crc mismatch in section 'teacher'"),
            std::string::npos)
      << crcs.ToString();
}

// ---------------------------------------------------------------------------
// MappedFile

TEST(MappedFileTest, MissingFileAndDirectoryAreIoErrors) {
  auto missing = common::MappedFile::Open(TempPath("no_such_file.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  auto directory = common::MappedFile::Open(::testing::TempDir());
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kIoError);
}

TEST(MappedFileTest, EmptyFileMapsAsEmptyView) {
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "").ok());
  auto file = common::MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), 0u);
  EXPECT_TRUE(file->view().empty());
}

TEST(MappedFileTest, MappedAndFallbackReadsAgree) {
  const std::string path = TempPath("mapped_vs_read.bin");
  std::string payload = "binary\0payload\xff with embedded NULs";
  payload.resize(37);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());

  auto mapped = common::MappedFile::Open(path, /*prefer_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto fallback = common::MappedFile::Open(path, /*prefer_mmap=*/false);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();

  EXPECT_FALSE(fallback->is_mapped());
#ifndef _WIN32
  EXPECT_TRUE(mapped->is_mapped());
#endif
  EXPECT_EQ(mapped->view(), std::string_view(payload));
  EXPECT_EQ(fallback->view(), std::string_view(payload));
}

TEST(MappedFileTest, MoveKeepsTheViewValid) {
  const std::string path = TempPath("moved.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "move me").ok());
  for (const bool prefer_mmap : {true, false}) {
    auto opened = common::MappedFile::Open(path, prefer_mmap);
    ASSERT_TRUE(opened.ok());
    common::MappedFile moved(std::move(*opened));
    // The fallback path in particular must re-point its view at the moved
    // buffer rather than dangle into the moved-from string.
    EXPECT_EQ(moved.view(), std::string_view("move me"));
    common::MappedFile assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.view(), std::string_view("move me"));
  }
}

// ---------------------------------------------------------------------------
// MappedBundle odds and ends

TEST(MappedBundleTest, AbsentSectionsReportNotFound) {
  bundle::ModelBundle pack;
  Rng rng(17);
  ASSERT_TRUE(pack.SetTeacher(RandomEnsemble(rng, 3, 8, 5)).ok());
  ASSERT_TRUE(pack.SetRungs(TestRungs()).ok());
  const std::string path = TempPath("partial.dnlr.bin");
  ASSERT_TRUE(pack.SaveToFile(path, bundle::BundleFormat::kBinary).ok());

  auto mapped = bundle::MappedBundle::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->HasSection(bundle::kTeacherSection));
  EXPECT_FALSE(mapped->HasSection(bundle::kStudentSection));
  EXPECT_TRUE(mapped->FindSectionView(bundle::kStudentSection).empty());
  auto student = mapped->Student();
  ASSERT_FALSE(student.ok());
  EXPECT_EQ(student.status().code(), StatusCode::kNotFound);
  auto normalizer = mapped->Normalizer();
  ASSERT_FALSE(normalizer.ok());
  EXPECT_EQ(normalizer.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Serving parity: a Servable loaded from the binary container reproduces
// the text-loaded ladder's scores bitwise, over mmap and the read fallback.

TEST(ServableParityTest, BinaryLoadScoresBitwiseIdenticallyToText) {
  const uint32_t num_features = 6;
  const bundle::ModelBundle pack = MakeFullBundle(3, num_features);
  const std::string text_path = TempPath("parity.dnlr");
  const std::string binary_path = TempPath("parity.dnlr.bin");
  ASSERT_TRUE(pack.SaveToFile(text_path).ok());
  ASSERT_TRUE(pack.SaveToFile(binary_path,
                              bundle::BundleFormat::kBinary).ok());

  serve::ServableOptions options;
  options.num_features = num_features;
  auto from_text = serve::Servable::LoadFromFile(text_path, options);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();

  constexpr uint32_t kDocs = 64;
  Rng rng(99);
  std::vector<float> docs(kDocs * num_features);
  for (float& value : docs) value = static_cast<float>(rng.Normal());
  auto golden = serve::CaptureGoldenScores((*from_text)->ladder(),
                                           docs.data(), kDocs, num_features);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  for (const bool prefer_mmap : {true, false}) {
    options.prefer_mmap = prefer_mmap;
    auto from_binary = serve::Servable::LoadFromFile(binary_path, options);
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    EXPECT_TRUE(serve::RunGoldenSmoke((*from_binary)->ladder(), docs.data(),
                                      kDocs, num_features, &*golden)
                    .ok())
        << "prefer_mmap=" << prefer_mmap;
  }
}

TEST(ServableParityTest, FlippedTextPayloadByteFailsCrcAtLoad) {
  // Text bundles are checked eagerly: serving never sees a flipped byte.
  std::string bytes = MakeFullBundle(4, 6).Serialize();
  const size_t payload = bytes.find("\npayload\n") + 9;
  bytes[payload + (bytes.size() - payload) / 2] ^= 0x20;
  const std::string path = TempPath("flipped_payload.dnlr");
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto loaded = serve::Servable::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("crc mismatch"), std::string::npos)
      << loaded.status().ToString();
}

// ---------------------------------------------------------------------------
// Crash-point atomicity of binary saves

TEST(BinaryAtomicWriteTest, PreRenameCrashesNeverTearThePublishedBundle) {
  const std::string path = TempPath("crashy_binary.dnlr.bin");
  const bundle::ModelBundle original = MakeFullBundle(7, 5);
  const bundle::ModelBundle replacement = MakeFullBundle(8, 5);
  ASSERT_TRUE(original.SaveToFile(path, bundle::BundleFormat::kBinary).ok());
  const std::string original_bytes = BinaryBytes(original);
  const std::string replacement_bytes = BinaryBytes(replacement);

  for (const WriteCrashPoint crash :
       {WriteCrashPoint::kAfterOpen, WriteCrashPoint::kMidWrite,
        WriteCrashPoint::kBeforeRename}) {
    AtomicWriteOptions options;
    options.crash_point = crash;
    EXPECT_FALSE(AtomicWriteFile(path, replacement_bytes, options).ok());
    auto surviving = ReadFileToString(path);
    ASSERT_TRUE(surviving.ok());
    EXPECT_EQ(*surviving, original_bytes)
        << "crash point " << static_cast<int>(crash)
        << " tore the published binary bundle";
    // And the survivor still maps and deep-validates.
    auto mapped = bundle::MappedBundle::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->VerifyPayloadCrcs().ok());
  }
}

TEST(BinaryAtomicWriteTest, AfterRenameCrashPublishesButReportsFailure) {
  const std::string path = TempPath("crashy_binary_rename.dnlr.bin");
  const bundle::ModelBundle original = MakeFullBundle(7, 5);
  const bundle::ModelBundle replacement = MakeFullBundle(8, 5);
  ASSERT_TRUE(original.SaveToFile(path, bundle::BundleFormat::kBinary).ok());
  const std::string replacement_bytes = BinaryBytes(replacement);

  AtomicWriteOptions options;
  options.crash_point = WriteCrashPoint::kAfterRename;
  const Status status = AtomicWriteFile(path, replacement_bytes, options);
  // The rename happened, so readers already see the new bytes — but the
  // parent directory was never synced, so durability is not guaranteed and
  // the write must report failure (callers retry the publish).
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  auto published = ReadFileToString(path);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, replacement_bytes);
  auto mapped = bundle::MappedBundle::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(Fingerprint(*mapped), Fingerprint(replacement));
}

}  // namespace
}  // namespace dnlr
