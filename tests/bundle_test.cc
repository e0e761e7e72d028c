// Model-bundle tests: CRC32 known answers, bitwise-exact serialization
// round-trips of random models (under the classic AND a comma-decimal
// global locale), the corruption suite (every tampering mode must yield its
// own distinct parse error, never a half-loaded model), and crash-point
// atomicity of the temp-file + rename writer (a simulated kill -9 at any
// stage leaves the published path untouched).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <locale>
#include <string>
#include <utility>
#include <vector>

#include "bundle/bundle.h"
#include "bundle/crc32.h"
#include "bundle/mapped_bundle.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"
#include "predict/architecture.h"

namespace dnlr {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// Random binary tree with `leaves` leaves (same construction as the engine
/// property tests: random structures reach shapes training rarely makes).
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

/// A complete 4-section bundle over random models.
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

/// Scoped global-locale override with a comma decimal point — the hostile
/// environment a service inherits from e.g. a de_DE host. A custom facet
/// keeps the test independent of which OS locales are installed.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaNumpunct))) {}
  ~ScopedCommaLocale() { std::locale::global(previous_); }

 private:
  struct CommaNumpunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::locale previous_;
};

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Re-packs everything a reader decoded through the typed setters, so the
/// writer's canonical bytes can be compared with what went in.
bundle::ModelBundle Repack(const bundle::MappedBundle& loaded) {
  bundle::ModelBundle pack;
  EXPECT_TRUE(bundle::RepackSections(loaded, &pack).ok());
  return pack;
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, KnownAnswers) {
  // The IEEE 802.3 / zlib check value.
  EXPECT_EQ(bundle::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(bundle::Crc32(""), 0u);
  EXPECT_EQ(bundle::Crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    crc = bundle::Crc32Update(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, bundle::Crc32(data));
}

// ---------------------------------------------------------------------------
// Round trips

class BundleRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BundleRoundTripTest, SerializeDeserializeIsBitwiseExact) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const uint32_t num_features = 4 + static_cast<uint32_t>(seed % 5);
  const bundle::ModelBundle pack = MakeFullBundle(seed, num_features);
  const std::string bytes = pack.Serialize();

  auto restored = bundle::MappedBundle::FromBytes(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->format(), bundle::BundleFormat::kText);
  ASSERT_EQ(restored->layout().size(), pack.sections().size());
  for (size_t s = 0; s < pack.sections().size(); ++s) {
    const bundle::Section& section = pack.sections()[s];
    EXPECT_EQ(restored->layout()[s].name, section.name);
    // Bitwise: the payload bytes survive the container unchanged.
    EXPECT_EQ(restored->FindSectionView(section.name), section.payload);
  }
  // And decode + re-pack reproduces the container byte for byte.
  EXPECT_EQ(Repack(*restored).Serialize(), bytes);
}

TEST_P(BundleRoundTripTest, ModelsScoreBitwiseIdenticallyAfterRoundTrip) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const uint32_t num_features = 6;
  Rng rng(seed * 7919 + 1);
  const gbdt::Ensemble teacher = RandomEnsemble(rng, 5, 16, num_features);
  const nn::Mlp student(predict::Architecture(num_features, {12, 6}),
                        seed + 2);

  bundle::ModelBundle pack;
  ASSERT_TRUE(pack.SetTeacher(teacher).ok());
  ASSERT_TRUE(pack.SetStudent(student).ok());
  auto restored = bundle::MappedBundle::FromBytes(pack.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto teacher2 = restored->Teacher();
  auto student2 = restored->Student();
  ASSERT_TRUE(teacher2.ok()) << teacher2.status().ToString();
  ASSERT_TRUE(student2.ok()) << student2.status().ToString();

  for (int d = 0; d < 25; ++d) {
    std::vector<float> row(num_features);
    for (float& value : row) value = static_cast<float>(rng.Normal(0.0, 2.0));
    const double t1 = teacher.Score(row.data());
    const double t2 = teacher2->Score(row.data());
    EXPECT_EQ(std::memcmp(&t1, &t2, sizeof(double)), 0)
        << "teacher score diverged, seed " << seed << " doc " << d;
    const float s1 = student.ForwardOne(row.data());
    const float s2 = student2->ForwardOne(row.data());
    EXPECT_EQ(std::memcmp(&s1, &s2, sizeof(float)), 0)
        << "student score diverged, seed " << seed << " doc " << d;
  }
}

TEST_P(BundleRoundTripTest, RoundTripSurvivesCommaDecimalGlobalLocale) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const uint32_t num_features = 5;

  // Reference bytes produced under the classic locale...
  Rng rng(seed * 31 + 7);
  const gbdt::Ensemble teacher = RandomEnsemble(rng, 4, 16, num_features);
  const nn::Mlp student(predict::Architecture(num_features, {8, 4}),
                        seed + 3);
  auto teacher_text = teacher.Serialize();
  auto student_text = student.Serialize();
  ASSERT_TRUE(teacher_text.ok());
  ASSERT_TRUE(student_text.ok());

  // ...must be reproduced and re-parsed identically when the process-global
  // locale prints decimals with commas. Before the classic-locale imbue
  // this produced tokens like "0,5" that operator>> could not read back.
  ScopedCommaLocale comma;
  auto teacher_text2 = teacher.Serialize();
  auto student_text2 = student.Serialize();
  ASSERT_TRUE(teacher_text2.ok());
  ASSERT_TRUE(student_text2.ok());
  EXPECT_EQ(*teacher_text2, *teacher_text);
  EXPECT_EQ(*student_text2, *student_text);

  auto teacher2 = gbdt::Ensemble::Deserialize(*teacher_text2);
  auto student2 = nn::Mlp::Deserialize(*student_text2);
  ASSERT_TRUE(teacher2.ok()) << teacher2.status().ToString();
  ASSERT_TRUE(student2.ok()) << student2.status().ToString();
  for (int d = 0; d < 10; ++d) {
    std::vector<float> row(num_features);
    for (float& value : row) value = static_cast<float>(rng.Normal());
    EXPECT_EQ(teacher2->Score(row.data()), teacher.Score(row.data()));
    const float s1 = student.ForwardOne(row.data());
    const float s2 = student2->ForwardOne(row.data());
    EXPECT_EQ(std::memcmp(&s1, &s2, sizeof(float)), 0);
  }

  // The whole bundle round-trips under the hostile locale too.
  const bundle::ModelBundle pack = MakeFullBundle(seed, num_features);
  auto restored = bundle::MappedBundle::FromBytes(pack.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Repack(*restored).Serialize(), pack.Serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BundleRoundTripTest, ::testing::Range(0, 8));

TEST(SerializeTest, NonFiniteWeightsRejectedAtSaveTime) {
  nn::Mlp mlp(predict::Architecture(4, {3}), 11);
  mlp.layer(0).weight.data()[2] = std::numeric_limits<float>::quiet_NaN();
  auto text = mlp.Serialize();
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(text.status().message().find("non-finite"), std::string::npos);

  gbdt::Ensemble ensemble(std::numeric_limits<double>::infinity());
  Rng rng(3);
  ensemble.AddTree(RandomTree(rng, 4, 3));
  auto etext = ensemble.Serialize();
  ASSERT_FALSE(etext.ok());
  EXPECT_EQ(etext.status().code(), StatusCode::kInvalidArgument);
}

TEST(RungConfigTest, RejectsIncreasingCosts) {
  bundle::RungConfig config;
  config.rungs = {{"a", "student", 1.0}, {"b", "teacher", 2.0}};
  auto text = config.Serialize();
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Corruption suite: each tampering mode yields its own distinct ParseError.

class BundleCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = MakeFullBundle(/*seed=*/5, /*num_features=*/6).Serialize();
  }

  static Status DeserializeError(const std::string& bytes) {
    auto result = bundle::MappedBundle::FromBytes(bytes);
    EXPECT_FALSE(result.ok()) << "corrupt bundle parsed successfully";
    return result.status();
  }

  std::string bytes_;
};

TEST_F(BundleCorruptionTest, IntactBytesParse) {
  EXPECT_TRUE(bundle::MappedBundle::FromBytes(bytes_).ok());
}

TEST_F(BundleCorruptionTest, BadMagic) {
  std::string corrupt = bytes_;
  corrupt.replace(0, std::strlen("dnlrbundle"), "notabundle");
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("bad magic"), std::string::npos);
}

TEST_F(BundleCorruptionTest, UnsupportedVersion) {
  std::string corrupt = bytes_;
  const std::string header = "dnlrbundle 1";
  corrupt.replace(0, header.size(), "dnlrbundle 9");
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("unsupported bundle version"),
            std::string::npos);
}

TEST_F(BundleCorruptionTest, FlippedPayloadByteFailsCrc) {
  std::string corrupt = bytes_;
  // Flip one byte in the middle of the payload region (well past the
  // header), leaving every declared length intact.
  const size_t payload = corrupt.find("\npayload\n") + 9;
  corrupt[payload + (corrupt.size() - payload) / 2] ^= 0x20;
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("crc mismatch"), std::string::npos);
}

TEST_F(BundleCorruptionTest, FlippedCrcByteInHeaderFailsCrc) {
  std::string corrupt = bytes_;
  // The first section header line ends with the 8-hex-digit CRC; flipping
  // one of its digits must be caught even though the payload is intact.
  const size_t line_end = corrupt.find('\n', corrupt.find("section "));
  ASSERT_NE(line_end, std::string::npos);
  corrupt[line_end - 1] = corrupt[line_end - 1] == '0' ? '1' : '0';
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("crc mismatch"), std::string::npos);
}

TEST_F(BundleCorruptionTest, TruncatedSection) {
  const Status status =
      DeserializeError(bytes_.substr(0, bytes_.size() - 10));
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("truncated section"), std::string::npos);
}

TEST_F(BundleCorruptionTest, TrailingBytes) {
  const Status status = DeserializeError(bytes_ + "garbage");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("trailing bytes"), std::string::npos);
}

TEST_F(BundleCorruptionTest, SectionsOutOfCanonicalOrder) {
  // Hand-built header declaring student before teacher.
  const std::string a = "teacher-bytes";
  const std::string b = "student-bytes";
  std::string corrupt = "dnlrbundle 1 2\n";
  corrupt += "section student " + std::to_string(b.size()) + " " +
             [&] {
               char buf[16];
               std::snprintf(buf, sizeof(buf), "%08x", bundle::Crc32(b));
               return std::string(buf);
             }() +
             "\n";
  corrupt += "section teacher " + std::to_string(a.size()) + " " +
             [&] {
               char buf[16];
               std::snprintf(buf, sizeof(buf), "%08x", bundle::Crc32(a));
               return std::string(buf);
             }() +
             "\n";
  corrupt += "payload\n" + b + a;
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("out of canonical order"),
            std::string::npos);
}

TEST_F(BundleCorruptionTest, DuplicateSection) {
  std::string corrupt = "dnlrbundle 1 2\n";
  const std::string payload = "x";
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", bundle::Crc32(payload));
  const std::string line = "section rungs 1 " + std::string(crc) + "\n";
  corrupt += line + line + "payload\n" + payload + payload;
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("duplicate bundle section"),
            std::string::npos);
}

TEST_F(BundleCorruptionTest, UnknownSection) {
  std::string corrupt = "dnlrbundle 1 1\n";
  corrupt += "section mystery 1 00000000\npayload\nx";
  const Status status = DeserializeError(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("unknown bundle section"),
            std::string::npos);
}

TEST_F(BundleCorruptionTest, MalformedHeader) {
  const Status status = DeserializeError("dnlrbundle one 1\n");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("malformed bundle header"),
            std::string::npos);
}

TEST_F(BundleCorruptionTest, ForgedHugeSectionSizeReportsTruncated) {
  // `operator>>` into a size_t happily reads "-1" as SIZE_MAX without
  // setting failbit, and the old `offset + size > total` bounds check then
  // wrapped past the file end and waved the forged size through to a
  // clamped substr. The overflow-safe check must reject both spellings
  // with a clean truncation error, not a downstream crc/trailing-bytes
  // artifact.
  for (const char* forged : {"-1", "18446744073709551615", "9999999999"}) {
    const std::string corrupt = "dnlrbundle 1 1\nsection teacher " +
                                std::string(forged) +
                                " 00000000\npayload\nx";
    const Status status = DeserializeError(corrupt);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("truncated section 'teacher'"),
              std::string::npos)
        << "forged size " << forged << ": " << status.ToString();
  }
}

TEST_F(BundleCorruptionTest, NonCanonicalCrcFieldsAreMalformed) {
  // The crc field is exactly 8 hex digits. strtoul used to accept sign
  // prefixes, "0x", leading whitespace, and overlong digit strings — all
  // of which now fail parsing instead of silently normalizing.
  const std::string payload = "x";
  char canonical[16];
  std::snprintf(canonical, sizeof(canonical), "%08x",
                bundle::Crc32(payload));
  for (const char* field : {"-0000001", "+0000001", "0x123456", "123456789",
                            "1234567", "0000000g"}) {
    const std::string corrupt = "dnlrbundle 1 1\nsection teacher 1 " +
                                std::string(field) + "\npayload\n" + payload;
    const Status status = DeserializeError(corrupt);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("malformed crc"), std::string::npos)
        << "crc field '" << field << "': " << status.ToString();
  }
  // The canonical spelling (and its uppercase twin) still parses.
  const std::string good = "dnlrbundle 1 1\nsection teacher 1 " +
                           std::string(canonical) + "\npayload\n" + payload;
  EXPECT_TRUE(bundle::MappedBundle::FromBytes(good).ok());
  std::string upper = canonical;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const std::string good_upper = "dnlrbundle 1 1\nsection teacher 1 " +
                                 upper + "\npayload\n" + payload;
  EXPECT_TRUE(bundle::MappedBundle::FromBytes(good_upper).ok());
}

// ---------------------------------------------------------------------------
// Declared counts in the text parsers: a few forged bytes must fail to parse,
// not abort the process allocating what the count asks for.

void ExpectParseError(const Status& status, const std::string& needle) {
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.ToString();
}

TEST(TextCountBoundsTest, ContainerHeaderSectionCount) {
  for (const char* header :
       {"dnlrbundle 1 4000000000000\npayload\n", "dnlrbundle 1 5\n"}) {
    auto result = bundle::MappedBundle::FromBytes(header);
    ASSERT_FALSE(result.ok()) << header;
    ExpectParseError(result.status(), "implausible bundle section count");
  }
}

TEST(TextCountBoundsTest, RungCount) {
  auto result = bundle::RungConfig::Deserialize("rungs 4000000000000\n");
  ASSERT_FALSE(result.ok());
  ExpectParseError(result.status(), "more than its text holds");
}

TEST(TextCountBoundsTest, NormalizerFeatureCount) {
  auto result = bundle::DeserializeNormalizer("znorm 4000000000000\n1 2\n");
  ASSERT_FALSE(result.ok());
  ExpectParseError(result.status(), "more than its text holds");
}

TEST(TextCountBoundsTest, MlpWeightCount) {
  // A weight matrix of 4e10 floats, an architecture list of 4e12 widths,
  // u32-max widths whose product needs all 64 bits, and the empty shapes
  // the Mlp constructor refuses.
  const std::pair<const char*, const char*> cases[] = {
      {"mlp 200000 1 200000\n", "more weights and biases than its text"},
      {"mlp 4 4000000000000\n", "truncated architecture"},
      {"mlp 4294967295 2 4294967295 4294967295\n",
       "more weights and biases than its text"},
      {"mlp 0 1 4\n", "implausible mlp architecture header"},
      {"mlp 4 0\n", "implausible mlp architecture header"},
      {"mlp 4 1 0\n", "implausible mlp layer width"}};
  for (const auto& [text, needle] : cases) {
    auto result = nn::Mlp::Deserialize(text);
    ASSERT_FALSE(result.ok()) << text;
    ExpectParseError(result.status(), needle);
  }
}

TEST(TextCountBoundsTest, EnsembleTreeSize) {
  for (const char* text : {"ensemble 1 0\ntree 4000000000000 1\n",
                           "ensemble 1 0\ntree 0 4000000000000\n",
                           "ensemble 1 0\ntree 2 3\nnode 0 0 -1 -2\n"}) {
    auto result = gbdt::Ensemble::Deserialize(text);
    ASSERT_FALSE(result.ok()) << text;
    ExpectParseError(result.status(), "declares more nodes and leaves");
  }
}

// ---------------------------------------------------------------------------
// Crash-point atomicity

TEST(AtomicWriteTest, CrashAtAnyPointNeverTearsThePublishedFile) {
  const std::string path = TempPath("crashy.bundle");
  const bundle::ModelBundle original = MakeFullBundle(9, 5);
  ASSERT_TRUE(original.SaveToFile(path).ok());
  const std::string good_bytes = original.Serialize();

  const bundle::ModelBundle replacement = MakeFullBundle(10, 5);
  for (const WriteCrashPoint crash :
       {WriteCrashPoint::kAfterOpen, WriteCrashPoint::kMidWrite,
        WriteCrashPoint::kBeforeRename}) {
    AtomicWriteOptions options;
    options.crash_point = crash;
    const Status status =
        AtomicWriteFile(path, replacement.Serialize(), options);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);

    // The published path still holds the previous, fully valid bundle.
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, good_bytes)
        << "crash point " << static_cast<int>(crash)
        << " tore the published file";
    EXPECT_TRUE(bundle::MappedBundle::Map(path).ok());
  }

  // Without a crash the same write goes through and fully replaces it.
  ASSERT_TRUE(AtomicWriteFile(path, replacement.Serialize()).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, replacement.Serialize());
}

TEST(AtomicWriteTest, CrashAfterRenamePublishesButReportsFailure) {
  // The durability hole the parent-directory fsync closes: a crash between
  // the rename and that sync leaves the new content visible to live
  // readers, but a power loss could still roll the directory entry back.
  // AtomicWriteFile therefore reports IoError from this window — callers
  // that need durability must treat the publish as failed and retry — even
  // though the path already holds the new bytes.
  const std::string path = TempPath("crashy-after-rename.bundle");
  const bundle::ModelBundle original = MakeFullBundle(9, 5);
  const bundle::ModelBundle replacement = MakeFullBundle(10, 5);
  ASSERT_TRUE(original.SaveToFile(path).ok());

  AtomicWriteOptions options;
  options.crash_point = WriteCrashPoint::kAfterRename;
  const Status status =
      AtomicWriteFile(path, replacement.Serialize(), options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, replacement.Serialize());
  EXPECT_TRUE(bundle::MappedBundle::Map(path).ok());
}

TEST(AtomicWriteTest, CrashOnFirstWriteLeavesNoFile) {
  const std::string path = TempPath("never-published.bundle");
  std::filesystem::remove(path);
  for (const WriteCrashPoint crash :
       {WriteCrashPoint::kAfterOpen, WriteCrashPoint::kMidWrite,
        WriteCrashPoint::kBeforeRename}) {
    AtomicWriteOptions options;
    options.crash_point = crash;
    EXPECT_FALSE(AtomicWriteFile(path, "payload", options).ok());
    EXPECT_FALSE(std::filesystem::exists(path))
        << "crash point " << static_cast<int>(crash)
        << " published a partial file";
  }
  EXPECT_TRUE(AtomicWriteFile(path, "payload").ok());
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(BundleFileTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.bundle");
  const bundle::ModelBundle pack = MakeFullBundle(21, 7);
  ASSERT_TRUE(pack.SaveToFile(path).ok());
  auto loaded = bundle::MappedBundle::Map(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Repack(*loaded).Serialize(), pack.Serialize());
  EXPECT_TRUE(loaded->Teacher().ok());
  EXPECT_TRUE(loaded->Student().ok());
  EXPECT_TRUE(loaded->Normalizer().ok());
  ASSERT_TRUE(loaded->Rungs().ok());
  EXPECT_EQ(loaded->Rungs()->rungs.size(), 3u);
}

TEST(BundleFileTest, MissingSectionsReportNotFound) {
  bundle::ModelBundle empty_teacher;
  ASSERT_TRUE(empty_teacher.SetRungs(TestRungs()).ok());
  auto restored = bundle::MappedBundle::FromBytes(empty_teacher.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Teacher().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(restored->Student().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(restored->Normalizer().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(restored->Rungs().ok());
}

}  // namespace
}  // namespace dnlr
