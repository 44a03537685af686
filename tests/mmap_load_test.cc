// Zero-copy load equivalence tests: a v3 container loaded through an mmap
// backing, a v3 container loaded from a plain buffer, and a v2 interchange
// container must answer every query bit-identically to the freshly built
// index. Also pins the ownership contract (a loaded index can never dangle
// into the caller's buffer) and the load provenance flags the compact v3
// fast path reports.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/serde.h"
#include "core/substring_index.h"
#include "engine/sharded_index.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace pti {
namespace {

UncertainString TestString(uint64_t seed, int64_t length = 60) {
  test::RandomStringSpec spec;
  spec.length = length;
  spec.alphabet = 3;
  spec.seed = seed;
  UncertainString s = test::RandomUncertain(spec);
  test::AddRandomCorrelations(&s, 3, seed * 31 + 7);
  return s;
}

std::vector<std::string> TestPatterns(const UncertainString& s) {
  std::vector<std::string> patterns;
  for (uint64_t k = 0; k < 8; ++k) {
    const size_t len = 1 + k % 5;
    const int64_t start = static_cast<int64_t>(
        (k * 131) % static_cast<uint64_t>(s.size() - len));
    patterns.push_back(test::PatternFromString(s, start, len, k + 1));
  }
  patterns.push_back("zzz");  // absent
  return patterns;
}

/// Bit-identical match lists: positions and probabilities compare with ==.
void ExpectIdentical(const std::vector<Match>& want,
                     const std::vector<Match>& got, const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].position, got[i].position) << label << " entry " << i;
    EXPECT_EQ(want[i].probability, got[i].probability)
        << label << " entry " << i;
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "pti_mmap_load_" + name;
}

void WriteWhole(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  ASSERT_TRUE(out.good()) << path;
}

class MmapLoadTest : public ::testing::TestWithParam<bool> {};

// The tentpole acceptance property: v2, v3-from-buffer and v3-from-mmap
// loads agree bit-for-bit with the built index on every query, in both tree
// and compact mode.
TEST_P(MmapLoadTest, QueriesBitIdenticalAcrossFormatsAndBackings) {
  const bool compact = GetParam();
  const UncertainString s = TestString(2026);
  IndexOptions options;
  options.transform.tau_min = 0.05;
  options.compact = compact;
  auto built = SubstringIndex::Build(s, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  std::string v2_blob, v3_blob;
  ASSERT_TRUE(built->Save(&v2_blob, serde::kInterchangeVersion).ok());
  ASSERT_TRUE(built->Save(&v3_blob).ok());
  const std::string path =
      TempPath(compact ? "compact.pti" : "tree.pti");
  WriteWhole(path, v3_blob);

  auto v2 = SubstringIndex::Load(v2_blob);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  auto v3_copy = SubstringIndex::Load(v3_blob);
  ASSERT_TRUE(v3_copy.ok()) << v3_copy.status().ToString();
  auto mapped = serde::MapFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto v3_mmap = SubstringIndex::Load((*mapped)->view(), *mapped);
  ASSERT_TRUE(v3_mmap.ok()) << v3_mmap.status().ToString();

  for (const std::string& pattern : TestPatterns(s)) {
    for (const double tau : {0.05, 0.2, 0.6}) {
      std::vector<Match> want, got;
      const Status base = built->Query(pattern, tau, &want);
      ASSERT_TRUE(base.ok()) << base.ToString();
      ASSERT_TRUE(v2->Query(pattern, tau, &got).ok());
      ExpectIdentical(want, got, "v2 " + pattern);
      ASSERT_TRUE(v3_copy->Query(pattern, tau, &got).ok());
      ExpectIdentical(want, got, "v3-copy " + pattern);
      ASSERT_TRUE(v3_mmap->Query(pattern, tau, &got).ok());
      ExpectIdentical(want, got, "v3-mmap " + pattern);

      FuzzyParams params;
      params.k = 1;
      std::vector<Match> fwant, fgot;
      const Status fuzzy = built->QueryFuzzy(pattern, tau, params, &fwant);
      if (fuzzy.ok()) {
        ASSERT_TRUE(v2->QueryFuzzy(pattern, tau, params, &fgot).ok());
        ExpectIdentical(fwant, fgot, "fuzzy v2 " + pattern);
        ASSERT_TRUE(v3_mmap->QueryFuzzy(pattern, tau, params, &fgot).ok());
        ExpectIdentical(fwant, fgot, "fuzzy v3-mmap " + pattern);
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(TreeAndCompact, MmapLoadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Compact" : "Tree";
                         });

// Compact v3 loads must take the validate-and-point fast path (no SA-IS, no
// FM-index rebuild), and report themselves zero-copy; a v2 load of the same
// index rebuilds everything and retains nothing.
TEST(MmapLoadProvenanceTest, CompactV3UsesPersistedDerivedSections) {
  const UncertainString s = TestString(7);
  IndexOptions options;
  options.compact = true;
  auto built = SubstringIndex::Build(s, options);
  ASSERT_TRUE(built.ok());

  std::string v3_blob;
  ASSERT_TRUE(built->Save(&v3_blob).ok());
  auto v3 = SubstringIndex::Load(v3_blob);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_TRUE(SubstringIndexTestPeer::SaLoadedFromSection(*v3));
  EXPECT_TRUE(SubstringIndexTestPeer::DerivedLoadedFromSections(*v3));
  EXPECT_TRUE(SubstringIndexTestPeer::ZeroCopyBacked(*v3));

  std::string v2_blob;
  ASSERT_TRUE(built->Save(&v2_blob, serde::kInterchangeVersion).ok());
  auto v2 = SubstringIndex::Load(v2_blob);
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(SubstringIndexTestPeer::DerivedLoadedFromSections(*v2));
  EXPECT_FALSE(SubstringIndexTestPeer::ZeroCopyBacked(*v2));
}

// Tree-mode v3 containers also load their text/maps zero-copy (the suffix
// tree itself is rebuilt, but the big flat arrays are views).
TEST(MmapLoadProvenanceTest, TreeV3TextIsZeroCopy) {
  const UncertainString s = TestString(11);
  auto built = SubstringIndex::Build(s, IndexOptions{});
  ASSERT_TRUE(built.ok());
  std::string blob;
  ASSERT_TRUE(built->Save(&blob).ok());
  auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(SubstringIndexTestPeer::ZeroCopyBacked(*loaded));
}

// Ownership-by-construction regression: Load from a buffer that is
// destroyed immediately afterwards. The loaded index must have pinned (or
// copied) everything it still references — queries after the source dies
// must answer exactly like the original build. Run under ASan this is the
// use-after-free probe for the whole zero-copy scheme.
TEST(MmapLoadOwnershipTest, LoadedIndexSurvivesItsSourceBuffer) {
  const UncertainString s = TestString(13);
  IndexOptions options;
  options.compact = true;
  auto built = SubstringIndex::Build(s, options);
  ASSERT_TRUE(built.ok());

  StatusOr<SubstringIndex> loaded = [&]() -> StatusOr<SubstringIndex> {
    std::string transient;
    Status saved = built->Save(&transient);
    if (!saved.ok()) return saved;
    return SubstringIndex::Load(transient);
    // `transient` is destroyed here; the index must not care.
  }();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const std::string& pattern : TestPatterns(s)) {
    std::vector<Match> want, got;
    ASSERT_TRUE(built->Query(pattern, 0.1, &want).ok());
    ASSERT_TRUE(loaded->Query(pattern, 0.1, &got).ok());
    ExpectIdentical(want, got, "transient-source " + pattern);
  }
}

// Same regression through the mmap path: the index holds the last reference
// to the mapping once the caller drops its BlobPtr.
TEST(MmapLoadOwnershipTest, IndexKeepsMappingAliveAfterCallerDrops) {
  const UncertainString s = TestString(17);
  IndexOptions options;
  options.compact = true;
  auto built = SubstringIndex::Build(s, options);
  ASSERT_TRUE(built.ok());
  std::string blob;
  ASSERT_TRUE(built->Save(&blob).ok());
  const std::string path = TempPath("pinned.pti");
  WriteWhole(path, blob);

  StatusOr<SubstringIndex> loaded = [&]() -> StatusOr<SubstringIndex> {
    auto mapped = serde::MapFile(path);
    if (!mapped.ok()) return mapped.status();
    return SubstringIndex::Load((*mapped)->view(), *mapped);
    // The local BlobPtr dies here; the index shares ownership.
  }();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SubstringIndexTestPeer::ZeroCopyBacked(*loaded));

  for (const std::string& pattern : TestPatterns(s)) {
    std::vector<Match> want, got;
    ASSERT_TRUE(built->Query(pattern, 0.1, &want).ok());
    ASSERT_TRUE(loaded->Query(pattern, 0.1, &got).ok());
    ExpectIdentical(want, got, "mmap-pinned " + pattern);
  }
  std::remove(path.c_str());
}

// Sharded containers propagate the backing into every nested shard load;
// all three load paths agree with the built engine.
TEST(MmapLoadShardedTest, ShardsShareTheBackingAndAgree) {
  const UncertainString s = TestString(19, 120);
  ShardedIndexOptions options;
  options.num_shards = 3;
  options.overlap = 12;
  options.index.compact = true;
  auto built = ShardedIndex::Build(s, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  std::string v2_blob, v3_blob;
  ASSERT_TRUE(built->Save(&v2_blob, serde::kInterchangeVersion).ok());
  ASSERT_TRUE(built->Save(&v3_blob).ok());
  const std::string path = TempPath("sharded.pti");
  WriteWhole(path, v3_blob);

  auto v2 = ShardedIndex::Load(v2_blob);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  auto mapped = serde::MapFile(path);
  ASSERT_TRUE(mapped.ok());
  auto v3 = ShardedIndex::Load((*mapped)->view(), 2, *mapped);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  for (int32_t k = 0; k < v3->num_shards(); ++k) {
    EXPECT_TRUE(SubstringIndexTestPeer::ZeroCopyBacked(v3->shard(k)))
        << "shard " << k;
  }

  for (const std::string& pattern : TestPatterns(s)) {
    std::vector<Match> want, got;
    ASSERT_TRUE(built->Query(pattern, 0.1, &want).ok());
    ASSERT_TRUE(v2->Query(pattern, 0.1, &got).ok());
    ExpectIdentical(want, got, "sharded v2 " + pattern);
    ASSERT_TRUE(v3->Query(pattern, 0.1, &got).ok());
    ExpectIdentical(want, got, "sharded v3-mmap " + pattern);
  }
  std::remove(path.c_str());
}

// MapFile diagnoses a missing file as an I/O error (with a cause), never as
// container corruption.
TEST(MmapLoadTestIo, MissingFileIsIoError) {
  auto mapped = serde::MapFile(TempPath("does_not_exist.pti"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_TRUE(mapped.status().IsIOError()) << mapped.status().ToString();
}

// ReadFileToBlob (the non-mmap load path) hands an empty file back as an
// empty blob, which the container layer then reports as Corruption, not as
// an I/O failure.
TEST(MmapLoadTestIo, ReadEmptyFileIsEmptyBlobThenCorruption) {
  const std::string path = TempPath("empty.pti");
  WriteWhole(path, "");
  auto blob = serde::ReadFileToBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_TRUE((*blob)->view().empty());
  EXPECT_FALSE((*blob)->mapped());
  auto loaded = SubstringIndex::Load((*blob)->view(), *blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::remove(path.c_str());
}

// A path that opens but cannot be read (a directory) and a missing path
// are I/O errors with a cause.
TEST(MmapLoadTestIo, ReadUnreadableOrMissingFileIsIoError) {
  auto dir = serde::ReadFileToBlob(::testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_TRUE(dir.status().IsIOError()) << dir.status().ToString();
  auto missing = serde::ReadFileToBlob(TempPath("does_not_exist.pti"));
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status().ToString();
}

// The one-copy read returns exactly the file's bytes, and they load.
TEST(MmapLoadTestIo, ReadFileToBlobRoundTripsAContainer) {
  const UncertainString s = TestString(5);
  auto built = SubstringIndex::Build(s, IndexOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::string bytes;
  ASSERT_TRUE(built->Save(&bytes).ok());
  const std::string path = TempPath("read.pti");
  WriteWhole(path, bytes);
  auto blob = serde::ReadFileToBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ((*blob)->view(), bytes);
  auto loaded = SubstringIndex::Load((*blob)->view(), *blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pti
