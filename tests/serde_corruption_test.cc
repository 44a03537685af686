// Failure injection for the shared container format (core/serde.h) across
// all four index kinds: truncation at every prefix length, single-bit flips
// at every byte, wrong magic / kind / version, hostile section lengths, and
// hand-crafted hostile payloads targeting the decoder validation (dangling
// correlated positions, non-contiguous factor maps, NaN probabilities, ...).
// Every input must fail with a non-OK Status — never crash — which the CI
// ASan+UBSan job enforces.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/approx_index.h"
#include "core/listing_index.h"
#include "core/serde.h"
#include "core/special_index.h"
#include "core/substring_index.h"
#include "engine/sharded_index.h"
#include "test_util.h"
#include "util/serial.h"

namespace pti {
namespace {

using serde::IndexKind;

// Container header offsets (docs/FORMAT.md): magic, kind, version, count.
constexpr size_t kKindOffset = 4;
constexpr size_t kVersionOffset = 8;
constexpr size_t kSectionCountOffset = 12;
// First section: u32 tag at 16, u64 length at 20.
constexpr size_t kFirstSectionLengthOffset = 20;

struct KindCase {
  IndexKind kind;
  const char* name;
  std::string blob;
  std::function<Status(const std::string&)> load;
};

std::vector<KindCase> MakeKindCases() {
  const test::RandomStringSpec spec{.length = 25, .alphabet = 3,
                                    .theta = 0.5, .seed = 99};
  const UncertainString s = test::RandomUncertain(spec);

  std::vector<KindCase> cases;
  {
    IndexOptions options;
    options.transform.tau_min = 0.1;
    const auto index = SubstringIndex::Build(s, options);
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kSubstring, "substring", std::move(blob),
                     [](const std::string& b) {
                       return SubstringIndex::Load(b).status();
                     }});
  }
  {
    // Compact mode adds the "SARR" suffix-array section; every sweep below
    // (truncation, bit flips, hostile framing) covers its bytes too.
    IndexOptions options;
    options.transform.tau_min = 0.1;
    options.compact = true;
    const auto index = SubstringIndex::Build(s, options);
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kSubstring, "substring-compact",
                     std::move(blob), [](const std::string& b) {
                       return SubstringIndex::Load(b).status();
                     }});
  }
  {
    ListingOptions options;
    options.transform.tau_min = 0.1;
    const auto index = ListingIndex::Build({s, s}, options);
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kListing, "listing", std::move(blob),
                     [](const std::string& b) {
                       return ListingIndex::Load(b).status();
                     }});
  }
  {
    ApproxOptions options;
    options.transform.tau_min = 0.1;
    const auto index = ApproxIndex::Build(s, options);
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kApprox, "approx", std::move(blob),
                     [](const std::string& b) {
                       return ApproxIndex::Load(b).status();
                     }});
  }
  {
    UncertainString sp;
    Rng rng(5);
    for (int i = 0; i < 25; ++i) {
      sp.AddPosition({{static_cast<uint8_t>('a' + rng.Uniform(3)),
                       static_cast<double>(1 + rng.Uniform(64)) / 64.0}});
    }
    const auto index = SpecialIndex::Build(sp, SpecialIndexOptions{});
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kSpecial, "special", std::move(blob),
                     [](const std::string& b) {
                       return SpecialIndex::Load(b).status();
                     }});
  }
  {
    ShardedIndexOptions options;
    options.index.transform.tau_min = 0.1;
    options.num_shards = 3;
    options.overlap = 4;
    const auto index = ShardedIndex::Build(s, options);
    EXPECT_TRUE(index.ok());
    std::string blob;
    EXPECT_TRUE(index->Save(&blob).ok());
    cases.push_back({IndexKind::kSharded, "sharded", std::move(blob),
                     [](const std::string& b) {
                       return ShardedIndex::Load(b).status();
                     }});
  }
  return cases;
}

const std::vector<KindCase>& KindCases() {
  static const std::vector<KindCase>* cases =
      new std::vector<KindCase>(MakeKindCases());
  return *cases;
}

// Rewrites bytes at `offset`, then refreshes the trailing checksum so the
// mutation tests the *semantic* validation layer, not just the checksum.
std::string PatchWithValidChecksum(std::string blob, size_t offset,
                                   const void* bytes, size_t n) {
  EXPECT_LE(offset + n, blob.size() - 8);
  std::memcpy(&blob[offset], bytes, n);
  const uint64_t checksum = Fnv1a64(blob.data(), blob.size() - 8);
  std::memcpy(&blob[blob.size() - 8], &checksum, 8);
  return blob;
}

std::string PatchU32(std::string blob, size_t offset, uint32_t value) {
  return PatchWithValidChecksum(std::move(blob), offset, &value, 4);
}

std::string PatchU64(std::string blob, size_t offset, uint64_t value) {
  return PatchWithValidChecksum(std::move(blob), offset, &value, 8);
}

TEST(SerdeCorruptionTest, ValidBlobsLoad) {
  for (const KindCase& c : KindCases()) {
    EXPECT_TRUE(c.load(c.blob).ok()) << c.name;
    const auto kind = serde::PeekKind(c.blob);
    ASSERT_TRUE(kind.ok()) << c.name;
    EXPECT_EQ(*kind, c.kind) << c.name;
  }
}

TEST(SerdeCorruptionTest, TruncationAtEveryLengthFails) {
  for (const KindCase& c : KindCases()) {
    for (size_t len = 0; len < c.blob.size(); ++len) {
      const Status st = c.load(c.blob.substr(0, len));
      ASSERT_FALSE(st.ok())
          << c.name << " accepted truncation at " << len;
    }
  }
}

TEST(SerdeCorruptionTest, SingleBitFlipAtEveryByteFails) {
  // The trailing checksum makes every single-bit corruption detectable,
  // including flips inside probability payloads that would otherwise decode.
  for (const KindCase& c : KindCases()) {
    for (size_t at = 0; at < c.blob.size(); ++at) {
      std::string mutated = c.blob;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << (at % 8)));
      const Status st = c.load(mutated);
      ASSERT_FALSE(st.ok())
          << c.name << " accepted bit flip at byte " << at;
      ASSERT_FALSE(st.message().empty());
    }
  }
}

TEST(SerdeCorruptionTest, RandomMultiByteCorruptionNeverCrashes) {
  Rng rng(17);
  for (const KindCase& c : KindCases()) {
    for (int trial = 0; trial < 100; ++trial) {
      std::string mutated = c.blob;
      const size_t edits = 1 + rng.Uniform(8);
      for (size_t e = 0; e < edits; ++e) {
        mutated[rng.Uniform(mutated.size())] =
            static_cast<char>(rng.Next() & 0xFF);
      }
      const Status st = c.load(mutated);
      if (mutated != c.blob) {
        EXPECT_FALSE(st.ok()) << c.name;
      }
    }
  }
}

TEST(SerdeCorruptionTest, EmptyAndTinyBlobsFail) {
  for (const KindCase& c : KindCases()) {
    EXPECT_TRUE(c.load("").IsCorruption()) << c.name;
    EXPECT_TRUE(c.load("P").IsCorruption()) << c.name;
    EXPECT_TRUE(c.load("PTIC").IsCorruption()) << c.name;
  }
  EXPECT_TRUE(serde::PeekKind("").status().IsCorruption());
  EXPECT_TRUE(serde::PeekKind("PTI").status().IsCorruption());
}

TEST(SerdeCorruptionTest, WrongMagicFails) {
  for (const KindCase& c : KindCases()) {
    std::string blob = PatchU32(c.blob, 0, 0xDEADBEEF);
    EXPECT_TRUE(c.load(blob).IsCorruption()) << c.name;
    EXPECT_TRUE(serde::PeekKind(blob).status().IsCorruption()) << c.name;
  }
}

TEST(SerdeCorruptionTest, KindMismatchFails) {
  // Every blob loaded as every *other* kind must be rejected.
  for (const KindCase& a : KindCases()) {
    for (const KindCase& b : KindCases()) {
      if (a.kind == b.kind) continue;
      EXPECT_TRUE(b.load(a.blob).IsCorruption())
          << a.name << " accepted by " << b.name << " loader";
    }
  }
}

TEST(SerdeCorruptionTest, UnknownKindTagFails) {
  for (const KindCase& c : KindCases()) {
    const std::string blob = PatchU32(c.blob, kKindOffset, 0x4B4E5557);
    EXPECT_TRUE(c.load(blob).IsCorruption()) << c.name;
    EXPECT_TRUE(serde::PeekKind(blob).status().IsCorruption()) << c.name;
  }
}

TEST(SerdeCorruptionTest, FutureAndZeroVersionsFail) {
  for (const KindCase& c : KindCases()) {
    EXPECT_TRUE(
        c.load(PatchU32(c.blob, kVersionOffset, serde::kContainerVersion + 1))
            .IsCorruption())
        << c.name;
    EXPECT_TRUE(c.load(PatchU32(c.blob, kVersionOffset, 99)).IsCorruption())
        << c.name;
    EXPECT_TRUE(c.load(PatchU32(c.blob, kVersionOffset, 0)).IsCorruption())
        << c.name;
  }
}

TEST(SerdeCorruptionTest, HostileSectionTableFails) {
  for (const KindCase& c : KindCases()) {
    // Unreasonable section count.
    EXPECT_TRUE(c.load(PatchU32(c.blob, kSectionCountOffset, 0xFFFFFFFF))
                    .IsCorruption())
        << c.name;
    // Dropping a section truncates the table mid-parse.
    EXPECT_TRUE(c.load(PatchU32(c.blob, kSectionCountOffset, 1)).ok() == false)
        << c.name;
    // Section length far beyond the buffer.
    EXPECT_TRUE(
        c.load(PatchU64(c.blob, kFirstSectionLengthOffset, uint64_t{1} << 60))
            .IsCorruption())
        << c.name;
    // Section length that would swallow the checksum.
    EXPECT_TRUE(
        c.load(PatchU64(c.blob, kFirstSectionLengthOffset,
                        c.blob.size() - kFirstSectionLengthOffset - 8))
            .IsCorruption())
        << c.name;
  }
}

TEST(SerdeCorruptionTest, TrailingGarbageFails) {
  for (const KindCase& c : KindCases()) {
    EXPECT_TRUE(c.load(c.blob + "extra!").IsCorruption()) << c.name;
  }
}

TEST(SerdeCorruptionTest, ChecksumMismatchAloneFails) {
  for (const KindCase& c : KindCases()) {
    std::string blob = c.blob;
    blob[blob.size() - 1] = static_cast<char>(blob[blob.size() - 1] ^ 0x40);
    EXPECT_TRUE(c.load(blob).IsCorruption()) << c.name;
  }
}

// ---- Container-level unit tests via hand-built containers ----

std::string MinimalContainer(IndexKind kind,
                             const std::vector<uint32_t>& tags) {
  serde::ContainerWriter cw(kind);
  for (const uint32_t tag : tags) {
    cw.AddSection(tag).PutU32(7);
  }
  return std::move(cw).Finish();
}

TEST(SerdeCorruptionTest, MissingSectionFails) {
  // A well-framed substring container without the factors section.
  const std::string blob = MinimalContainer(
      IndexKind::kSubstring, {serde::kTagOptions, serde::kTagSource});
  serde::ContainerReader container;
  ASSERT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  Reader section;
  EXPECT_TRUE(
      container.Section(serde::kTagFactors, &section).IsCorruption());
  EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption());
}

TEST(SerdeCorruptionTest, DuplicateSectionTagFails) {
  const std::string blob = MinimalContainer(
      IndexKind::kSubstring, {serde::kTagOptions, serde::kTagOptions});
  serde::ContainerReader container;
  EXPECT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .IsCorruption());
}

TEST(SerdeCorruptionTest, UnrecognizedExtraSectionIsIgnored) {
  // Compatibility policy: v1 readers skip sections they do not know, so a
  // same-version writer may append purely-informational sections.
  const UncertainString s = test::RandomUncertain(
      {.length = 12, .alphabet = 2, .theta = 0.5, .seed = 3});
  IndexOptions options;
  options.transform.tau_min = 0.2;
  const auto index = SubstringIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob, serde::kInterchangeVersion).ok());
  // Re-frame the same sections plus an extra one.
  serde::ContainerReader container;
  ASSERT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  serde::ContainerWriter cw(IndexKind::kSubstring,
                            serde::kInterchangeVersion);
  for (const uint32_t tag :
       {serde::kTagOptions, serde::kTagSource, serde::kTagFactors}) {
    Reader section;
    ASSERT_TRUE(container.Section(tag, &section).ok());
    Writer& w = cw.AddSection(tag);
    std::vector<uint8_t> raw(section.remaining());
    for (auto& b : raw) ASSERT_TRUE(section.GetU8(&b).ok());
    for (const uint8_t b : raw) w.PutU8(b);
  }
  cw.AddSection(0x41525458).PutU64(123);  // "XTRA"
  const std::string extended = std::move(cw).Finish();
  const auto loaded = SubstringIndex::Load(extended);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

// ---- Hostile payloads: the decoder validation layer ----
//
// These craft well-framed containers whose *payloads* violate model
// invariants. Several of them are regressions for latent bugs in the old
// SubstringIndex::Load: a corr_positions entry with no matching rule, or a
// non-contiguous pos[] map, decoded fine but crashed (rules.at throw /
// wrong-window reads) at query time.

UncertainString TwoPosSource() {
  UncertainString s;
  s.AddPosition({{'a', 0.5}, {'b', 0.5}});
  s.AddPosition({{'a', 0.5}, {'b', 0.5}});
  return s;
}

void WriteSubstringOptions(Writer& w) {
  w.PutDouble(0.1);              // tau_min
  w.PutU64(uint64_t{1} << 31);   // max_total_length
  w.PutU32(0);                   // max_short_depth
  w.PutU8(0);                    // rmq_engine
  w.PutU8(0);                    // blocking
  w.PutU64(64);                  // scan_cutoff
  w.PutU8(0);                    // compact
}

// A substring container around a hand-written factor section. The factor
// text is the single member "ab" unless the writer says otherwise.
std::string SubstringContainerWithFactors(
    const std::function<void(Writer&)>& write_factors) {
  // The hand-written factor section is the v2 ("FACT") layout, so frame it
  // as an interchange container.
  serde::ContainerWriter cw(IndexKind::kSubstring,
                            serde::kInterchangeVersion);
  WriteSubstringOptions(cw.AddSection(serde::kTagOptions));
  serde::EncodeUncertainString(TwoPosSource(),
                               &cw.AddSection(serde::kTagSource));
  write_factors(cw.AddSection(serde::kTagFactors));
  return std::move(cw).Finish();
}

struct FactorParts {
  std::vector<int32_t> chars = {'a', 'b', 256};
  std::vector<int64_t> starts = {0, 3};
  std::vector<int64_t> pos = {0, 1, -1};
  std::vector<double> logp = {-0.6931471805599453, -0.6931471805599453, 0.0};
  std::vector<int64_t> corr_positions = {};
  int64_t original_length = 2;
  double tau_min = 0.1;
};

void WriteFactorParts(Writer& w, const FactorParts& f) {
  w.PutVector(f.chars);
  w.PutVector(f.starts);
  w.PutVector(f.pos);
  w.PutVector(f.logp);
  w.PutVector(f.corr_positions);
  w.PutI64(f.original_length);
  w.PutDouble(f.tau_min);
}

Status LoadWithFactors(const FactorParts& f) {
  return SubstringIndex::Load(SubstringContainerWithFactors(
                                  [&](Writer& w) { WriteFactorParts(w, f); }))
      .status();
}

TEST(SerdeCorruptionTest, WellFormedHandBuiltFactorsLoad) {
  EXPECT_TRUE(LoadWithFactors(FactorParts{}).ok());
}

TEST(SerdeCorruptionTest, DanglingCorrelatedPositionFails) {
  // corr_positions points at ('a' at S-position 0) but the source has no
  // rule there: query-time evaluation would throw out of rules.at().
  FactorParts f;
  f.corr_positions = {0};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, CorrelatedPositionOutOfRangeFails) {
  FactorParts f;
  f.corr_positions = {17};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.corr_positions = {-1};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.corr_positions = {2};  // the sentinel position
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, UnsortedCorrelatedPositionsFail) {
  FactorParts f;
  f.corr_positions = {1, 0};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, NonContiguousFactorPositionsFail) {
  // The window-probability math assumes S-positions advance with text
  // positions inside a factor.
  FactorParts f;
  f.pos = {0, 0, -1};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.pos = {1, 0, -1};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, FactorPositionOutOfRangeFails) {
  FactorParts f;
  f.pos = {0, 5, -1};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.pos = {-1, 0, -1};  // -1 on a non-sentinel position
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, SentinelCarryingFactorDataFails) {
  FactorParts f;
  f.pos = {0, 1, 1};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f = FactorParts{};
  f.logp = {-0.5, -0.5, -0.5};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, OriginalLengthMismatchFails) {
  FactorParts f;
  f.original_length = 5;  // source has 2 positions
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, HostileLogProbabilitiesFail) {
  FactorParts f;
  f.logp = {0.5, -0.5, 0.0};  // log prob above 0 => "probability" > 1
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.logp = {std::nan(""), -0.5, 0.0};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, HostileFactorTauMinFails) {
  FactorParts f;
  f.tau_min = 0.0;
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.tau_min = 1.5;
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f.tau_min = std::nan("");
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, MismatchedFactorArraySizesFail) {
  FactorParts f;
  f.pos = {0, 1};  // one entry short
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f = FactorParts{};
  f.logp = {-0.5, 0.0};
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

TEST(SerdeCorruptionTest, MalformedTextSentinelsFail) {
  FactorParts f;
  f.chars = {'a', 'b', 257};  // wrong sentinel id for member 0
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f = FactorParts{};
  f.chars = {'a', 300, 256};  // out-of-alphabet character inside a member
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
  f = FactorParts{};
  f.starts = {0, 2};  // starts disagree with chars length
  EXPECT_TRUE(LoadWithFactors(f).IsCorruption());
}

// Hostile source payloads exercise the shared DecodeUncertainString.

std::string SubstringContainerWithSource(
    const std::function<void(Writer&)>& write_source) {
  serde::ContainerWriter cw(IndexKind::kSubstring);
  WriteSubstringOptions(cw.AddSection(serde::kTagOptions));
  write_source(cw.AddSection(serde::kTagSource));
  serde::EncodeFactorSet(FactorSet{}, &cw.AddSection(serde::kTagFactors));
  return std::move(cw).Finish();
}

TEST(SerdeCorruptionTest, HostileSourceOptionCountsFail) {
  for (const uint32_t count : {0u, 257u, 0xFFFFFFFFu}) {
    const std::string blob = SubstringContainerWithSource([&](Writer& w) {
      w.PutU64(1);
      w.PutU32(count);
    });
    EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption()) << count;
  }
}

TEST(SerdeCorruptionTest, HostileSourcePositionCountFails) {
  const std::string blob = SubstringContainerWithSource([&](Writer& w) {
    w.PutU64(uint64_t{1} << 62);  // absurd position count
  });
  EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption());
}

TEST(SerdeCorruptionTest, HostileSourceProbabilitiesFail) {
  for (const double prob : {-0.25, 1.5, std::nan("")}) {
    const std::string blob = SubstringContainerWithSource([&](Writer& w) {
      w.PutU64(1);
      w.PutU32(1);
      w.PutU8('a');
      w.PutDouble(prob);
      w.PutU64(0);  // no rules
    });
    EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption()) << prob;
  }
}

TEST(SerdeCorruptionTest, HostileCorrelationRulesFail) {
  // Rule referencing an out-of-range dependency position.
  const std::string blob = SubstringContainerWithSource([&](Writer& w) {
    w.PutU64(1);
    w.PutU32(1);
    w.PutU8('a');
    w.PutDouble(1.0);
    w.PutU64(1);       // one rule
    w.PutI64(0);       // pos
    w.PutU8('a');      // ch
    w.PutI64(12345);   // dep_pos out of range
    w.PutU8('a');
    w.PutDouble(0.5);
    w.PutDouble(0.5);
  });
  EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption());
}

TEST(SerdeCorruptionTest, NonUnitOptionSumsFail) {
  const std::string blob = SubstringContainerWithSource([&](Writer& w) {
    w.PutU64(1);
    w.PutU32(2);
    w.PutU8('a');
    w.PutDouble(0.5);
    w.PutU8('b');
    w.PutDouble(0.1);  // sums to 0.6, no correlation exemption
    w.PutU64(0);
  });
  EXPECT_TRUE(SubstringIndex::Load(blob).status().IsCorruption());
}

// Hostile listing maps exercise the ListingIndex-specific validation.

std::string ListingBlob() {
  ListingOptions options;
  options.transform.tau_min = 0.1;
  const UncertainString s = test::RandomUncertain(
      {.length = 12, .alphabet = 2, .theta = 0.5, .seed = 21});
  const auto index = ListingIndex::Build({s}, options);
  EXPECT_TRUE(index.ok());
  std::string blob;
  EXPECT_TRUE(index->Save(&blob).ok());
  return blob;
}

// Reframes a listing container with one section payload replaced.
std::string ReplaceSection(const std::string& blob, IndexKind kind,
                           uint32_t replaced_tag,
                           const std::function<void(Writer&)>& write) {
  serde::ContainerReader container;
  EXPECT_TRUE(serde::ContainerReader::Open(blob, kind, &container).ok());
  serde::ContainerWriter cw(kind);
  for (const uint32_t tag : {serde::kTagOptions, serde::kTagSource,
                             serde::kTagText, serde::kTagMaps}) {
    Writer& w = cw.AddSection(tag);
    if (tag == replaced_tag) {
      write(w);
      continue;
    }
    Reader section;
    EXPECT_TRUE(container.Section(tag, &section).ok());
    uint8_t b = 0;
    while (!section.AtEnd()) {
      EXPECT_TRUE(section.GetU8(&b).ok());
      w.PutU8(b);
    }
  }
  return std::move(cw).Finish();
}

TEST(SerdeCorruptionTest, HostileListingMapsFail) {
  const std::string blob = ListingBlob();
  const auto original = ListingIndex::Load(blob);
  ASSERT_TRUE(original.ok());
  const size_t n = original->stats().transformed_length;
  ASSERT_GT(n, 1u);

  struct Variant {
    const char* name;
    std::function<void(std::vector<int32_t>&, std::vector<int64_t>&,
                       std::vector<double>&, std::vector<int64_t>&)>
        mutate;
  };
  const std::vector<Variant> variants = {
      {"doc id out of range",
       [](auto& doc_of, auto&, auto&, auto&) { doc_of[0] = 7; }},
      {"doc position out of range",
       [](auto&, auto& pos_in_doc, auto&, auto&) { pos_in_doc[0] = 999; }},
      {"sentinel carries doc data",
       [n = n](auto& doc_of, auto&, auto&, auto&) { doc_of[n - 1] = 0; }},
      {"positive log probability",
       [](auto&, auto&, auto& logp, auto&) { logp[0] = 0.25; }},
      {"NaN log probability",
       [](auto&, auto&, auto& logp, auto&) { logp[0] = std::nan(""); }},
      {"doc base offsets malformed",
       [](auto&, auto&, auto&, auto& doc_base) { doc_base[1] += 3; }},
      {"doc base INT64_MIN (regression: validation must not overflow)",
       [](auto&, auto&, auto&, auto& doc_base) {
         doc_base[1] = std::numeric_limits<int64_t>::min();
       }},
      {"non-contiguous doc positions",
       [](auto&, auto& pos_in_doc, auto&, auto&) {
         pos_in_doc[1] = pos_in_doc[0];
       }},
      {"map size mismatch",
       [](auto& doc_of, auto&, auto&, auto&) { doc_of.pop_back(); }},
  };
  for (const Variant& v : variants) {
    // Decode the genuine maps, mutate one aspect, reframe.
    serde::ContainerReader container;
    ASSERT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kListing,
                                             &container)
                    .ok());
    Reader maps;
    ASSERT_TRUE(container.Section(serde::kTagMaps, &maps).ok());
    std::vector<int32_t> doc_of;
    std::vector<int64_t> pos_in_doc;
    std::vector<double> logp;
    std::vector<int64_t> doc_base;
    ASSERT_TRUE(maps.GetVector(&doc_of).ok());
    ASSERT_TRUE(maps.GetVector(&pos_in_doc).ok());
    ASSERT_TRUE(maps.GetVector(&logp).ok());
    ASSERT_TRUE(maps.GetVector(&doc_base).ok());
    v.mutate(doc_of, pos_in_doc, logp, doc_base);
    const std::string mutated =
        ReplaceSection(blob, IndexKind::kListing, serde::kTagMaps,
                       [&](Writer& w) {
                         w.PutVector(doc_of);
                         w.PutVector(pos_in_doc);
                         w.PutVector(logp);
                         w.PutVector(doc_base);
                       });
    EXPECT_TRUE(ListingIndex::Load(mutated).status().IsCorruption())
        << v.name;
  }
}

// SPCL's fourth options byte once selected whether the long-pattern block
// levels were built. Long levels only change how a query runs, never what
// it returns, so Load accepts the 0 that older writers could emit (and
// always builds them); values above 1 stay corrupt.
std::string SpecialBlobWithLongLevelByte(const UncertainString& s,
                                         uint8_t long_levels) {
  serde::ContainerWriter cw(IndexKind::kSpecial);
  Writer& opts = cw.AddSection(serde::kTagOptions);
  opts.PutU32(3);  // max_short_depth
  opts.PutU8(0);   // rmq_engine: block
  opts.PutU8(1);   // use_rmq
  opts.PutU8(long_levels);
  opts.PutU64(0);  // scan_cutoff
  serde::EncodeUncertainString(s, &cw.AddSection(serde::kTagSource));
  return std::move(cw).Finish();
}

TEST(SerdeCorruptionTest, SpecialLegacyLongLevelFlag) {
  UncertainString s;
  for (int i = 0; i < 40; ++i) {
    s.AddPosition({{static_cast<uint8_t>('a' + i % 3), (1 + i % 8) / 8.0}});
  }
  const std::string legacy = SpecialBlobWithLongLevelByte(s, 0);
  const auto loaded = SpecialIndex::Load(legacy);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto current = SpecialIndex::Load(SpecialBlobWithLongLevelByte(s, 1));
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  for (const char* pattern : {"abcab", "bcabca", "cabcabca"}) {
    std::vector<Match> a, b;
    ASSERT_TRUE(loaded->Query(pattern, 0.0001, &a).ok());
    ASSERT_TRUE(current->Query(pattern, 0.0001, &b).ok());
    EXPECT_FALSE(a.empty()) << pattern;
    EXPECT_EQ(a, b) << pattern;
  }
  EXPECT_TRUE(SpecialIndex::Load(SpecialBlobWithLongLevelByte(s, 2))
                  .status()
                  .IsCorruption());
}

TEST(SerdeCorruptionTest, HostileShardManifestsFail) {
  // A hand-built "SHRD" container with one valid nested shard blob and a
  // hostile manifest; every variant must fail the manifest validation (the
  // checksum is recomputed by the writer, so it cannot mask these).
  IndexOptions options;
  options.transform.tau_min = 0.1;
  const auto shard = SubstringIndex::Build(
      test::RandomUncertain({.length = 10, .seed = 3}), options);
  ASSERT_TRUE(shard.ok());
  std::string shard_blob;
  ASSERT_TRUE(shard->Save(&shard_blob).ok());

  struct Variant {
    const char* name;
    std::function<void(Writer&)> manifest;
  };
  const std::vector<Variant> variants = {
      {"zero shards",
       [](Writer& w) {
         w.PutU32(0);
         w.PutU32(4);
         w.PutI64(10);
       }},
      {"unreasonable shard count",
       [](Writer& w) {
         w.PutU32(0xFFFFFFFF);
         w.PutU32(4);
         w.PutI64(10);
       }},
      {"negative original length",
       [](Writer& w) {
         w.PutU32(1);
         w.PutU32(4);
         w.PutI64(-1);
         w.PutI64(0);
       }},
      {"first shard not at zero",
       [](Writer& w) {
         w.PutU32(1);
         w.PutU32(4);
         w.PutI64(10);
         w.PutI64(3);
       }},
      {"begins not increasing",
       [](Writer& w) {
         w.PutU32(2);
         w.PutU32(4);
         w.PutI64(10);
         w.PutI64(0);
         w.PutI64(0);
       }},
      {"begin past the end",
       [](Writer& w) {
         w.PutU32(2);
         w.PutU32(4);
         w.PutI64(10);
         w.PutI64(0);
         w.PutI64(10);
       }},
      {"slice size mismatching manifest",
       [](Writer& w) {
         w.PutU32(1);
         w.PutU32(4);
         w.PutI64(99);  // shard source holds 10 positions, not 99
         w.PutI64(0);
       }},
      {"truncated manifest",
       [](Writer& w) { w.PutU32(1); }},
  };
  for (const Variant& v : variants) {
    serde::ContainerWriter cw(IndexKind::kSharded);
    v.manifest(cw.AddSection(serde::kTagShardManifest));
    cw.AddSection(serde::kTagShardBlobs).PutString(shard_blob);
    const std::string blob = std::move(cw).Finish();
    EXPECT_TRUE(ShardedIndex::Load(blob).status().IsCorruption()) << v.name;
  }
  {
    // Wrong blob count: manifest says two shards, one nested container.
    serde::ContainerWriter cw(IndexKind::kSharded);
    Writer& m = cw.AddSection(serde::kTagShardManifest);
    m.PutU32(2);
    m.PutU32(4);
    m.PutI64(10);
    m.PutI64(0);
    m.PutI64(5);
    cw.AddSection(serde::kTagShardBlobs).PutString(shard_blob);
    EXPECT_TRUE(ShardedIndex::Load(std::move(cw).Finish())
                    .status()
                    .IsCorruption());
  }
  {
    // A nested shard blob that is itself corrupt (truncated container).
    serde::ContainerWriter cw(IndexKind::kSharded);
    Writer& m = cw.AddSection(serde::kTagShardManifest);
    m.PutU32(1);
    m.PutU32(4);
    m.PutI64(10);
    m.PutI64(0);
    cw.AddSection(serde::kTagShardBlobs)
        .PutString(shard_blob.substr(0, shard_blob.size() / 2));
    EXPECT_TRUE(ShardedIndex::Load(std::move(cw).Finish())
                    .status()
                    .IsCorruption());
  }
}

// ---- Hostile suffix-array ("SARR") sections of compact substring blobs ----

std::string CompactBlob(uint32_t version = serde::kContainerVersion) {
  IndexOptions options;
  options.transform.tau_min = 0.1;
  options.compact = true;
  const auto index = SubstringIndex::Build(
      test::RandomUncertain({.length = 30, .alphabet = 3, .theta = 0.5,
                             .seed = 77}),
      options);
  EXPECT_TRUE(index.ok());
  std::string blob;
  EXPECT_TRUE(index->Save(&blob, version).ok());
  return blob;
}

// Reframes a compact substring container, rewriting (or, with nullptr,
// dropping) the suffix-array section. The checksum is recomputed by the
// writer, so these reach the semantic validation layer.
std::string ReframeCompact(const std::string& blob,
                           const std::function<void(Writer&)>* write_sa) {
  serde::ContainerReader container;
  EXPECT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  serde::ContainerWriter cw(IndexKind::kSubstring,
                            serde::kInterchangeVersion);
  for (const uint32_t tag :
       {serde::kTagOptions, serde::kTagSource, serde::kTagFactors}) {
    Reader section;
    EXPECT_TRUE(container.Section(tag, &section).ok());
    Writer& w = cw.AddSection(tag);
    uint8_t b = 0;
    while (!section.AtEnd()) {
      EXPECT_TRUE(section.GetU8(&b).ok());
      w.PutU8(b);
    }
  }
  if (write_sa != nullptr) {
    (*write_sa)(cw.AddSection(serde::kTagSuffixArray));
  }
  return std::move(cw).Finish();
}

std::vector<int32_t> SaOf(const std::string& blob) {
  serde::ContainerReader container;
  EXPECT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  Reader section;
  EXPECT_TRUE(container.Section(serde::kTagSuffixArray, &section).ok());
  std::vector<int32_t> sa;
  EXPECT_TRUE(section.GetVector(&sa).ok());
  return sa;
}

TEST(SerdeCorruptionTest, CompactBlobCarriesSuffixArraySection) {
  const std::string blob = CompactBlob();
  serde::ContainerReader container;
  ASSERT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  EXPECT_EQ(container.version(), serde::kContainerVersion);
  EXPECT_TRUE(container.Has(serde::kTagSuffixArray));
  const auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(SubstringIndexTestPeer::SaLoadedFromSection(*loaded));
}

TEST(SerdeCorruptionTest, CompactBlobWithoutSaSectionStillLoads) {
  // The section is optional (absent in version-1 files): Load falls back
  // to SA-IS and must answer identically.
  const std::string blob = CompactBlob(serde::kInterchangeVersion);
  const std::string stripped = ReframeCompact(blob, nullptr);
  const auto with_sa = SubstringIndex::Load(blob);
  const auto without_sa = SubstringIndex::Load(stripped);
  ASSERT_TRUE(with_sa.ok());
  ASSERT_TRUE(without_sa.ok()) << without_sa.status().ToString();
  EXPECT_FALSE(SubstringIndexTestPeer::SaLoadedFromSection(*without_sa));
  Rng rng(78);
  for (int q = 0; q < 40; ++q) {
    const std::string pattern =
        test::RandomPattern(3, 1 + rng.Uniform(6), rng.Next());
    std::vector<Match> a, b;
    ASSERT_TRUE(with_sa->Query(pattern, 0.2, &a).ok());
    ASSERT_TRUE(without_sa->Query(pattern, 0.2, &b).ok());
    ASSERT_TRUE(test::SameMatches(a, b, 0.0)) << pattern;
  }
}

TEST(SerdeCorruptionTest, HostileSuffixArraySectionsFail) {
  const std::string blob = CompactBlob(serde::kInterchangeVersion);
  const std::vector<int32_t> sa = SaOf(blob);
  ASSERT_GT(sa.size(), 2u);

  struct Variant {
    const char* name;
    std::function<void(std::vector<int32_t>&)> mutate;
  };
  const std::vector<Variant> variants = {
      {"wrong length (short)",
       [](std::vector<int32_t>& v) { v.pop_back(); }},
      {"wrong length (long)",
       [](std::vector<int32_t>& v) { v.push_back(0); }},
      {"empty array", [](std::vector<int32_t>& v) { v.clear(); }},
      {"entry out of range (high)",
       [](std::vector<int32_t>& v) {
         v[1] = static_cast<int32_t>(v.size());
       }},
      {"entry out of range (negative)",
       [](std::vector<int32_t>& v) { v[1] = -1; }},
      {"entry INT32_MIN",
       [](std::vector<int32_t>& v) {
         v[0] = std::numeric_limits<int32_t>::min();
       }},
      {"duplicate entry (not a permutation)",
       [](std::vector<int32_t>& v) { v[2] = v[0]; }},
  };
  for (const Variant& v : variants) {
    std::vector<int32_t> mutated = sa;
    v.mutate(mutated);
    const std::function<void(Writer&)> write = [&mutated](Writer& w) {
      w.PutVector(mutated);
    };
    EXPECT_TRUE(SubstringIndex::Load(ReframeCompact(blob, &write))
                    .status()
                    .IsCorruption())
        << v.name;
  }
  {
    // Trailing bytes after the vector payload.
    const std::function<void(Writer&)> write = [&sa](Writer& w) {
      w.PutVector(sa);
      w.PutU8(0xAB);
    };
    EXPECT_TRUE(SubstringIndex::Load(ReframeCompact(blob, &write))
                    .status()
                    .IsCorruption());
  }
  {
    // A declared element count far past the section payload.
    const std::function<void(Writer&)> write = [](Writer& w) {
      w.PutU64(uint64_t{1} << 60);
    };
    EXPECT_TRUE(SubstringIndex::Load(ReframeCompact(blob, &write))
                    .status()
                    .IsCorruption());
  }
}

// ---- v3 (aligned zero-copy) hostile framing and derived sections ----

// One section of a raw v3 container: 16-byte header (tag, reserved, length)
// followed by the payload, zero-padded to the next 8-byte boundary.
struct V3Section {
  uint32_t tag = 0;
  size_t header_offset = 0;
  size_t payload_offset = 0;
  uint64_t length = 0;
};

std::vector<V3Section> V3Sections(const std::string& blob) {
  std::vector<V3Section> sections;
  uint32_t count = 0;
  std::memcpy(&count, &blob[kSectionCountOffset], 4);
  size_t off = 16;
  for (uint32_t i = 0; i < count; ++i) {
    V3Section s;
    s.header_offset = off;
    std::memcpy(&s.tag, &blob[off], 4);
    std::memcpy(&s.length, &blob[off + 8], 8);
    s.payload_offset = off + 16;
    off = (s.payload_offset + s.length + 7) & ~size_t{7};
    EXPECT_LE(off, blob.size() - 8);
    sections.push_back(s);
  }
  return sections;
}

const V3Section& FindSection(const std::vector<V3Section>& sections,
                             uint32_t tag) {
  for (const V3Section& s : sections) {
    if (s.tag == tag) return s;
  }
  ADD_FAILURE() << "section not found";
  static const V3Section missing;
  return missing;
}

TEST(SerdeCorruptionTest, V3NonzeroReservedWordFails) {
  const std::string blob = CompactBlob();
  for (const V3Section& s : V3Sections(blob)) {
    const std::string mutated =
        PatchU32(blob, s.header_offset + 4, 0xDEADBEEF);
    EXPECT_TRUE(SubstringIndex::Load(mutated).status().IsCorruption())
        << "tag " << std::hex << s.tag;
  }
}

TEST(SerdeCorruptionTest, V3CompactCarriesDerivedSections) {
  const std::string blob = CompactBlob();
  const auto sections = V3Sections(blob);
  for (const uint32_t tag : {serde::kTagText, serde::kTagMaps,
                             serde::kTagSuffixArray, serde::kTagDerived,
                             serde::kTagActive, serde::kTagFmIndex,
                             serde::kTagRmqBlocks}) {
    EXPECT_NE(FindSection(sections, tag).payload_offset, 0u);
  }
  // The structural alignment invariant every zero-copy view relies on.
  for (const V3Section& s : sections) {
    EXPECT_EQ(s.payload_offset % 8, 0u) << "tag " << std::hex << s.tag;
  }
  const auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(SubstringIndexTestPeer::DerivedLoadedFromSections(*loaded));
}

// Drops one section from a v3 compact container (checksum refreshed by the
// writer), exercising the incomplete-derived-group validation.
std::string DropV3Section(const std::string& blob, uint32_t dropped) {
  serde::ContainerReader container;
  EXPECT_TRUE(serde::ContainerReader::Open(blob, IndexKind::kSubstring,
                                           &container)
                  .ok());
  serde::ContainerWriter cw(IndexKind::kSubstring);
  for (const uint32_t tag :
       {serde::kTagOptions, serde::kTagSource, serde::kTagText,
        serde::kTagMaps, serde::kTagSuffixArray, serde::kTagDerived,
        serde::kTagActive, serde::kTagFmIndex, serde::kTagRmqBlocks}) {
    if (tag == dropped || !container.Has(tag)) continue;
    Reader section;
    EXPECT_TRUE(container.Section(tag, &section).ok());
    Writer& w = cw.AddSection(tag);
    uint8_t b = 0;
    while (!section.AtEnd()) {
      EXPECT_TRUE(section.GetU8(&b).ok());
      w.PutU8(b);
    }
  }
  return std::move(cw).Finish();
}

TEST(SerdeCorruptionTest, V3IncompleteDerivedGroupFails) {
  const std::string blob = CompactBlob();
  // DERV without ACTV/FMIX (and vice versa) must be rejected up front, not
  // half-initialized.
  for (const uint32_t tag :
       {serde::kTagActive, serde::kTagFmIndex, serde::kTagSuffixArray}) {
    const Status st = SubstringIndex::Load(DropV3Section(blob, tag)).status();
    EXPECT_TRUE(st.IsCorruption()) << std::hex << tag << " " << st.ToString();
  }
  // Dropping the whole derived group (but keeping the SA) must *load*: the
  // sections are an optimization, and the fallback rebuild still works.
  std::string stripped = blob;
  for (const uint32_t tag : {serde::kTagDerived, serde::kTagActive,
                             serde::kTagFmIndex, serde::kTagRmqBlocks}) {
    stripped = DropV3Section(stripped, tag);
  }
  const auto rebuilt = SubstringIndex::Load(stripped);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_FALSE(SubstringIndexTestPeer::DerivedLoadedFromSections(*rebuilt));
}

TEST(SerdeCorruptionTest, V3HostilePrefixSumsFail) {
  const std::string blob = CompactBlob();
  const V3Section derv = FindSection(V3Sections(blob), serde::kTagDerived);
  ASSERT_NE(derv.payload_offset, 0u);
  // DERV payload: u64 count, count doubles (prefix sums C), u64 count,
  // count int32s (remaining-run lengths). C[0] must be exactly 0.
  const double bad_c0 = 0.5;
  EXPECT_TRUE(SubstringIndex::Load(
                  PatchWithValidChecksum(blob, derv.payload_offset + 8,
                                         &bad_c0, sizeof(bad_c0)))
                  .status()
                  .IsCorruption());
  // A remaining-run entry that breaks the exact recurrence
  // rem[q] = 0 (sentinel) | rem[q+1]+1: flip the first entry's value.
  uint64_t c_count = 0;
  std::memcpy(&c_count, &blob[derv.payload_offset], 8);
  const size_t rem_payload = derv.payload_offset + 8 + 8 * c_count;
  int32_t rem0 = 0;
  std::memcpy(&rem0, &blob[rem_payload + 8], 4);
  const int32_t bad_rem = rem0 + 1;
  EXPECT_TRUE(SubstringIndex::Load(
                  PatchWithValidChecksum(blob, rem_payload + 8, &bad_rem,
                                         sizeof(bad_rem)))
                  .status()
                  .IsCorruption());
}

TEST(SerdeCorruptionTest, V3HostileActiveDepthCountFails) {
  const std::string blob = CompactBlob();
  const V3Section actv = FindSection(V3Sections(blob), serde::kTagActive);
  ASSERT_NE(actv.payload_offset, 0u);
  uint32_t depths = 0;
  std::memcpy(&depths, &blob[actv.payload_offset], 4);
  for (const uint32_t forged :
       {depths + 1, depths - 1, uint32_t{0}, uint32_t{0x7FFFFFFF}}) {
    EXPECT_TRUE(SubstringIndex::Load(
                    PatchU32(blob, actv.payload_offset, forged))
                    .status()
                    .IsCorruption())
        << forged;
  }
}

TEST(SerdeCorruptionTest, V3HostileRmqCountsFail) {
  const std::string blob = CompactBlob();
  const V3Section rmqb = FindSection(V3Sections(blob), serde::kTagRmqBlocks);
  ASSERT_NE(rmqb.payload_offset, 0u);
  uint32_t nshort = 0;
  std::memcpy(&nshort, &blob[rmqb.payload_offset], 4);
  for (const uint32_t forged : {nshort + 1, uint32_t{0}}) {
    EXPECT_TRUE(SubstringIndex::Load(
                    PatchU32(blob, rmqb.payload_offset, forged))
                    .status()
                    .IsCorruption())
        << forged;
  }
}

TEST(SerdeCorruptionTest, V3SectionLengthForgeryFails) {
  // Shrinking or growing a section length de-aligns everything after it;
  // the framing walk must fail cleanly (and the checksum is refreshed, so
  // this reaches the framing validation, not the checksum).
  const std::string blob = CompactBlob();
  for (const V3Section& s : V3Sections(blob)) {
    for (const int64_t delta : {int64_t{-1}, int64_t{1}, int64_t{9}}) {
      if (s.length == 0 && delta < 0) continue;
      const std::string mutated = PatchU64(
          blob, s.header_offset + 8,
          static_cast<uint64_t>(static_cast<int64_t>(s.length) + delta));
      EXPECT_FALSE(SubstringIndex::Load(mutated).ok())
          << "tag " << std::hex << s.tag << " delta " << delta;
    }
  }
}

// The v3 sweeps above target the substring container; the generic
// truncation / bit-flip / random-corruption sweeps at the top of this file
// already run over every kind's default-version (v3) blob.

TEST(SerdeCorruptionTest, V3ShardedNestedBlobsStayAligned) {
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.1;
  options.index.compact = true;
  options.num_shards = 3;
  options.overlap = 4;
  const auto index = ShardedIndex::Build(
      test::RandomUncertain({.length = 40, .alphabet = 3, .theta = 0.5,
                             .seed = 81}),
      options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());
  // Nested shard containers must themselves start 8-byte aligned in the
  // outer file, or the shards' zero-copy loads would silently copy.
  const auto loaded = ShardedIndex::Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int32_t k = 0; k < loaded->num_shards(); ++k) {
    EXPECT_TRUE(SubstringIndexTestPeer::DerivedLoadedFromSections(
        loaded->shard(k)))
        << "shard " << k;
  }
}

}  // namespace
}  // namespace pti
