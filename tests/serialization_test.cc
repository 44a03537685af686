// Parameterized Save/Load round-trip suite covering all four index types:
// build -> Save -> Load -> identical query answers (positions exact,
// probabilities within 1e-9) against the freshly built index, across small,
// correlated, empty, empty-factor and --full-style random inputs.
//
// Framing/corruption coverage lives in serde_corruption_test.cc; the
// cross-index agreement net lives in cross_index_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/approx_index.h"
#include "core/brute_force.h"
#include "core/listing_index.h"
#include "core/special_index.h"
#include "core/substring_index.h"
#include "engine/sharded_index.h"
#include "test_util.h"
#include "util/serial.h"

namespace pti {
namespace {

enum class InputCase {
  kSmall,         // short string, small alphabet
  kCorrelated,    // kSmall plus a §3.3 correlation rule
  kEmpty,         // zero-length string / zero documents
  kEmptyFactors,  // every window below tau_min: the factor set is empty
  kFull,          // --full-style: longer string, larger alphabet
};

constexpr InputCase kAllCases[] = {InputCase::kSmall, InputCase::kCorrelated,
                                   InputCase::kEmpty, InputCase::kEmptyFactors,
                                   InputCase::kFull};

const char* CaseName(InputCase c) {
  switch (c) {
    case InputCase::kSmall:
      return "Small";
    case InputCase::kCorrelated:
      return "Correlated";
    case InputCase::kEmpty:
      return "Empty";
    case InputCase::kEmptyFactors:
      return "EmptyFactors";
    case InputCase::kFull:
      return "Full";
  }
  return "?";
}

UncertainString AddRule(UncertainString s) {
  EXPECT_TRUE(s.AddCorrelation({.pos = 5,
                                .ch = s.options(5)[0].ch,
                                .dep_pos = 2,
                                .dep_ch = s.options(2)[0].ch,
                                .prob_if_present = 0.75,
                                .prob_if_absent = 0.25})
                  .ok());
  return s;
}

// A string whose every position splits its mass, so that with tau_min above
// 0.5 no single-character window survives and the transform emits nothing.
UncertainString HalfHalfString(int64_t length) {
  UncertainString s;
  for (int64_t i = 0; i < length; ++i) {
    s.AddPosition({{static_cast<uint8_t>('a' + i % 2), 0.5},
                   {static_cast<uint8_t>('b' + i % 2), 0.5}});
  }
  return s;
}

UncertainString GeneralString(InputCase c, uint64_t seed) {
  switch (c) {
    case InputCase::kSmall:
      return test::RandomUncertain({.length = 45, .alphabet = 3,
                                    .theta = 0.5, .seed = seed});
    case InputCase::kCorrelated:
      return AddRule(test::RandomUncertain(
          {.length = 45, .alphabet = 3, .theta = 0.5, .seed = seed}));
    case InputCase::kEmpty:
      return UncertainString();
    case InputCase::kEmptyFactors:
      return HalfHalfString(20);
    case InputCase::kFull:
      return test::RandomUncertain({.length = 260, .alphabet = 4,
                                    .theta = 0.6, .max_choices = 4,
                                    .seed = seed});
  }
  return UncertainString();
}

// §4 special form: exactly one option per position, probability in (0, 1].
UncertainString SpecialString(InputCase c, uint64_t seed) {
  int64_t length = 0;
  int32_t alphabet = 3;
  switch (c) {
    case InputCase::kSmall:
    case InputCase::kCorrelated:
      length = 45;
      break;
    case InputCase::kEmpty:
      return UncertainString();
    case InputCase::kEmptyFactors:
      length = 1;  // no transform; the degenerate single-position string
      break;
    case InputCase::kFull:
      length = 260;
      alphabet = 4;
      break;
  }
  Rng rng(seed);
  UncertainString s;
  for (int64_t i = 0; i < length; ++i) {
    const uint8_t ch = static_cast<uint8_t>('a' + rng.Uniform(alphabet));
    const double prob = static_cast<double>(1 + rng.Uniform(64)) / 64.0;
    s.AddPosition({{ch, prob}});
  }
  if (c == InputCase::kCorrelated) return AddRule(std::move(s));
  return s;
}

double CaseTauMin(InputCase c) {
  return c == InputCase::kEmptyFactors ? 0.75 : 0.1;
}

int CaseQueries(InputCase c) { return c == InputCase::kFull ? 80 : 40; }

std::string SomePattern(const UncertainString& s, int32_t alphabet, Rng* rng) {
  if (s.size() > 0 && rng->Uniform(2) == 0) {
    const int64_t max_len = std::min<int64_t>(s.size(), 12);
    const size_t len = 1 + rng->Uniform(static_cast<uint64_t>(max_len));
    const int64_t start =
        static_cast<int64_t>(rng->Uniform(s.size() - len + 1));
    return test::PatternFromString(s, start, len, rng->Next());
  }
  return test::RandomPattern(alphabet, 1 + rng->Uniform(8), rng->Next());
}

bool SameDocMatches(const std::vector<DocMatch>& a,
                    const std::vector<DocMatch>& b, double tol = 1e-9) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc) return false;
    if (std::abs(a[i].relevance - b[i].relevance) > tol) return false;
  }
  return true;
}

// ---- Per-index drivers: build -> Save -> Load -> compare answers ----

struct SubstringDriver {
  static constexpr bool kCompact = false;

  static void RunCase(InputCase c) {
    const UncertainString s = GeneralString(c, 2024);
    IndexOptions options;
    options.transform.tau_min = CaseTauMin(c);
    options.compact = kCompact;
    const auto built = SubstringIndex::Build(s, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::string blob;
    ASSERT_TRUE(built->Save(&blob).ok());
    EXPECT_GT(blob.size(), 32u);
    const auto loaded = SubstringIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->options().compact, kCompact);
    // Compact blobs persist the suffix array, so Load never re-runs SA-IS.
    EXPECT_EQ(SubstringIndexTestPeer::SaLoadedFromSection(*loaded), kCompact);
    EXPECT_EQ(loaded->stats().num_factors, built->stats().num_factors);
    EXPECT_EQ(loaded->stats().transformed_length,
              built->stats().transformed_length);
    Rng rng(7);
    for (int q = 0; q < CaseQueries(c); ++q) {
      const std::string pattern = SomePattern(s, 4, &rng);
      for (const double tau : {CaseTauMin(c), 0.3, 0.8}) {
        if (tau < CaseTauMin(c)) continue;
        std::vector<Match> a, b;
        ASSERT_TRUE(built->Query(pattern, tau, &a).ok());
        ASSERT_TRUE(loaded->Query(pattern, tau, &b).ok());
        ASSERT_TRUE(test::SameMatches(a, b))
            << CaseName(c) << " pattern " << pattern << " tau " << tau;
      }
    }
  }
};

// The compact (FM-index) serving configuration, driven through the same
// cases: the blob gains the "SARR" suffix-array section and Load rebuilds
// the FM-index from it without SA-IS or a suffix tree.
struct CompactSubstringDriver {
  static void RunCase(InputCase c) {
    const UncertainString s = GeneralString(c, 2024);
    IndexOptions options;
    options.transform.tau_min = CaseTauMin(c);
    options.compact = true;
    const auto built = SubstringIndex::Build(s, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::string blob;
    ASSERT_TRUE(built->Save(&blob).ok());
    const auto loaded = SubstringIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded->options().compact);
    EXPECT_TRUE(SubstringIndexTestPeer::SaLoadedFromSection(*loaded));
    EXPECT_EQ(loaded->stats().num_factors, built->stats().num_factors);
    // Loaded-compact answers must equal a fresh *tree-mode* build's: the
    // full Save -> Load -> Query equivalence across modes.
    IndexOptions tree_options;
    tree_options.transform.tau_min = CaseTauMin(c);
    const auto tree = SubstringIndex::Build(s, tree_options);
    ASSERT_TRUE(tree.ok());
    Rng rng(7);
    for (int q = 0; q < CaseQueries(c); ++q) {
      const std::string pattern = SomePattern(s, 4, &rng);
      for (const double tau : {CaseTauMin(c), 0.3, 0.8}) {
        if (tau < CaseTauMin(c)) continue;
        std::vector<Match> a, b, t;
        ASSERT_TRUE(built->Query(pattern, tau, &a).ok());
        ASSERT_TRUE(loaded->Query(pattern, tau, &b).ok());
        ASSERT_TRUE(tree->Query(pattern, tau, &t).ok());
        ASSERT_TRUE(test::SameMatches(a, b))
            << CaseName(c) << " pattern " << pattern << " tau " << tau;
        ASSERT_TRUE(test::SameMatches(t, b, 0.0))
            << CaseName(c) << " (vs tree mode) pattern " << pattern
            << " tau " << tau;
      }
    }
  }
};

struct ListingDriver {
  static void RunCase(InputCase c) {
    std::vector<UncertainString> docs;
    if (c != InputCase::kEmpty) {
      for (uint64_t d = 0; d < 3; ++d) {
        docs.push_back(GeneralString(c, 100 + d));
      }
    }
    ListingOptions options;
    options.transform.tau_min = CaseTauMin(c);
    const auto built = ListingIndex::Build(docs, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::string blob;
    ASSERT_TRUE(built->Save(&blob).ok());
    const auto loaded = ListingIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_docs(), built->num_docs());
    EXPECT_EQ(loaded->stats().transformed_length,
              built->stats().transformed_length);
    const UncertainString probe =
        docs.empty() ? UncertainString() : docs[0];
    Rng rng(8);
    for (int q = 0; q < CaseQueries(c); ++q) {
      const std::string pattern = SomePattern(probe, 4, &rng);
      for (const double tau : {CaseTauMin(c), 0.3, 0.8}) {
        if (tau < CaseTauMin(c)) continue;
        for (const RelevanceMetric metric :
             {RelevanceMetric::kMax, RelevanceMetric::kNoisyOr}) {
          std::vector<DocMatch> a, b;
          ASSERT_TRUE(built->QueryWithMetric(pattern, tau, metric, &a).ok());
          ASSERT_TRUE(loaded->QueryWithMetric(pattern, tau, metric, &b).ok());
          ASSERT_TRUE(SameDocMatches(a, b))
              << CaseName(c) << " pattern " << pattern << " tau " << tau;
        }
      }
    }
  }
};

struct ApproxDriver {
  static void RunCase(InputCase c) {
    const UncertainString s = GeneralString(c, 2024);
    ApproxOptions options;
    options.transform.tau_min = CaseTauMin(c);
    options.epsilon = 0.05;
    const auto built = ApproxIndex::Build(s, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::string blob;
    ASSERT_TRUE(built->Save(&blob).ok());
    const auto loaded = ApproxIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->stats().num_links, built->stats().num_links);
    EXPECT_EQ(loaded->stats().num_marked_nodes,
              built->stats().num_marked_nodes);
    Rng rng(9);
    for (int q = 0; q < CaseQueries(c); ++q) {
      const std::string pattern = SomePattern(s, 4, &rng);
      for (const double tau : {CaseTauMin(c), 0.3, 0.8}) {
        if (tau < CaseTauMin(c)) continue;
        std::vector<Match> a, b;
        ASSERT_TRUE(built->Query(pattern, tau, &a).ok());
        ASSERT_TRUE(loaded->Query(pattern, tau, &b).ok());
        ASSERT_TRUE(test::SameMatches(a, b))
            << CaseName(c) << " pattern " << pattern << " tau " << tau;
      }
    }
  }
};

struct SpecialDriver {
  static void RunCase(InputCase c) {
    const UncertainString s = SpecialString(c, 2024);
    const auto built = SpecialIndex::Build(s, SpecialIndexOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::string blob;
    ASSERT_TRUE(built->Save(&blob).ok());
    const auto loaded = SpecialIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->stats().length, built->stats().length);
    EXPECT_EQ(loaded->stats().num_tree_nodes, built->stats().num_tree_nodes);
    Rng rng(10);
    for (int q = 0; q < CaseQueries(c); ++q) {
      const std::string pattern = SomePattern(s, 4, &rng);
      // No construction-time floor: any tau in (0, 1] is valid.
      for (const double tau : {0.05, 0.3, 0.8}) {
        std::vector<Match> a, b;
        ASSERT_TRUE(built->Query(pattern, tau, &a).ok());
        ASSERT_TRUE(loaded->Query(pattern, tau, &b).ok());
        ASSERT_TRUE(test::SameMatches(a, b))
            << CaseName(c) << " pattern " << pattern << " tau " << tau;
      }
    }
  }
};

template <typename Driver>
class SerializationRoundTrip : public ::testing::Test {};

using AllDrivers =
    ::testing::Types<SubstringDriver, CompactSubstringDriver, ListingDriver,
                     ApproxDriver, SpecialDriver>;

class DriverNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, SubstringDriver>) return "Substring";
    if (std::is_same_v<T, CompactSubstringDriver>) return "CompactSubstring";
    if (std::is_same_v<T, ListingDriver>) return "Listing";
    if (std::is_same_v<T, ApproxDriver>) return "Approx";
    if (std::is_same_v<T, SpecialDriver>) return "Special";
    return "?";
  }
};

TYPED_TEST_SUITE(SerializationRoundTrip, AllDrivers, DriverNames);

TYPED_TEST(SerializationRoundTrip, SmallRandomInput) {
  TypeParam::RunCase(InputCase::kSmall);
}

TYPED_TEST(SerializationRoundTrip, CorrelatedInput) {
  TypeParam::RunCase(InputCase::kCorrelated);
}

TYPED_TEST(SerializationRoundTrip, EmptyInput) {
  TypeParam::RunCase(InputCase::kEmpty);
}

TYPED_TEST(SerializationRoundTrip, EmptyFactorInput) {
  TypeParam::RunCase(InputCase::kEmptyFactors);
}

TYPED_TEST(SerializationRoundTrip, FullScaleRandomInput) {
  TypeParam::RunCase(InputCase::kFull);
}

// ---- Non-typed extras: option fidelity and oracle agreement ----

TEST(SerializationTest, SubstringRoundTripNonDefaultOptions) {
  const UncertainString s = GeneralString(InputCase::kSmall, 2024);
  IndexOptions options;
  options.transform.tau_min = 0.25;
  options.max_short_depth = 4;
  options.rmq_engine = RmqEngineKind::kFischerHeun;
  options.blocking = BlockingMode::kPaperExact;
  options.scan_cutoff = 7;
  const auto index = SubstringIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());
  const auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options().max_short_depth, 4);
  EXPECT_EQ(loaded->options().rmq_engine, RmqEngineKind::kFischerHeun);
  EXPECT_EQ(loaded->options().blocking, BlockingMode::kPaperExact);
  EXPECT_EQ(loaded->options().scan_cutoff, 7u);
  EXPECT_EQ(loaded->options().transform.tau_min, 0.25);
}

TEST(SerializationTest, LoadedSubstringIndexAgreesWithBruteForce) {
  const UncertainString s = GeneralString(InputCase::kCorrelated, 2024);
  IndexOptions options;
  options.transform.tau_min = 0.1;
  const auto index = SubstringIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());
  const auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->source().correlations().size(), 1u);
  Rng rng(2);
  for (int q = 0; q < 40; ++q) {
    const std::string pattern =
        test::RandomPattern(3, 1 + rng.Uniform(6), rng.Next());
    std::vector<Match> got;
    ASSERT_TRUE(loaded->Query(pattern, 0.1, &got).ok());
    ASSERT_TRUE(test::SameMatches(got, BruteForceSearch(s, pattern, 0.1)))
        << pattern;
  }
}

TEST(SerializationTest, CompactModeSurvivesRoundTrip) {
  const UncertainString s = GeneralString(InputCase::kSmall, 2024);
  IndexOptions options;
  options.transform.tau_min = 0.1;
  options.compact = true;
  const auto index = SubstringIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());
  const auto loaded = SubstringIndex::Load(blob);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->options().compact);
  Rng rng(4);
  for (int q = 0; q < 30; ++q) {
    const std::string pattern =
        test::RandomPattern(3, 1 + rng.Uniform(6), rng.Next());
    std::vector<Match> a, b;
    ASSERT_TRUE(index->Query(pattern, 0.2, &a).ok());
    ASSERT_TRUE(loaded->Query(pattern, 0.2, &b).ok());
    ASSERT_TRUE(test::SameMatches(a, b)) << pattern;
  }
}

TEST(SerializationTest, AllCasesHaveDistinctNames) {
  // Guards the CaseName table against silently dropping a case.
  std::vector<std::string> names;
  for (const InputCase c : kAllCases) names.push_back(CaseName(c));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// ---- Golden bytes: the on-disk format pinned by size and checksum ----
//
// The values were recorded from the Save() output of the container writer
// that assembled each container by appending to a growing buffer, before
// the single-pass writer and the concurrent shard saves. A rewrite of the
// serialization layer that changes a single byte of any container —
// framing, padding, section order, checksum — fails here, whereas the
// determinism tests only compare the code against itself. Probabilities are
// multiples of 1/64, so the stored probabilities are exact; the stored
// log-probabilities come from the C library's log(). Update these values
// only together with a container version bump (docs/FORMAT.md).

struct GoldenBytes {
  const char* name;
  uint32_t version;
  size_t size;
  uint64_t fnv;
};

UncertainString GoldenString(uint64_t seed) {
  return AddRule(test::RandomUncertain(
      {.length = 150, .alphabet = 4, .theta = 0.5, .seed = seed}));
}

void ExpectGolden(const GoldenBytes& want, const std::string& got) {
  EXPECT_EQ(got.size(), want.size) << want.name << " v" << want.version;
  EXPECT_EQ(Fnv1a64(got.data(), got.size()), want.fnv)
      << want.name << " v" << want.version;
}

constexpr uint32_t kGoldenVersions[] = {serde::kInterchangeVersion,
                                        serde::kContainerVersion};

TEST(SerializationGoldenTest, SubstringSaveBytesArePinned) {
  constexpr GoldenBytes kWant[] = {
      {"tree", 2, 54934, 0x6723cb87e7bbd2c7ull},
      {"tree", 3, 54968, 0xbbf859730a18dc3bull},
      {"compact", 2, 64950, 0xcd59ac06e5f348fdull},
      {"compact", 3, 134072, 0x4ef1790a5b29d07full},
  };
  const UncertainString s = GoldenString(41);
  size_t i = 0;
  for (const bool compact : {false, true}) {
    IndexOptions options;
    options.transform.tau_min = 0.1;
    options.compact = compact;
    const auto index = SubstringIndex::Build(s, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (const uint32_t version : kGoldenVersions) {
      std::string blob;
      ASSERT_TRUE(index->Save(&blob, version).ok());
      ExpectGolden(kWant[i++], blob);
    }
  }
}

TEST(SerializationGoldenTest, ShardedSaveBytesArePinnedAtEveryThreadCount) {
  constexpr GoldenBytes kWant[] = {
      {"sharded tree", 2, 57000, 0x24eb918a30f02c78ull},
      {"sharded tree", 3, 57112, 0x8b8519ead61f3950ull},
      {"sharded compact", 2, 67208, 0x2beb90c7e40a795eull},
      {"sharded compact", 3, 156128, 0x70f5f884c14323f3ull},
  };
  const UncertainString s = GoldenString(42);
  for (const int32_t threads : {1, 2, 4}) {
    size_t i = 0;
    for (const bool compact : {false, true}) {
      ShardedIndexOptions options;
      options.index.transform.tau_min = 0.1;
      options.index.compact = compact;
      options.num_shards = 3;
      options.overlap = 12;
      options.num_threads = threads;
      const auto index = ShardedIndex::Build(s, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      for (const uint32_t version : kGoldenVersions) {
        std::string blob;
        ASSERT_TRUE(index->Save(&blob, version).ok());
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExpectGolden(kWant[i++], blob);
      }
    }
  }
}

// The 150-position golden string above fits in a handful of 64-blocks and
// has no long RMQ level at all. This input is large enough for hundreds of
// blocks per depth, at least three kPow2 long levels and multi-level top
// sparse tables, and carries many correlation rules, so the RMQ forest and
// the active bitsets are pinned over every branch of their construction.
// Recorded from the per-depth construction (one suffix-array pass per depth
// and per long level) before the fused sweeps replaced it.
UncertainString LargeGoldenString() {
  UncertainString s = AddRule(test::RandomUncertain(
      {.length = 20000, .alphabet = 4, .theta = 0.1, .seed = 43}));
  EXPECT_EQ(test::AddRandomCorrelations(&s, 24, 4343), 24);
  return s;
}

TEST(SerializationGoldenTest, LargeSaveBytesArePinnedAtEveryThreadCount) {
  constexpr GoldenBytes kWant[] = {
      {"large tree", 3, 7057800, 0xb8b4b823ae4f46feull},
      {"large compact", 3, 20847776, 0xe053b931df7954f1ull},
      {"large sharded tree", 3, 7013296, 0x4e1a7472f87ec273ull},
      {"large sharded compact", 3, 19564680, 0x0160d520ad6b4c36ull},
  };
  const UncertainString s = LargeGoldenString();
  for (const int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    size_t i = 0;
    for (const bool compact : {false, true}) {
      IndexOptions options;
      options.transform.tau_min = 0.1;
      options.compact = compact;
      const auto index =
          SubstringIndex::Build(s, options, {.threads = threads});
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      std::string blob;
      ASSERT_TRUE(index->Save(&blob, serde::kContainerVersion).ok());
      ExpectGolden(kWant[i++], blob);
    }
    for (const bool compact : {false, true}) {
      ShardedIndexOptions options;
      options.index.transform.tau_min = 0.1;
      options.index.compact = compact;
      options.num_shards = 3;
      options.overlap = 64;
      options.num_threads = threads;
      const auto index = ShardedIndex::Build(s, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      std::string blob;
      ASSERT_TRUE(index->Save(&blob, serde::kContainerVersion).ok());
      ExpectGolden(kWant[i++], blob);
    }
  }
}

TEST(SerializationGoldenTest, SpecialSaveBytesArePinned) {
  constexpr GoldenBytes kWant[] = {
      {"special", 2, 698, 0x65a22bc363a79eb1ull},
      {"special", 3, 712, 0xe4a13f63f01551a8ull},
  };
  const auto index = SpecialIndex::Build(
      SpecialString(InputCase::kCorrelated, 44), SpecialIndexOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  size_t i = 0;
  for (const uint32_t version : kGoldenVersions) {
    std::string blob;
    ASSERT_TRUE(index->Save(&blob, version).ok());
    ExpectGolden(kWant[i++], blob);
  }
}

TEST(SerializationGoldenTest, ListingSaveBytesArePinned) {
  constexpr GoldenBytes kWant[] = {
      {"listing", 2, 180771, 0x3e3fdf9a781c7e16ull},
      {"listing", 3, 180792, 0x46881476b2e97f48ull},
  };
  std::vector<UncertainString> docs;
  for (uint64_t d = 0; d < 3; ++d) docs.push_back(GoldenString(50 + d));
  ListingOptions options;
  options.transform.tau_min = 0.1;
  const auto index = ListingIndex::Build(docs, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  size_t i = 0;
  for (const uint32_t version : kGoldenVersions) {
    std::string blob;
    ASSERT_TRUE(index->Save(&blob, version).ok());
    ExpectGolden(kWant[i++], blob);
  }
}

}  // namespace
}  // namespace pti
