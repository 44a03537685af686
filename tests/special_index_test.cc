// Tests for SpecialIndex (§4): simple vs efficient mode equivalence, oracle
// cross-validation, the Figure 5 worked example, and correlation handling.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/special_index.h"
#include "test_util.h"

namespace pti {
namespace {

UncertainString MakeSpecial(const std::string& chars,
                            const std::vector<double>& probs) {
  UncertainString s;
  for (size_t i = 0; i < chars.size(); ++i) {
    s.AddPosition({{static_cast<uint8_t>(chars[i]), probs[i]}});
  }
  return s;
}

// Random special string: every position one character with a snapped prob.
UncertainString RandomSpecial(int64_t length, int32_t alphabet, uint64_t seed) {
  Rng rng(seed);
  UncertainString s;
  for (int64_t i = 0; i < length; ++i) {
    const double p = static_cast<double>(1 + rng.Uniform(64)) / 64.0;
    s.AddPosition(
        {{static_cast<uint8_t>('a' + rng.Uniform(alphabet)), p}});
  }
  return s;
}

TEST(SpecialIndexTest, Figure5WorkedExample) {
  // X = (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6); query ("ana", 0.3) outputs
  // 1-based position 4 (ours: 3) with 0.432; position 2 fails at 0.28.
  const UncertainString s =
      MakeSpecial("banana", {0.4, 0.7, 0.5, 0.8, 0.9, 0.6});
  const auto index = SpecialIndex::Build(s, SpecialIndexOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("ana", 0.3, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 3);
  EXPECT_NEAR(out[0].probability, 0.432, 1e-12);
  // Lower threshold picks up the second occurrence.
  ASSERT_TRUE(index->Query("ana", 0.25, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].position, 1);
  EXPECT_NEAR(out[0].probability, 0.28, 1e-12);
}

TEST(SpecialIndexTest, RejectsNonSpecialStrings) {
  UncertainString s;
  s.AddPosition({{'a', 0.5}, {'b', 0.5}});
  EXPECT_TRUE(
      SpecialIndex::Build(s, SpecialIndexOptions{}).status().IsInvalidArgument());
}

TEST(SpecialIndexTest, RejectsZeroProbability) {
  UncertainString s;
  s.AddPosition({{'a', 1.0}});
  s.AddPosition({{'b', 0.0}});
  // Fails validation (sum != 1) before the positivity check.
  EXPECT_TRUE(
      SpecialIndex::Build(s, SpecialIndexOptions{}).status().IsInvalidArgument());
}

TEST(SpecialIndexTest, ArbitraryTauNoTauMin) {
  // §4 has no construction-time threshold: any tau in (0, 1] works.
  const UncertainString s = MakeSpecial("ab", {0.01, 0.02});
  const auto index = SpecialIndex::Build(s, SpecialIndexOptions{});
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("ab", 0.0001, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].probability, 0.0002, 1e-15);
  ASSERT_TRUE(index->Query("ab", 0.001, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(SpecialIndexTest, SimpleAndEfficientModesAgree) {
  const UncertainString s = RandomSpecial(300, 2, 31);
  SpecialIndexOptions simple;
  simple.use_rmq = false;
  SpecialIndexOptions efficient;
  efficient.scan_cutoff = 0;
  const auto a = SpecialIndex::Build(s, simple);
  const auto b = SpecialIndex::Build(s, efficient);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng(37);
  for (int q = 0; q < 80; ++q) {
    const std::string pattern =
        test::RandomPattern(2, 1 + rng.Uniform(12), rng.Next());
    for (const double tau : {0.05, 0.3, 0.9}) {
      std::vector<Match> ma, mb;
      ASSERT_TRUE(a->Query(pattern, tau, &ma).ok());
      ASSERT_TRUE(b->Query(pattern, tau, &mb).ok());
      ASSERT_TRUE(test::SameMatches(ma, mb))
          << pattern << " tau=" << tau << "\nsimple: "
          << test::MatchesToString(ma)
          << "\nefficient: " << test::MatchesToString(mb);
    }
  }
}

class SpecialSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(SpecialSweepTest, MatchesOracle) {
  const auto [length, alphabet, tau, seed] = GetParam();
  const UncertainString s = RandomSpecial(length, alphabet, seed * 101);
  const auto index = SpecialIndex::Build(s, SpecialIndexOptions{});
  ASSERT_TRUE(index.ok());
  Rng rng(seed);
  for (int q = 0; q < 50; ++q) {
    const size_t len = 1 + rng.Uniform(8);
    std::string pattern;
    if (q % 2 == 0 && s.size() >= static_cast<int64_t>(len)) {
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      pattern = test::PatternFromString(s, start, len, rng.Next());
    } else {
      pattern = test::RandomPattern(alphabet, len, rng.Next());
    }
    std::vector<Match> got;
    ASSERT_TRUE(index->Query(pattern, tau, &got).ok());
    const std::vector<Match> want = BruteForceSearch(s, pattern, tau);
    ASSERT_TRUE(test::SameMatches(got, want))
        << pattern << "\n got: " << test::MatchesToString(got)
        << "\nwant: " << test::MatchesToString(want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpecialSweepTest,
    ::testing::Combine(::testing::Values(1, 5, 64, 400),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0.9, 0.4, 0.1, 0.01),
                       ::testing::Values(1, 2)));

TEST(SpecialIndexTest, LongPatternsUseBlockLevels) {
  const UncertainString s = RandomSpecial(500, 2, 53);
  SpecialIndexOptions options;
  options.max_short_depth = 3;
  options.scan_cutoff = 1;
  const auto index = SpecialIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->stats().short_depth_limit, 3);
  Rng rng(59);
  for (int q = 0; q < 40; ++q) {
    const size_t len = 4 + rng.Uniform(20);
    const int64_t start = static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
    const std::string pattern =
        test::PatternFromString(s, start, len, rng.Next());
    std::vector<Match> got;
    ASSERT_TRUE(index->Query(pattern, 0.01, &got).ok());
    ASSERT_TRUE(test::SameMatches(got, BruteForceSearch(s, pattern, 0.01)))
        << pattern;
  }
}

TEST(SpecialIndexTest, CorrelatedLongPatternsMatchOracle) {
  // The long path (block levels past K = 3, no scan shortcut) resolves
  // correlation rules exactly like the short path and the oracle.
  test::PropertySweepSpec spec;
  spec.lengths = {40, 200};
  spec.correlation_counts = {1, 3};
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    UncertainString s = RandomSpecial(config.s.size(), config.alphabet,
                                      config.seed);
    ASSERT_GT(test::AddRandomCorrelations(&s, config.num_correlations,
                                          config.seed * 977 + 13),
              0);
    SpecialIndexOptions options;
    options.max_short_depth = 3;
    options.scan_cutoff = 0;
    const auto index = SpecialIndex::Build(s, options);
    ASSERT_TRUE(index.ok()) << config.label;
    // Every window of up to 12 characters, so windows holding a rule with
    // and without its dependency are all queried.
    for (int64_t start = 0; start < s.size(); ++start) {
      for (size_t len = 1; len <= 12; ++len) {
        if (start + static_cast<int64_t>(len) > s.size()) break;
        const std::string pattern =
            test::PatternFromString(s, start, len, config.seed);
        for (const double tau : {0.001, 0.05}) {
          std::vector<Match> got;
          ASSERT_TRUE(index->Query(pattern, tau, &got).ok());
          ASSERT_TRUE(
              test::SameMatches(got, BruteForceSearch(s, pattern, tau)))
              << config.label << " '" << pattern << "' tau=" << tau
              << "\n got: " << test::MatchesToString(got);
        }
      }
    }
  });
}

TEST(SpecialIndexTest, CorrelationHandledAtValidation) {
  // §4.1 "Handling Correlation" on a special string: z at position 2
  // depends on e at position 0 (Figure 4 layout, one char per position).
  UncertainString s;
  s.AddPosition({{'e', 0.6}});
  s.AddPosition({{'q', 1.0}});
  s.AddPosition({{'z', 1.0}});
  ASSERT_TRUE(s.AddCorrelation({.pos = 2, .ch = 'z', .dep_pos = 0,
                                .dep_ch = 'e', .prob_if_present = 0.3,
                                .prob_if_absent = 0.4})
                  .ok());
  const auto index = SpecialIndex::Build(s, SpecialIndexOptions{});
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  // Window includes the dependency: e present => pr(z) = .3.
  ASSERT_TRUE(index->Query("eqz", 0.1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].probability, 0.6 * 1.0 * 0.3, 1e-12);
  // Window excludes it: marginal .6*.3+.4*.4 = .34.
  ASSERT_TRUE(index->Query("qz", 0.1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].probability, 0.34, 1e-12);
  // And the oracle agrees everywhere.
  for (const char* p : {"e", "q", "z", "eq", "qz", "eqz"}) {
    std::vector<Match> got;
    ASSERT_TRUE(index->Query(p, 0.05, &got).ok());
    ASSERT_TRUE(test::SameMatches(got, BruteForceSearch(s, p, 0.05))) << p;
  }
}

TEST(SpecialIndexTest, EmptyAndValidation) {
  const auto index = SpecialIndex::Build(UncertainString(),
                                         SpecialIndexOptions{});
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  EXPECT_TRUE(index->Query("a", 0.5, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(index->Query("", 0.5, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("a", 0.0, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("a", 2.0, &out).IsInvalidArgument());
}

TEST(SpecialIndexTest, MemoryUsageNonzero) {
  const UncertainString s = RandomSpecial(100, 3, 61);
  const auto index = SpecialIndex::Build(s, SpecialIndexOptions{});
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->MemoryUsage(), 0u);
}

}  // namespace
}  // namespace pti
