// Tests for ListingIndex (§6): the paper's Figure 2 and Figure 6 worked
// examples, relevance metrics, document deduplication, and oracle sweeps.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/listing_index.h"
#include "test_util.h"

namespace pti {
namespace {

void ExpectSameDocs(const std::vector<DocMatch>& got,
                    const std::vector<DocMatch>& want, double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size()) << "doc count mismatch";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc);
    EXPECT_NEAR(got[i].relevance, want[i].relevance, tol);
  }
}

// Figure 2's collection (probabilities normalized where the figure's OCR has
// gaps; d1 and d2 follow the paper exactly).
std::vector<UncertainString> Figure2Collection() {
  UncertainString d1;
  d1.AddPosition({{'A', 0.4}, {'B', 0.3}, {'F', 0.3}});
  d1.AddPosition({{'B', 0.3}, {'L', 0.3}, {'F', 0.3}, {'J', 0.1}});
  d1.AddPosition({{'F', 0.5}, {'J', 0.5}});
  UncertainString d2;
  d2.AddPosition({{'A', 0.6}, {'C', 0.4}});
  d2.AddPosition({{'B', 0.5}, {'F', 0.3}, {'J', 0.2}});
  d2.AddPosition({{'B', 0.4}, {'C', 0.3}, {'E', 0.2}, {'F', 0.1}});
  UncertainString d3;
  d3.AddPosition({{'A', 0.4}, {'F', 0.4}, {'P', 0.2}});
  d3.AddPosition({{'I', 0.4}, {'L', 0.3}, {'P', 0.3}});
  d3.AddPosition({{'A', 0.7}, {'T', 0.3}});
  return {d1, d2, d3};
}

TEST(ListingIndexTest, PaperFigure2Example) {
  // Query ("BF", 0.1): only d1 qualifies (B at 2 (.3) * F at 3 (.5) = .15);
  // d2's best "BF" is .5*.1 = .05 and d3 has no B at all.
  ListingOptions options;
  options.transform.tau_min = 0.05;
  const auto index = ListingIndex::Build(Figure2Collection(), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::vector<DocMatch> out;
  ASSERT_TRUE(index->Query("BF", 0.1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 0);
  EXPECT_NEAR(out[0].relevance, 0.15, 1e-12);
  // At tau = 0.05, d2 joins.
  ASSERT_TRUE(index->Query("BF", 0.05, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 0);
  EXPECT_EQ(out[1].doc, 1);
  EXPECT_NEAR(out[1].relevance, 0.05, 1e-12);
}

TEST(ListingIndexTest, PaperFigure6RelevanceMetrics) {
  // Figure 6's string S (6 positions) with occurrences of "BFA" at
  // (0-based) 0, 1, 3 having probs .045, .09, .048; Rel_max = .09.
  UncertainString s;
  s.AddPosition({{'A', 0.4}, {'B', 0.3}, {'F', 0.3}});
  s.AddPosition({{'B', 0.3}, {'L', 0.3}, {'F', 0.3}, {'J', 0.1}});
  s.AddPosition({{'A', 0.5}, {'F', 0.5}});
  s.AddPosition({{'A', 0.6}, {'B', 0.4}});
  s.AddPosition({{'B', 0.5}, {'F', 0.3}, {'J', 0.2}});
  s.AddPosition({{'A', 0.4}, {'C', 0.3}, {'E', 0.2}, {'F', 0.1}});
  // Occurrence probabilities, hand-checked:
  //   pos 0: B(.3) F(.3) A(.5) = .045
  //   pos 1: B(.3) F(.5) A(.6) = .09   (the paper's Rel_max = .09 matches)
  //   pos 3: B(.4) F(.3) A(.4) = .048
  EXPECT_NEAR(s.OccurrenceProb("BFA", 1).ToLinear(), 0.09, 1e-12);
  EXPECT_NEAR(BruteForceRelevance(s, "BFA", RelevanceMetric::kMax, 0.01),
              0.09, 1e-12);
  // Paper OR formula: sum - prod.
  const double expected_or =
      (0.045 + 0.09 + 0.048) - (0.045 * 0.09 * 0.048);
  EXPECT_NEAR(
      BruteForceRelevance(s, "BFA", RelevanceMetric::kPaperOr, 0.01),
      expected_or, 1e-12);
  // And through the index.
  ListingOptions options;
  options.transform.tau_min = 0.01;
  const auto index = ListingIndex::Build({s}, options);
  ASSERT_TRUE(index.ok());
  std::vector<DocMatch> out;
  ASSERT_TRUE(index->Query("BFA", 0.05, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].relevance, 0.09, 1e-12);
  ASSERT_TRUE(
      index->QueryWithMetric("BFA", 0.15, RelevanceMetric::kPaperOr, &out)
          .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].relevance, expected_or, 1e-9);
  // Noisy-OR: 1 - (1-.045)(1-.09)(1-.048).
  ASSERT_TRUE(
      index->QueryWithMetric("BFA", 0.15, RelevanceMetric::kNoisyOr, &out)
          .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].relevance, 1 - (1 - 0.045) * (1 - 0.09) * (1 - 0.048),
              1e-9);
}

TEST(ListingIndexTest, DocumentsReportedOnce) {
  // A document with many occurrences of the pattern must appear exactly once.
  UncertainString doc;
  for (int i = 0; i < 20; ++i) {
    doc.AddPosition({{'a', 0.9}, {'b', 0.1}});
  }
  ListingOptions options;
  options.transform.tau_min = 0.3;
  const auto index = ListingIndex::Build({doc, doc}, options);
  ASSERT_TRUE(index.ok());
  std::vector<DocMatch> out;
  ASSERT_TRUE(index->Query("aa", 0.5, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 0);
  EXPECT_EQ(out[1].doc, 1);
  EXPECT_NEAR(out[0].relevance, 0.81, 1e-12);
}

TEST(ListingIndexTest, EmptyCollectionAndValidation) {
  ListingOptions options;
  const auto index = ListingIndex::Build({}, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_docs(), 0);
  std::vector<DocMatch> out;
  EXPECT_TRUE(index->Query("a", 0.5, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(index->Query("", 0.5, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("a", 0.05, &out).IsInvalidArgument());  // < tau_min
}

class ListingSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(ListingSweepTest, MatchesOracle) {
  const auto [ndocs, doclen, tau, seed] = GetParam();
  std::vector<UncertainString> docs;
  for (int d = 0; d < ndocs; ++d) {
    test::RandomStringSpec spec;
    spec.length = doclen;
    spec.alphabet = 2;
    spec.theta = 0.5;
    spec.seed = static_cast<uint64_t>(seed) * 1000 + d;
    docs.push_back(test::RandomUncertain(spec));
  }
  ListingOptions options;
  options.transform.tau_min = 0.1;
  const auto index = ListingIndex::Build(docs, options);
  ASSERT_TRUE(index.ok());
  Rng rng(seed);
  for (int q = 0; q < 40; ++q) {
    const std::string pattern =
        test::RandomPattern(2, 1 + rng.Uniform(5), rng.Next());
    std::vector<DocMatch> got;
    ASSERT_TRUE(index->Query(pattern, tau, &got).ok());
    const auto want =
        BruteForceListing(docs, pattern, tau, RelevanceMetric::kMax, tau);
    ExpectSameDocs(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListingSweepTest,
    ::testing::Combine(::testing::Values(1, 3, 10, 25),
                       ::testing::Values(5, 30),
                       ::testing::Values(0.1, 0.4),
                       ::testing::Values(1, 2, 3)));

TEST(ListingIndexTest, AggregateMetricsMatchOracle) {
  std::vector<UncertainString> docs;
  for (int d = 0; d < 8; ++d) {
    test::RandomStringSpec spec{.length = 25, .alphabet = 2, .theta = 0.6,
                                .seed = 500u + d};
    docs.push_back(test::RandomUncertain(spec));
  }
  ListingOptions options;
  options.transform.tau_min = 0.1;
  const auto index = ListingIndex::Build(docs, options);
  ASSERT_TRUE(index.ok());
  Rng rng(71);
  for (int q = 0; q < 30; ++q) {
    const std::string pattern =
        test::RandomPattern(2, 1 + rng.Uniform(4), rng.Next());
    for (const RelevanceMetric metric :
         {RelevanceMetric::kPaperOr, RelevanceMetric::kNoisyOr}) {
      std::vector<DocMatch> got;
      ASSERT_TRUE(index->QueryWithMetric(pattern, 0.3, metric, &got).ok());
      // Oracle aggregates occurrences with probability >= tau_min, exactly
      // as the index does.
      const auto want = BruteForceListing(docs, pattern, 0.3, metric, 0.1);
      ExpectSameDocs(got, want);
    }
  }
}

TEST(ListingIndexTest, LongPatternListing) {
  std::vector<UncertainString> docs;
  for (int d = 0; d < 5; ++d) {
    test::RandomStringSpec spec{.length = 120, .alphabet = 2, .theta = 0.1,
                                .seed = 900u + d};
    docs.push_back(test::RandomUncertain(spec));
  }
  ListingOptions options;
  options.transform.tau_min = 0.2;
  options.max_short_depth = 2;  // force the long path
  options.scan_cutoff = 1;
  const auto index = ListingIndex::Build(docs, options);
  ASSERT_TRUE(index.ok());
  Rng rng(73);
  for (int q = 0; q < 30; ++q) {
    const size_t len = 3 + rng.Uniform(8);
    const size_t d = rng.Uniform(docs.size());
    if (docs[d].size() < static_cast<int64_t>(len)) continue;
    const int64_t start =
        static_cast<int64_t>(rng.Uniform(docs[d].size() - len + 1));
    const std::string pattern =
        test::PatternFromString(docs[d], start, len, rng.Next());
    std::vector<DocMatch> got;
    ASSERT_TRUE(index->Query(pattern, 0.25, &got).ok());
    const auto want = BruteForceListing(docs, pattern, 0.25,
                                        RelevanceMetric::kMax, 0.25);
    ExpectSameDocs(got, want);
  }
}

// Three documents per sweep cell: the cell's string plus two siblings drawn
// with the same knobs (and as many correlation rules), so correlated
// documents share the generalized suffix structure.
std::vector<UncertainString> SweepDocs(const test::SweepConfig& config) {
  std::vector<UncertainString> docs = {config.s};
  for (uint64_t k = 1; k <= 2; ++k) {
    UncertainString d = test::RandomUncertain({.length = config.s.size(),
                                               .alphabet = config.alphabet,
                                               .theta = 0.5,
                                               .seed = config.seed * 31 + k});
    if (config.num_correlations > 0) {
      test::AddRandomCorrelations(&d, config.num_correlations,
                                  config.seed * 131 + k);
    }
    docs.push_back(std::move(d));
  }
  return docs;
}

// Patterns for a sweep cell: half sampled from a document (likely to occur),
// half random, lengths 1..8 so both the short and the long path run.
std::vector<std::string> SweepPatterns(const std::vector<UncertainString>& docs,
                                       int32_t alphabet, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> patterns;
  for (int q = 0; q < 24; ++q) {
    const size_t len = 1 + rng.Uniform(8);
    const UncertainString& d = docs[rng.Uniform(docs.size())];
    if (q % 2 == 0 && d.size() >= static_cast<int64_t>(len)) {
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(d.size() - len + 1));
      patterns.push_back(test::PatternFromString(d, start, len, rng.Next()));
    } else {
      patterns.push_back(test::RandomPattern(alphabet, len, rng.Next()));
    }
  }
  return patterns;
}

TEST(ListingIndexTest, CorrelatedRelMaxMatchesOracle) {
  test::PropertySweepSpec spec;
  spec.lengths = {30, 60};
  spec.correlation_counts = {0, 3};
  spec.strings_per_config = 2;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    const std::vector<UncertainString> docs = SweepDocs(config);
    ListingOptions short_path;
    short_path.transform.tau_min = 0.1;
    ListingOptions long_path = short_path;
    long_path.max_short_depth = 2;
    long_path.scan_cutoff = 0;
    for (const ListingOptions& options : {short_path, long_path}) {
      const auto index = ListingIndex::Build(docs, options);
      ASSERT_TRUE(index.ok()) << config.label;
      for (const std::string& pattern :
           SweepPatterns(docs, config.alphabet, config.seed)) {
        for (const double tau : {0.1, 0.3}) {
          std::vector<DocMatch> got;
          ASSERT_TRUE(index->Query(pattern, tau, &got).ok());
          SCOPED_TRACE(config.label + " K=" +
                       std::to_string(options.max_short_depth) + " '" +
                       pattern + "' tau=" + std::to_string(tau));
          ExpectSameDocs(got, BruteForceListing(docs, pattern, tau,
                                                RelevanceMetric::kMax, tau));
        }
      }
    }
  });
}

TEST(ListingIndexTest, CorrelatedOrMetricsMatchOracle) {
  test::PropertySweepSpec spec;
  spec.lengths = {30, 60};
  spec.correlation_counts = {0, 3};
  spec.strings_per_config = 2;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    const std::vector<UncertainString> docs = SweepDocs(config);
    ListingOptions options;
    options.transform.tau_min = 0.1;
    const auto index = ListingIndex::Build(docs, options);
    ASSERT_TRUE(index.ok()) << config.label;
    for (const std::string& pattern :
         SweepPatterns(docs, config.alphabet, config.seed)) {
      for (const RelevanceMetric metric :
           {RelevanceMetric::kPaperOr, RelevanceMetric::kNoisyOr}) {
        for (const double tau : {0.15, 0.4}) {
          std::vector<DocMatch> got;
          ASSERT_TRUE(index->QueryWithMetric(pattern, tau, metric, &got).ok());
          SCOPED_TRACE(config.label + " '" + pattern +
                       "' tau=" + std::to_string(tau));
          ExpectSameDocs(got,
                         BruteForceListing(docs, pattern, tau, metric, 0.1));
        }
      }
    }
  });
}

TEST(ListingIndexTest, StatsCoherent) {
  const auto docs = Figure2Collection();
  ListingOptions options;
  options.transform.tau_min = 0.05;
  const auto index = ListingIndex::Build(docs, options);
  ASSERT_TRUE(index.ok());
  const auto stats = index->stats();
  EXPECT_EQ(stats.num_docs, 3);
  EXPECT_EQ(stats.total_positions, 9);
  EXPECT_GT(stats.num_factors, 0u);
  EXPECT_GT(index->MemoryUsage(), 0u);
}

}  // namespace
}  // namespace pti
