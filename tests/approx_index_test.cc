// Tests for ApproxIndex (§7). The contract under test:
//   (1) no false negatives: every position with Pr(p, d) >= tau is reported;
//   (2) bounded error: every reported position has Pr(p, d) >= tau - eps;
//   (3) no duplicates (the link-stabbing uniqueness argument);
//   (4) reported probabilities under-estimate the truth by at most eps.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/approx_index.h"
#include "core/brute_force.h"
#include "test_util.h"

namespace pti {
namespace {

void CheckGuarantees(const ApproxIndex& index, const UncertainString& s,
                     const std::string& pattern, double tau, double eps) {
  std::vector<Match> got;
  ASSERT_TRUE(index.Query(pattern, tau, &got).ok()) << pattern;
  // (3) sorted, no duplicates.
  std::set<int64_t> positions;
  for (const Match& m : got) {
    ASSERT_TRUE(positions.insert(m.position).second)
        << "duplicate position " << m.position << " for '" << pattern << "'";
  }
  // (1) every true match reported.
  const std::vector<Match> want = BruteForceSearch(s, pattern, tau);
  for (const Match& m : want) {
    EXPECT_TRUE(positions.count(m.position))
        << "missing true match at " << m.position << " (prob "
        << m.probability << ") for '" << pattern << "' tau " << tau;
  }
  // (2) + (4): no reported match below tau - eps; reported probability
  // brackets the true value from below within eps.
  for (const Match& m : got) {
    const double truth = s.OccurrenceProb(pattern, m.position).ToLinear();
    EXPECT_GE(truth, tau - eps - 1e-9)
        << "reported " << m.position << " has true prob " << truth
        << " < tau - eps for '" << pattern << "'";
    EXPECT_LE(m.probability, truth + 1e-9);
    EXPECT_GE(m.probability, truth - eps - 1e-9);
  }
}

TEST(ApproxIndexTest, ExactOnDeterministicString) {
  const UncertainString s =
      UncertainString::FromDeterministic("abracadabraabracadabra");
  ApproxOptions options;
  options.transform.tau_min = 0.5;
  options.epsilon = 0.1;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("abra", 0.9, &out).ok());
  std::vector<int64_t> pos;
  for (const Match& m : out) pos.push_back(m.position);
  EXPECT_EQ(pos, (std::vector<int64_t>{0, 7, 11, 18}));
}

TEST(ApproxIndexTest, OptionsValidation) {
  const UncertainString s = UncertainString::FromDeterministic("ab");
  ApproxOptions options;
  options.epsilon = 0.0;
  EXPECT_TRUE(ApproxIndex::Build(s, options).status().IsInvalidArgument());
  options.epsilon = 1.5;
  EXPECT_TRUE(ApproxIndex::Build(s, options).status().IsInvalidArgument());
}

TEST(ApproxIndexTest, QueryValidation) {
  const UncertainString s = UncertainString::FromDeterministic("ab");
  ApproxOptions options;
  options.transform.tau_min = 0.5;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  EXPECT_TRUE(index->Query("", 0.6, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("a", 0.0, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("a", 0.2, &out).IsInvalidArgument());
}

TEST(ApproxIndexTest, EmptyString) {
  const auto index = ApproxIndex::Build(UncertainString(), ApproxOptions{});
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  EXPECT_TRUE(index->Query("a", 0.5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ApproxIndexTest, WorkedSmallExample) {
  // Figure 10's string again; tau = 0.4, eps = 0.05: "QP" truly matches at
  // position 0 (0.49); position 1 (0.3) is below tau - eps = 0.35 and must
  // NOT appear.
  UncertainString s;
  s.AddPosition({{'Q', 0.7}, {'S', 0.3}});
  s.AddPosition({{'Q', 0.3}, {'P', 0.7}});
  s.AddPosition({{'P', 1.0}});
  s.AddPosition({{'A', 0.4}, {'F', 0.3}, {'P', 0.2}, {'Q', 0.1}});
  ApproxOptions options;
  options.transform.tau_min = 0.1;
  options.epsilon = 0.05;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("QP", 0.4, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 0);
  CheckGuarantees(*index, s, "QP", 0.4, 0.05);
  CheckGuarantees(*index, s, "QP", 0.2, 0.05);
  CheckGuarantees(*index, s, "QPP", 0.3, 0.05);
}

TEST(ApproxIndexTest, ExactProbabilitiesOption) {
  UncertainString s;
  s.AddPosition({{'Q', 0.7}, {'S', 0.3}});
  s.AddPosition({{'P', 0.7}, {'Q', 0.3}});
  s.AddPosition({{'P', 1.0}});
  ApproxOptions options;
  options.transform.tau_min = 0.1;
  options.epsilon = 0.3;
  options.exact_probabilities = true;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("QP", 0.45, &out).ok());
  for (const Match& m : out) {
    EXPECT_NEAR(m.probability,
                s.OccurrenceProb("QP", m.position).ToLinear(), 1e-12);
  }
}

TEST(ApproxIndexTest, StatsReflectEpsilonPartitioning) {
  test::RandomStringSpec spec{.length = 60, .alphabet = 2, .theta = 0.5,
                              .seed = 97};
  const UncertainString s = test::RandomUncertain(spec);
  ApproxOptions coarse;
  coarse.transform.tau_min = 0.1;
  coarse.epsilon = 0.5;
  ApproxOptions fine = coarse;
  fine.epsilon = 0.02;
  const auto a = ApproxIndex::Build(s, coarse);
  const auto b = ApproxIndex::Build(s, fine);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->stats().num_links, 0u);
  // Finer epsilon => at least as many links.
  EXPECT_GE(b->stats().num_links, a->stats().num_links);
  EXPECT_EQ(a->stats().original_length, 60);
  EXPECT_GT(a->MemoryUsage(), 0u);
}

struct ApproxCase {
  int length;
  double theta;
  double tau_min;
  double epsilon;
  double tau;
  int seed;
};

class ApproxSweepTest : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(ApproxSweepTest, GuaranteesHold) {
  const ApproxCase& c = GetParam();
  test::RandomStringSpec spec;
  spec.length = c.length;
  spec.alphabet = 2;
  spec.theta = c.theta;
  spec.seed = static_cast<uint64_t>(c.seed) * 7919;
  const UncertainString s = test::RandomUncertain(spec);
  ApproxOptions options;
  options.transform.tau_min = c.tau_min;
  options.epsilon = c.epsilon;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Rng rng(c.seed);
  for (int q = 0; q < 50; ++q) {
    const size_t len = 1 + rng.Uniform(8);
    std::string pattern;
    if (q % 3 == 0 || s.size() < static_cast<int64_t>(len)) {
      pattern = test::RandomPattern(2, len, rng.Next());
    } else {
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      pattern = test::PatternFromString(s, start, len, rng.Next());
    }
    CheckGuarantees(*index, s, pattern, c.tau, c.epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproxSweepTest,
    ::testing::Values(ApproxCase{10, 0.5, 0.1, 0.05, 0.2, 1},
                      ApproxCase{40, 0.3, 0.1, 0.05, 0.15, 2},
                      ApproxCase{40, 0.7, 0.1, 0.02, 0.3, 3},
                      ApproxCase{100, 0.2, 0.15, 0.1, 0.25, 4},
                      ApproxCase{100, 0.5, 0.1, 0.2, 0.5, 5},
                      ApproxCase{200, 0.4, 0.2, 0.01, 0.2, 6},
                      ApproxCase{200, 0.1, 0.1, 0.05, 0.8, 7},
                      ApproxCase{60, 0.9, 0.05, 0.05, 0.1, 8}));

TEST(ApproxIndexTest, AgreesWithOracleWhenEpsilonTiny) {
  // With eps far below the probability quantum (1/64 grid), the approximate
  // index must return exactly the true match set.
  test::RandomStringSpec spec{.length = 80, .alphabet = 2, .theta = 0.5,
                              .seed = 111};
  const UncertainString s = test::RandomUncertain(spec);
  ApproxOptions options;
  options.transform.tau_min = 0.1;
  options.epsilon = 1e-7;
  options.exact_probabilities = true;
  const auto index = ApproxIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  Rng rng(113);
  for (int q = 0; q < 40; ++q) {
    const std::string pattern =
        test::RandomPattern(2, 1 + rng.Uniform(6), rng.Next());
    std::vector<Match> got;
    ASSERT_TRUE(index->Query(pattern, 0.25, &got).ok());
    const auto want = BruteForceSearch(s, pattern, 0.25);
    ASSERT_TRUE(test::SameMatches(got, want))
        << pattern << "\n got: " << test::MatchesToString(got)
        << "\nwant: " << test::MatchesToString(want);
  }
}

TEST(ApproxIndexTest, CorrelatedGuaranteesHold) {
  test::PropertySweepSpec spec;
  spec.lengths = {40, 100};
  spec.correlation_counts = {0, 3};
  spec.strings_per_config = 2;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    const UncertainString& s = config.s;
    for (const double eps : {0.05, 0.2}) {
      ApproxOptions options;
      options.transform.tau_min = 0.1;
      options.epsilon = eps;
      const auto index = ApproxIndex::Build(s, options);
      ASSERT_TRUE(index.ok()) << config.label;
      // One pattern per window of up to 8 characters (each character drawn
      // from its position's options), so windows holding a rule with and
      // without its dependency are all queried.
      for (int64_t start = 0; start < s.size(); ++start) {
        for (size_t len = 1; len <= 8; ++len) {
          if (start + static_cast<int64_t>(len) > s.size()) break;
          const std::string pattern = test::PatternFromString(
              s, start, len, config.seed + static_cast<uint64_t>(start));
          for (const double tau : {0.15, 0.3}) {
            SCOPED_TRACE(config.label + " eps=" + std::to_string(eps));
            CheckGuarantees(*index, s, pattern, tau, eps);
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace pti
