// Tests for the RMQ engines: exhaustive and randomized cross-checks against
// BruteForceArgMax, including tie-breaking, -inf sentinels, and all three
// engines behind the type-erased handle.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rmq/block_rmq.h"
#include "rmq/fischer_heun_rmq.h"
#include "rmq/rmq_handle.h"
#include "rmq/sparse_table_rmq.h"
#include "util/rng.h"
#include "util/serial.h"

namespace pti {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct VecFn {
  const std::vector<double>* v;
  double operator()(size_t i) const { return (*v)[i]; }
};

// Checks every (l, r) pair against brute force for all three engines.
void CheckAllRanges(const std::vector<double>& v) {
  VecFn fn{&v};
  SparseTableRmq<VecFn> sparse(fn, v.size());
  BlockRmq<VecFn> block(fn, v.size(), 4);  // small blocks stress boundaries
  FischerHeunRmq<VecFn> fh(fn, v.size());
  for (size_t l = 0; l < v.size(); ++l) {
    for (size_t r = l; r < v.size(); ++r) {
      const size_t want = BruteForceArgMax(fn, l, r);
      ASSERT_EQ(sparse.ArgMax(l, r), want) << "sparse [" << l << "," << r << "]";
      ASSERT_EQ(block.ArgMax(l, r), want) << "block [" << l << "," << r << "]";
      ASSERT_EQ(fh.ArgMax(l, r), want) << "fh [" << l << "," << r << "]";
    }
  }
}

TEST(RmqTest, SingleElement) { CheckAllRanges({3.14}); }

TEST(RmqTest, TwoElements) {
  CheckAllRanges({1.0, 2.0});
  CheckAllRanges({2.0, 1.0});
  CheckAllRanges({1.0, 1.0});
}

TEST(RmqTest, AllEqualPrefersLeftmost) {
  const std::vector<double> v(50, 7.0);
  VecFn fn{&v};
  SparseTableRmq<VecFn> sparse(fn, v.size());
  BlockRmq<VecFn> block(fn, v.size(), 8);
  FischerHeunRmq<VecFn> fh(fn, v.size());
  EXPECT_EQ(sparse.ArgMax(10, 40), 10u);
  EXPECT_EQ(block.ArgMax(10, 40), 10u);
  EXPECT_EQ(fh.ArgMax(10, 40), 10u);
}

TEST(RmqTest, StrictlyIncreasing) {
  std::vector<double> v;
  for (int i = 0; i < 60; ++i) v.push_back(i);
  CheckAllRanges(v);
}

TEST(RmqTest, StrictlyDecreasing) {
  std::vector<double> v;
  for (int i = 0; i < 60; ++i) v.push_back(-i);
  CheckAllRanges(v);
}

TEST(RmqTest, NegInfSentinels) {
  // The indexes use -inf for deleted/invalid entries; engines must handle
  // ranges that are entirely or partially -inf.
  std::vector<double> v = {kNegInf, 1.0, kNegInf, kNegInf, 2.0,
                           kNegInf, kNegInf, kNegInf, 0.5};
  CheckAllRanges(v);
  const std::vector<double> all_inf(20, kNegInf);
  CheckAllRanges(all_inf);
}

TEST(RmqTest, ExhaustiveSmallArraysWithTies) {
  // All arrays of length up to 6 over {0, 1, 2}: catches any Cartesian-code
  // tie-handling bug in FischerHeunRmq exhaustively.
  for (int len = 1; len <= 6; ++len) {
    std::vector<int> digits(len, 0);
    while (true) {
      std::vector<double> v(digits.begin(), digits.end());
      CheckAllRanges(v);
      int i = 0;
      for (; i < len; ++i) {
        if (++digits[i] < 3) break;
        digits[i] = 0;
      }
      if (i == len) break;
    }
  }
}

class RmqRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RmqRandomTest, MatchesBruteForce) {
  const auto [size, value_range] = GetParam();
  Rng rng(static_cast<uint64_t>(size) * 1000003 + value_range);
  std::vector<double> v(size);
  for (auto& x : v) {
    x = static_cast<double>(rng.UniformInt(0, value_range));
    if (rng.Bernoulli(0.1)) x = kNegInf;  // sprinkle sentinels
  }
  VecFn fn{&v};
  SparseTableRmq<VecFn> sparse(fn, v.size());
  BlockRmq<VecFn> block(fn, v.size());
  FischerHeunRmq<VecFn> fh(fn, v.size());
  for (int trial = 0; trial < 500; ++trial) {
    size_t l = rng.Uniform(v.size());
    size_t r = rng.Uniform(v.size());
    if (l > r) std::swap(l, r);
    const size_t want = BruteForceArgMax(fn, l, r);
    ASSERT_EQ(sparse.ArgMax(l, r), want);
    ASSERT_EQ(block.ArgMax(l, r), want);
    ASSERT_EQ(fh.ArgMax(l, r), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RmqRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 8, 9, 63, 64, 65, 100, 1000,
                                         4097),
                       ::testing::Values(1, 4, 1000000)));

TEST(RmqTest, HandleDispatchesAllEngines) {
  std::vector<double> v = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  VecFn fn{&v};
  for (const RmqEngineKind kind :
       {RmqEngineKind::kBlock, RmqEngineKind::kFischerHeun,
        RmqEngineKind::kSparseTable}) {
    auto handle = MakeRmq(kind, fn, v.size());
    EXPECT_EQ(handle->ArgMax(0, 10), 5u);
    EXPECT_EQ(handle->ArgMax(6, 10), 7u);
    EXPECT_GT(handle->MemoryUsage(), 0u);
  }
}

TEST(RmqTest, LargeRandomAgreementAcrossEngines) {
  Rng rng(99);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.UniformDouble();
  VecFn fn{&v};
  BlockRmq<VecFn> block(fn, v.size());
  FischerHeunRmq<VecFn> fh(fn, v.size());
  SparseTableRmq<VecFn> sparse(fn, v.size());
  for (int trial = 0; trial < 2000; ++trial) {
    size_t l = rng.Uniform(v.size());
    size_t r = rng.Uniform(v.size());
    if (l > r) std::swap(l, r);
    const size_t a = sparse.ArgMax(l, r);
    ASSERT_EQ(block.ArgMax(l, r), a);
    ASSERT_EQ(fh.ArgMax(l, r), a);
  }
}

TEST(RmqTest, MemoryUsageScalesSensibly) {
  std::vector<double> v(100000, 1.0);
  VecFn fn{&v};
  BlockRmq<VecFn> block(fn, v.size(), 64);
  SparseTableRmq<VecFn> sparse(fn, v.size());
  // The block engine's structure should be far smaller than the sparse
  // table's n log n words.
  EXPECT_LT(block.MemoryUsage() * 10, sparse.MemoryUsage());
}

TEST(RmqTest, FischerHeunSharesTypeTables) {
  // A periodic array repeats microblock types, so table count stays small
  // relative to block count; just sanity-check memory is modest.
  std::vector<double> v(8192);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 8);
  VecFn fn{&v};
  FischerHeunRmq<VecFn> fh(fn, v.size());
  EXPECT_LT(fh.MemoryUsage(), v.size() * sizeof(double));
}


// ---- Block maxima supplied by the caller vs scanned by the engine ----

// Counts accessor calls, so construction can be held to one per value.
struct CountingFn {
  const std::vector<double>* v;
  size_t* calls;
  double operator()(size_t i) const {
    ++*calls;
    return (*v)[i];
  }
};

// The per-block maxima worked out independently of the engine, under the
// reference rule: a later position replaces the best only when strictly
// greater (so a NaN first candidate is never replaced).
BlockMaxima NaiveBlockMaxima(const std::vector<double>& v, size_t block) {
  BlockMaxima m;
  for (size_t lo = 0; lo < v.size(); lo += block) {
    size_t best = lo;
    for (size_t i = lo + 1; i < std::min(lo + block, v.size()); ++i) {
      if (v[i] > v[best]) best = i;
    }
    m.arg.push_back(static_cast<uint32_t>(best));
    m.value.push_back(v[best]);
  }
  return m;
}

template <typename Engine>
std::string SavedBytes(const Engine& engine) {
  Writer w(/*aligned=*/true);
  engine.SaveTo(&w);
  return w.Take();
}

// Value patterns the differential covers; every pattern fills n values.
std::vector<double> PatternValues(int pattern, size_t n, Rng* rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case 0:  // small range: many ties
        v[i] = static_cast<double>(rng->UniformInt(0, 3));
        break;
      case 1:  // -inf runs between finite values
        v[i] = (i / 5) % 3 == 0 ? static_cast<double>(rng->UniformInt(0, 9))
                                : kNegInf;
        break;
      case 2:  // all -inf
        v[i] = kNegInf;
        break;
      default:  // distinct values with one NaN
        v[i] = rng->UniformDouble();
        if (i == n / 2) v[i] = nan;
        break;
    }
  }
  return v;
}

TEST(RmqTest, BlockRmqFromMaximaMatchesScannedBuild) {
  for (const size_t n : {1, 63, 64, 65, 1000}) {
    for (const size_t block : {1, 7, 64}) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        SCOPED_TRACE("n=" + std::to_string(n) + " block=" +
                     std::to_string(block) + " pattern=" +
                     std::to_string(pattern));
        Rng rng(n * 131 + block * 7 + static_cast<uint64_t>(pattern));
        const std::vector<double> v = PatternValues(pattern, n, &rng);
        const VecFn fn{&v};
        const BlockRmq<VecFn> scanned(fn, n, block);
        const BlockRmq<VecFn> given(fn, n, block, NaiveBlockMaxima(v, block));
        ASSERT_EQ(SavedBytes(scanned), SavedBytes(given));
        const bool has_nan = pattern == 3;
        for (size_t l = 0; l < n; ++l) {
          size_t want = l;  // BruteForceArgMax(fn, l, r), extended with r
          for (size_t r = l; r < n; ++r) {
            if (v[r] > v[want]) want = r;
            const size_t got = given.ArgMax(l, r);
            ASSERT_EQ(got, scanned.ArgMax(l, r)) << "[" << l << "," << r << "]";
            // Combining parts is not associative across a NaN, so only
            // NaN-free arrays are held to the brute-force answer.
            if (!has_nan) {
              ASSERT_EQ(got, want) << "[" << l << "," << r << "]";
            }
          }
        }
      }
    }
  }
}

TEST(RmqTest, BruteForceArgMaxReturnsLeftmostMaximum) {
  const std::vector<double> v = {1, 5, 2, 5, 5, kNegInf, 3};
  const VecFn fn{&v};
  EXPECT_EQ(BruteForceArgMax(fn, 0, 6), 1u);
  EXPECT_EQ(BruteForceArgMax(fn, 2, 6), 3u);
  EXPECT_EQ(BruteForceArgMax(fn, 5, 5), 5u);
  const RmqCandidate c = BruteForceCandidate(fn, 2, 6);
  EXPECT_EQ(c.pos, 3u);
  EXPECT_EQ(c.value, 5.0);
  const std::vector<double> all_inf(9, kNegInf);
  EXPECT_EQ(BruteForceArgMax(VecFn{&all_inf}, 2, 8), 2u);
  // A NaN first candidate is never replaced; a later NaN never wins.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> lead_nan = {nan, 1, 2};
  EXPECT_EQ(BruteForceArgMax(VecFn{&lead_nan}, 0, 2), 0u);
  const std::vector<double> mid_nan = {1, nan, 2};
  EXPECT_EQ(BruteForceArgMax(VecFn{&mid_nan}, 0, 2), 2u);
}

TEST(RmqTest, ConstructionEvaluatesEachValueOnce) {
  Rng rng(5);
  std::vector<double> v(5000);
  for (auto& x : v) x = static_cast<double>(rng.UniformInt(0, 50));
  size_t calls = 0;
  const CountingFn fn{&v, &calls};
  const BlockRmq<CountingFn> block(fn, v.size(), 64);
  EXPECT_EQ(calls, v.size());
  calls = 0;
  const SparseTableRmq<CountingFn> sparse(fn, v.size());
  EXPECT_EQ(calls, v.size());
  calls = 0;
  const FischerHeunRmq<CountingFn> fh(fn, v.size());
  EXPECT_EQ(calls, v.size());
  calls = 0;
  const BlockRmq<CountingFn> given(fn, v.size(), 64, NaiveBlockMaxima(v, 64));
  EXPECT_EQ(calls, 0u);
}

TEST(RmqTest, BlockQueryScansEachPositionOnce) {
  // A query spanning whole blocks scans its two ragged parts once each and
  // reads the middle's winner from the top table (at most two calls, one
  // when both covering windows agree), never re-evaluating a candidate when
  // combining.
  std::vector<double> v(640);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 97);
  size_t calls = 0;
  const BlockRmq<CountingFn> block(CountingFn{&v, &calls}, v.size(), 64);
  calls = 0;
  const size_t got = block.ArgMax(10, 600);
  EXPECT_EQ(got, BruteForceArgMax(VecFn{&v}, 10, 600));
  EXPECT_GE(calls, (64 - 10) + (600 - 576 + 1) + 1u);
  EXPECT_LE(calls, (64 - 10) + (600 - 576 + 1) + 2u);
}

}  // namespace
}  // namespace pti
