// engine/serving_engine.h: every future must resolve to exactly what the
// synchronous path returns — same status, bit-identical matches — under
// concurrent submitters, with and without the cache, across coalescing
// configurations; plus in-flight merging, cache reuse, error isolation
// inside a micro-batch, bounded-lane admission (load shed, priority lanes,
// counter conservation), and the Stop/drain contract. The suite is in the
// sanitize and tsan CI regexes.

#include "engine/serving_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/substring_index.h"
#include "engine/sharded_index.h"
#include "test_util.h"

namespace pti {
namespace {

constexpr double kTauMin = 0.05;

UncertainString MakeString(int64_t length, uint64_t seed) {
  test::RandomStringSpec spec;
  spec.length = length;
  spec.alphabet = 4;
  spec.seed = seed;
  return test::RandomUncertain(spec);
}

// A serving-shaped workload: a pool of distinct (pattern, tau) pairs cycled
// with repetition, so the cache, the in-flight merge and the batch dedup all
// see traffic. Patterns longer than `max_len` never appear.
std::vector<Request> Workload(const UncertainString& s, size_t count,
                              size_t distinct, size_t max_len,
                              uint64_t seed) {
  Rng rng(seed);
  const double taus[] = {0.1, 0.2, 0.4, 0.8};
  std::vector<Request> pool;
  for (size_t q = 0; q < distinct; ++q) {
    const size_t len = 1 + rng.Uniform(max_len);
    Request query;
    if (q % 5 == 0) {
      query.pattern = test::RandomPattern(4, len, rng.Next());
    } else {
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      query.pattern = test::PatternFromString(s, start, len, rng.Next());
    }
    query.tau = taus[rng.Uniform(4)];
    pool.push_back(std::move(query));
  }
  std::vector<Request> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    queries.push_back(pool[rng.Uniform(pool.size())]);
  }
  return queries;
}

struct Expected {
  Status status;
  std::vector<Match> matches;
};

// Ground truth from the synchronous one-at-a-time path, captured against the
// same index object the engine will own.
template <typename Index>
std::vector<Expected> SyncResults(const Index& index,
                                  const std::vector<Request>& queries) {
  std::vector<Expected> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i].status =
        index.Query(queries[i].pattern, queries[i].tau, &expected[i].matches);
  }
  return expected;
}

void ExpectIdentical(const std::vector<Expected>& expected,
                     std::vector<std::future<ServingEngine::Result>>* futures,
                     const std::vector<Request>& queries) {
  ASSERT_EQ(expected.size(), futures->size());
  for (size_t i = 0; i < futures->size(); ++i) {
    ServingEngine::Result result = (*futures)[i].get();
    EXPECT_EQ(result.status.code(), expected[i].status.code())
        << "query #" << i << " '" << queries[i].pattern << "' tau "
        << queries[i].tau << ": " << result.status.ToString() << " vs "
        << expected[i].status.ToString();
    // Bit-identical, not merely close: the async path must hand back the
    // exact vectors the synchronous path computes.
    EXPECT_TRUE(result.matches == expected[i].matches)
        << "query #" << i << " '" << queries[i].pattern << "' tau "
        << queries[i].tau
        << "\n  async: " << test::MatchesToString(result.matches)
        << "\n  sync:  " << test::MatchesToString(expected[i].matches);
  }
}

SubstringIndex BuildMono(const UncertainString& s) {
  IndexOptions options;
  options.transform.tau_min = kTauMin;
  auto index = SubstringIndex::Build(s, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

ShardedIndex BuildShardedIndex(const UncertainString& s, int32_t overlap) {
  ShardedIndexOptions options;
  options.index.transform.tau_min = kTauMin;
  options.num_shards = 4;
  options.overlap = overlap;
  options.num_threads = 2;
  auto index = ShardedIndex::Build(s, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

TEST(ServingEngineTest, MonolithicResultsIdenticalToSynchronousPath) {
  const UncertainString s = MakeString(300, 11);
  SubstringIndex index = BuildMono(s);
  const auto queries = Workload(s, 150, 40, 10, 12);
  const auto expected = SyncResults(index, queries);

  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SubstringIndex own = BuildMono(s);
    ServingOptions options;
    options.cache_bytes = cache_bytes;
    options.max_batch = 16;
    options.linger_us = 100;
    options.num_workers = 2;
    ServingEngine engine(std::move(own), options);
    auto futures = engine.SubmitBatch(queries);
    ExpectIdentical(expected, &futures, queries);
  }
}

TEST(ServingEngineTest, ShardedResultsIdenticalUnderConcurrentSubmitters) {
  const UncertainString s = MakeString(400, 21);
  const auto queries = Workload(s, 400, 60, 8, 22);
  ShardedIndex reference = BuildShardedIndex(s, 16);
  const auto expected = SyncResults(reference, queries);

  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    ServingOptions options;
    options.cache_bytes = cache_bytes;
    options.max_batch = 32;
    options.linger_us = 200;
    options.num_workers = 2;
    ServingEngine engine(BuildShardedIndex(s, 16), options);

    // >= 8 concurrent submitters, each owning the slice i mod kClients.
    constexpr size_t kClients = 8;
    std::vector<std::future<ServingEngine::Result>> futures(queries.size());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = c; i < queries.size(); i += kClients) {
          futures[i] = engine.Submit(queries[i]);
        }
      });
    }
    for (auto& t : clients) t.join();
    ExpectIdentical(expected, &futures, queries);

    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, queries.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.shed, 0u);
    // Conservation: every Submit call lands in exactly one terminal bucket,
    // and every accepted request is answered by the cache, an in-flight
    // merge, or a batched execution.
    EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.rejected);
    EXPECT_EQ(stats.submitted,
              stats.cache_hits + stats.inflight_merges + stats.batched_queries);
    // The default Request is interactive; the per-lane splits must agree.
    EXPECT_EQ(stats.interactive_submitted, stats.submitted);
    EXPECT_EQ(stats.interactive_completed, stats.completed);
    EXPECT_EQ(stats.batch_submitted, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);  // drained
    EXPECT_GT(stats.batches, 0u);
    if (cache_bytes == 0) {
      EXPECT_EQ(stats.cache_hits, 0u);
      EXPECT_EQ(stats.cache_entries, 0u);
    }
  }
}

TEST(ServingEngineTest, RepeatTrafficIsServedFromTheCache) {
  const UncertainString s = MakeString(250, 31);
  const auto queries = Workload(s, 80, 25, 8, 32);
  SubstringIndex reference = BuildMono(s);
  const auto expected = SyncResults(reference, queries);

  ServingOptions options;
  options.cache_bytes = size_t{4} << 20;
  options.num_workers = 2;
  ServingEngine engine(BuildMono(s), options);

  auto first = engine.SubmitBatch(queries);
  for (auto& f : first) (void)f.get();  // complete pass 1 before pass 2
  const uint64_t hits_after_first = engine.stats().cache_hits;

  auto second = engine.SubmitBatch(queries);
  ExpectIdentical(expected, &second, queries);
  const auto stats = engine.stats();
  // Pass 2 resubmits the identical workload after every result landed in
  // the cache, so each of its OK queries is a hit.
  uint64_t expected_second_hits = 0;
  for (const auto& e : expected) {
    if (e.status.ok()) ++expected_second_hits;
  }
  EXPECT_EQ(stats.cache_hits - hits_after_first, expected_second_hits);
  EXPECT_GT(stats.cache_entries, 0u);
  EXPECT_LE(stats.cache_bytes, options.cache_bytes);
}

TEST(ServingEngineTest, IdenticalInFlightRequestsShareOneExecution) {
  const UncertainString s = MakeString(200, 41);
  SubstringIndex reference = BuildMono(s);
  const std::string pattern = test::PatternFromString(s, 10, 5, 7);
  std::vector<Match> expected;
  const Status expected_status = reference.Query(pattern, 0.2, &expected);
  ASSERT_TRUE(expected_status.ok());

  ServingOptions options;
  options.cache_bytes = 0;     // merges, not cache hits, must carry repeats
  options.linger_us = 5000;    // room for duplicates to pile up
  options.max_batch = 256;
  options.num_workers = 1;
  ServingEngine engine(BuildMono(s), options);

  constexpr size_t kDupes = 64;
  std::vector<std::future<ServingEngine::Result>> futures;
  futures.reserve(kDupes);
  for (size_t i = 0; i < kDupes; ++i) {
    futures.push_back(engine.Submit({pattern, 0.2}));
  }
  for (auto& f : futures) {
    ServingEngine::Result result = f.get();
    EXPECT_TRUE(result.status.ok());
    EXPECT_TRUE(result.matches == expected);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kDupes);
  EXPECT_GT(stats.inflight_merges, 0u);
  // All duplicates that arrived while the first was pending shared its
  // execution: strictly fewer executions than submissions.
  EXPECT_LT(stats.batched_queries, kDupes);
  EXPECT_EQ(stats.submitted, stats.inflight_merges + stats.batched_queries);
}

TEST(ServingEngineTest, InvalidQueriesFailAloneWithoutPoisoningBatchmates) {
  const UncertainString s = MakeString(200, 51);
  ShardedIndex reference = BuildShardedIndex(s, 4);
  // One micro-batch carrying: valid, empty pattern (InvalidArgument), tau
  // below tau_min (InvalidArgument), pattern longer than overlap+1
  // (NotSupported for the sharded engine).
  std::vector<Request> queries = {
      {test::PatternFromString(s, 5, 3, 3), 0.2},
      {"", 0.2},
      {test::PatternFromString(s, 9, 2, 4), kTauMin / 2},
      {test::RandomPattern(4, 9, 5), 0.2},
      {test::PatternFromString(s, 20, 4, 6), 0.3},
  };
  const auto expected = SyncResults(reference, queries);
  ASSERT_TRUE(expected[0].status.ok());
  ASSERT_TRUE(expected[1].status.IsInvalidArgument());
  ASSERT_TRUE(expected[2].status.IsInvalidArgument());
  ASSERT_TRUE(expected[3].status.IsNotSupported());
  ASSERT_TRUE(expected[4].status.ok());

  ServingOptions options;
  options.linger_us = 5000;  // coalesce all five into one micro-batch
  options.num_workers = 1;
  ServingEngine engine(BuildShardedIndex(s, 4), options);
  auto futures = engine.SubmitBatch(queries);
  ExpectIdentical(expected, &futures, queries);
  const auto stats = engine.stats();
  EXPECT_GT(stats.fallback_queries, 0u);
  // batched_queries and fallback_queries are disjoint: each request lands
  // in exactly one, so conservation holds even through fallbacks.
  EXPECT_EQ(stats.submitted, stats.cache_hits + stats.inflight_merges +
                                 stats.batched_queries +
                                 stats.fallback_queries);
}

TEST(ServingEngineTest, StopDrainsAcceptedWorkAndRejectsNewWork) {
  const UncertainString s = MakeString(200, 61);
  const auto queries = Workload(s, 60, 30, 6, 62);
  SubstringIndex reference = BuildMono(s);
  const auto expected = SyncResults(reference, queries);

  ServingOptions options;
  options.linger_us = 2000;
  options.num_workers = 2;
  ServingEngine engine(BuildMono(s), options);
  auto futures = engine.SubmitBatch(queries);
  engine.Stop();

  // Accepted before Stop: all still answered, and correctly.
  ExpectIdentical(expected, &futures, queries);

  // After Stop: deterministic rejection, never a hang.
  auto rejected = engine.Submit(queries[0]);
  ServingEngine::Result result = rejected.get();
  EXPECT_TRUE(result.status.IsNotSupported()) << result.status.ToString();
  EXPECT_TRUE(result.matches.empty());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.rejected, 1u);
  // Rejected calls still count as submitted, so conservation closes.
  EXPECT_EQ(stats.submitted, queries.size() + 1);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.rejected);
}

TEST(ServingEngineTest, FuzzyResultsIdenticalToSynchronousPath) {
  const UncertainString s = MakeString(200, 81);
  SubstringIndex reference = BuildMono(s);
  // A fuzzy workload cycling k 0..2, both metrics, and one invalid k that
  // must resolve with NotSupported without failing batch-mates.
  Rng rng(82);
  std::vector<Request> queries;
  for (int q = 0; q < 60; ++q) {
    const size_t len = 1 + rng.Uniform(5);
    Request query;
    query.pattern = test::PatternFromString(
        s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
        rng.Next());
    query.tau = (q % 2) ? 0.1 : 0.3;
    query.k = q % 4;
    if (query.k == 3) query.k = 7;  // above kMaxFuzzyErrors
    query.metric = (q % 2) ? FuzzyMetric::kEdit : FuzzyMetric::kMismatch;
    queries.push_back(std::move(query));
  }
  std::vector<Expected> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i].status = reference.QueryFuzzy(
        queries[i].pattern, queries[i].tau,
        FuzzyParams{queries[i].k, queries[i].metric}, &expected[i].matches);
  }
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    ServingOptions options;
    options.cache_bytes = cache_bytes;
    options.max_batch = 16;
    options.linger_us = 100;
    options.num_workers = 2;
    ServingEngine engine(BuildMono(s), options);
    auto futures = engine.SubmitBatch(queries);
    ASSERT_EQ(futures.size(), queries.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      ServingEngine::Result result = futures[i].get();
      EXPECT_EQ(result.status.code(), expected[i].status.code())
          << "query #" << i << ": " << result.status.ToString();
      EXPECT_TRUE(result.matches == expected[i].matches)
          << "query #" << i << " '" << queries[i].pattern << "' k "
          << queries[i].k
          << "\n  async: " << test::MatchesToString(result.matches)
          << "\n  sync:  " << test::MatchesToString(expected[i].matches);
    }
  }
}

TEST(ServingEngineTest, FuzzyShardedResultsIdenticalToSynchronousPath) {
  const UncertainString s = MakeString(300, 83);
  ShardedIndex reference = BuildShardedIndex(s, 16);
  std::vector<Request> queries;
  Rng rng(84);
  for (int q = 0; q < 40; ++q) {
    const size_t len = 1 + rng.Uniform(6);
    queries.push_back(
        {test::PatternFromString(
             s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
             rng.Next()),
         (q % 2) ? 0.1 : 0.4,
         (q % 2) ? FuzzyMetric::kEdit : FuzzyMetric::kMismatch,
         static_cast<int32_t>(q % 3)});
  }
  std::vector<Expected> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i].status = reference.QueryFuzzy(
        queries[i].pattern, queries[i].tau,
        FuzzyParams{queries[i].k, queries[i].metric}, &expected[i].matches);
  }
  ServingOptions options;
  options.max_batch = 16;
  options.num_workers = 2;
  ServingEngine engine(BuildShardedIndex(s, 16), options);
  auto futures = engine.SubmitBatch(queries);
  for (size_t i = 0; i < futures.size(); ++i) {
    ServingEngine::Result result = futures[i].get();
    EXPECT_EQ(result.status.code(), expected[i].status.code()) << i;
    EXPECT_TRUE(result.matches == expected[i].matches) << "query #" << i;
  }
}

TEST(ServingEngineTest, FuzzyCacheKeysAreDistinctFromExactAndShareKZero) {
  const UncertainString s = MakeString(150, 85);
  const std::string pattern = test::PatternFromString(s, 5, 4, 86);
  ServingOptions options;
  options.cache_bytes = size_t{1} << 20;
  options.num_workers = 1;
  ServingEngine engine(BuildMono(s), options);

  // Prime the cache with the exact result.
  (void)engine.Submit({pattern, 0.2}).get();
  const uint64_t hits0 = engine.stats().cache_hits;

  // k = 0 normalizes onto the exact path: shares the cached entry (the
  // metric is ignored when k == 0, exactly as Request documents).
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kEdit, 0}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 1);

  // k = 1 must miss (distinct key) — and so must each (metric, k) pair.
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kMismatch, 1}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 1);
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kEdit, 1}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 1);
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kEdit, 2}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 1);

  // Repeats of each fuzzy key now hit their own entries.
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kMismatch, 1}).get();
  (void)engine.Submit({pattern, 0.2, FuzzyMetric::kEdit, 1}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 3);

  // An exact repeat still hits the original entry (fuzzy traffic did not
  // clobber it).
  (void)engine.Submit({pattern, 0.2}).get();
  EXPECT_EQ(engine.stats().cache_hits, hits0 + 4);
}

TEST(ServingEngineTest, DegenerateCoalescingConfigsStayCorrect) {
  const UncertainString s = MakeString(150, 71);
  const auto queries = Workload(s, 60, 20, 6, 72);
  SubstringIndex reference = BuildMono(s);
  const auto expected = SyncResults(reference, queries);

  // max_batch=1 (no coalescing), linger 0 (no waiting), one worker.
  ServingOptions options;
  options.max_batch = 1;
  options.linger_us = 0;
  options.num_workers = 1;
  options.cache_bytes = 1 << 16;  // small enough to force evictions
  ServingEngine engine(BuildMono(s), options);
  auto futures = engine.SubmitBatch(queries);
  ExpectIdentical(expected, &futures, queries);
}

// ---- Admission control (bounded lanes, load shed, priorities) ----

// Options that pin the worker in its linger window: one worker, a batch cap
// far above the workload, and a linger long enough that nothing is popped
// while the test submits. Everything the test observes about admission
// happens while the lanes are provably still holding their requests.
ServingOptions StalledWorkerOptions(int32_t max_pending) {
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  options.linger_us = 300000;  // 0.3 s: far beyond the submit burst
  options.cache_bytes = 0;
  options.max_pending = max_pending;
  return options;
}

TEST(ServingEngineAdmissionTest, FullLaneShedsWithUnavailableNotQueueing) {
  const UncertainString s = MakeString(200, 91);
  SubstringIndex reference = BuildMono(s);
  const std::string p0 = test::PatternFromString(s, 5, 3, 92);
  const std::string p1 = test::PatternFromString(s, 11, 3, 93);
  const std::string p2 = test::PatternFromString(s, 17, 3, 94);

  ServingEngine engine(BuildMono(s), StalledWorkerOptions(/*max_pending=*/2));
  auto f0 = engine.Submit({p0, 0.2});
  auto f1 = engine.Submit({p1, 0.2});
  EXPECT_EQ(engine.stats().queue_depth, 2u);  // gauge sees the held lane

  // Third distinct request: the interactive lane is at its bound, so it is
  // shed immediately — the future is already resolved, no index work done.
  auto f2 = engine.Submit({p2, 0.2});
  ServingEngine::Result shed = f2.get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_TRUE(shed.matches.empty());

  // An identical repeat of a held request merges in flight instead of
  // occupying (or being shed by) a lane slot.
  auto f3 = engine.Submit({p0, 0.2});

  std::vector<Match> expected;
  ASSERT_TRUE(reference.Query(p0, 0.2, &expected).ok());
  ServingEngine::Result r0 = f0.get();
  EXPECT_TRUE(r0.status.ok());
  EXPECT_TRUE(r0.matches == expected);
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f3.get().matches == expected);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.interactive_shed, 1u);
  EXPECT_EQ(stats.inflight_merges, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);  // drained
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.rejected);
  EXPECT_EQ(stats.interactive_submitted,
            stats.interactive_completed + stats.interactive_shed);
}

TEST(ServingEngineAdmissionTest, BatchLaneShedsWhileInteractiveStaysOpen) {
  const UncertainString s = MakeString(200, 95);
  const std::string p0 = test::PatternFromString(s, 4, 3, 96);
  const std::string p1 = test::PatternFromString(s, 10, 3, 97);
  const std::string p2 = test::PatternFromString(s, 16, 3, 98);

  ServingEngine engine(BuildMono(s), StalledWorkerOptions(/*max_pending=*/1));
  // Fill the batch lane (bound 1), then overflow it.
  auto b0 = engine.Submit(
      {p0, 0.2, FuzzyMetric::kMismatch, 0, Priority::kBatch});
  auto b1 = engine.Submit(
      {p1, 0.2, FuzzyMetric::kMismatch, 0, Priority::kBatch});
  // The lanes are bounded independently: batch overload does not close the
  // interactive lane.
  auto i0 = engine.Submit({p2, 0.2});

  ServingEngine::Result overflow = b1.get();
  EXPECT_TRUE(overflow.status.IsUnavailable()) << overflow.status.ToString();
  EXPECT_TRUE(b0.get().status.ok());
  EXPECT_TRUE(i0.get().status.ok());

  const auto stats = engine.stats();
  EXPECT_EQ(stats.batch_submitted, 2u);
  EXPECT_EQ(stats.batch_shed, 1u);
  EXPECT_EQ(stats.batch_completed, 1u);
  EXPECT_EQ(stats.interactive_submitted, 1u);
  EXPECT_EQ(stats.interactive_shed, 0u);
  EXPECT_EQ(stats.interactive_completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.rejected);
}

TEST(ServingEngineAdmissionTest, UnboundedLaneNeverSheds) {
  const UncertainString s = MakeString(200, 99);
  const auto queries = Workload(s, 120, 30, 6, 100);
  // max_pending <= 0 restores the PR-5 embedder contract: everything queues.
  ServingOptions options = StalledWorkerOptions(/*max_pending=*/0);
  options.linger_us = 0;
  ServingEngine engine(BuildMono(s), options);
  auto futures = engine.SubmitBatch(queries);
  for (auto& f : futures) (void)f.get();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, queries.size());
}

// ---- Hot reload (generation swap) ----

// Reload under full concurrent traffic: clients hammer Submit while a
// reloader thread swaps generations (alternating tree and compact builds of
// the same string, so either generation answers every query identically).
// Every future must resolve exactly once with the synchronous-path result —
// no lost requests, no double answers, no torn generations. The suite runs
// under TSan in CI.
TEST(ServingEngineReloadTest, ReloadUnderTrafficLosesNoRequests) {
  const UncertainString s = MakeString(300, 31);
  SubstringIndex reference = BuildMono(s);
  const auto queries = Workload(s, 400, 50, 8, 33);
  const auto expected = SyncResults(reference, queries);

  // Generations are pre-serialized (v3) so the reloader swaps via the cheap
  // zero-copy load path, maximizing swap frequency under the traffic.
  std::string tree_blob, compact_blob;
  ASSERT_TRUE(BuildMono(s).Save(&tree_blob).ok());
  {
    IndexOptions options;
    options.transform.tau_min = kTauMin;
    options.compact = true;
    auto compact = SubstringIndex::Build(s, options);
    ASSERT_TRUE(compact.ok());
    ASSERT_TRUE(compact->Save(&compact_blob).ok());
  }

  ServingOptions options;
  options.max_batch = 8;
  options.linger_us = 50;
  options.num_workers = 2;
  options.cache_bytes = 1 << 20;
  ServingEngine engine(BuildMono(s), options);

  constexpr size_t kClients = 6;
  std::vector<std::future<ServingEngine::Result>> futures(queries.size());
  std::atomic<bool> done{false};
  std::atomic<bool> swapped_once{false};
  std::thread reloader([&] {
    uint64_t n = 0;
    while (!done.load(std::memory_order_relaxed)) {
      auto next =
          SubstringIndex::Load(n % 2 == 0 ? compact_blob : tree_blob);
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      const Status swapped = engine.Reload(std::move(*next));
      EXPECT_TRUE(swapped.ok()) << swapped.ToString();
      swapped_once.store(true);
      ++n;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < queries.size(); i += kClients) {
        // The second half of the traffic waits for the first swap, so some
        // requests always run against a reloaded generation however the
        // threads are scheduled (a fast client could otherwise submit
        // everything before the reloader finishes one load).
        while (i >= queries.size() / 2 && !swapped_once.load()) {
          std::this_thread::yield();
        }
        futures[i] = engine.Submit(queries[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  reloader.join();

  ExpectIdentical(expected, &futures, queries);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  // Conservation holds across swaps: every accepted request was answered by
  // the cache, an in-flight merge, or a batched execution — exactly once.
  EXPECT_EQ(stats.submitted,
            stats.cache_hits + stats.inflight_merges + stats.batched_queries);
  EXPECT_GE(stats.reloads, 1u);
  EXPECT_EQ(stats.generation, stats.reloads + 1);
}

// Path-based reload: loads (mmap'd) beside the old generation, swaps on
// success, and on any failure — missing file, wrong kind — keeps the old
// generation serving and its generation number unchanged.
TEST(ServingEngineReloadTest, PathReloadSwapsAndFailedReloadKeepsServing) {
  const UncertainString s = MakeString(200, 41);
  SubstringIndex reference = BuildMono(s);
  const auto queries = Workload(s, 40, 15, 6, 43);
  const auto expected = SyncResults(reference, queries);

  const std::string dir = ::testing::TempDir();
  const std::string good_path = dir + "pti_reload_good.pti";
  {
    IndexOptions options;
    options.transform.tau_min = kTauMin;
    options.compact = true;
    auto compact = SubstringIndex::Build(s, options);
    ASSERT_TRUE(compact.ok());
    std::string blob;
    ASSERT_TRUE(compact->Save(&blob).ok());
    std::ofstream out(good_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(out.good());
  }

  ServingOptions options;
  options.num_workers = 1;
  ServingEngine engine(BuildMono(s), options);
  EXPECT_EQ(engine.stats().generation, 1u);

  for (const bool use_mmap : {true, false}) {
    const Status swapped = engine.Reload(good_path, use_mmap);
    ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  }
  EXPECT_EQ(engine.stats().generation, 3u);
  EXPECT_EQ(engine.stats().reloads, 2u);

  // A missing file and a truncated container both fail without touching the
  // serving generation.
  EXPECT_FALSE(engine.Reload(dir + "pti_reload_absent.pti", true).ok());
  const std::string bad_path = dir + "pti_reload_bad.pti";
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write("PTIC????", 8);
  }
  EXPECT_FALSE(engine.Reload(bad_path, true).ok());
  EXPECT_EQ(engine.stats().generation, 3u);
  EXPECT_EQ(engine.stats().reloads, 2u);

  // The survivor generation (mmap-backed compact) answers the workload
  // exactly like the synchronous reference.
  auto futures = engine.SubmitBatch(queries);
  ExpectIdentical(expected, &futures, queries);

  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Reload clears the result cache: entries computed against the old
// generation are never served after a swap (they could be stale if the new
// index differs), and repeat traffic re-populates against the new one.
TEST(ServingEngineReloadTest, ReloadClearsTheResultCache) {
  const UncertainString s = MakeString(120, 51);
  ServingOptions options;
  options.num_workers = 1;
  options.cache_bytes = 1 << 20;
  ServingEngine engine(BuildMono(s), options);

  const std::string pattern = test::PatternFromString(s, 3, 4, 52);
  (void)engine.Submit({pattern, 0.2}).get();
  (void)engine.Submit({pattern, 0.2}).get();
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_GT(engine.stats().cache_entries, 0u);

  ASSERT_TRUE(engine.Reload(BuildMono(s)).ok());
  EXPECT_EQ(engine.stats().cache_entries, 0u);
  (void)engine.Submit({pattern, 0.2}).get();
  EXPECT_EQ(engine.stats().cache_hits, 1u);  // miss: repopulated, not served
  (void)engine.Submit({pattern, 0.2}).get();
  EXPECT_EQ(engine.stats().cache_hits, 2u);
}

// Reload accepts a sharded replacement for a monolithic engine (and vice
// versa): the generation wrapper erases the index shape. Each segment is
// compared against its own synchronous reference (the sharded fan-out's
// floating-point summation order differs from the monolithic path in the
// last bits, so cross-shape results are equal only to tolerance).
TEST(ServingEngineReloadTest, ReloadSwapsBetweenMonolithicAndSharded) {
  const UncertainString s = MakeString(200, 61);
  SubstringIndex mono_reference = BuildMono(s);
  ShardedIndex sharded_reference = BuildShardedIndex(s, 16);
  const auto queries = Workload(s, 30, 10, 6, 62);
  const auto mono_expected = SyncResults(mono_reference, queries);
  const auto sharded_expected = SyncResults(sharded_reference, queries);

  ServingOptions options;
  options.num_workers = 1;
  ServingEngine engine(BuildMono(s), options);
  ASSERT_TRUE(engine.Reload(BuildShardedIndex(s, 16)).ok());
  auto futures = engine.SubmitBatch(queries);
  ExpectIdentical(sharded_expected, &futures, queries);
  ASSERT_TRUE(engine.Reload(BuildMono(s)).ok());
  auto futures2 = engine.SubmitBatch(queries);
  ExpectIdentical(mono_expected, &futures2, queries);
}

}  // namespace
}  // namespace pti
