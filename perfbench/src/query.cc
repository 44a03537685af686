// query_tree: in-process, one caller thread, no engine and no socket.
// About 34K all-distinct (pattern, tau) requests (lengths 2..24, tau
// uniform in [0.10, 0.39], one in ten fuzzy with k = 1 under mismatch and
// length 4..24) go in 64-request ShardedIndex::QueryBatch /
// QueryFuzzyBatch calls, the calls the engine makes, to the tree-mode
// sharded index.
//
// The compact index and the ListingIndex have no query workload of their
// own: a full benchmark pass has to finish within an hour, which fits
// three workloads at a run length that rides out the host's slow spells.
// build_compact compares the compact index's answers with the tree's.

#include <algorithm>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/fuzzy.h"
#include "engine/sharded_index.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRequests = 34816;  // 544 batches of 64
constexpr size_t kBatch = 64;
constexpr int kMinLen = 2;
constexpr int kMaxLen = 24;
// A one-error match of a 2- or 3-character pattern admits nearly every
// window of the text; fuzzy requests start at length 4.
constexpr int kMinFuzzyLen = 4;
// Requests and batches sampled for the traced per-shard / per-request
// replays and for the answer checks.
constexpr size_t kReplayBatches = 48;
constexpr size_t kCheckBatches = 16;

// One 64-request call: all exact or all fuzzy.
struct Batch {
  bool fuzzy = false;
  std::vector<pti::BatchQuery> exact;
  std::vector<pti::FuzzyBatchQuery> approx;
  size_t size() const { return fuzzy ? approx.size() : exact.size(); }
};

struct Input {
  pti::UncertainString s;
  pti::ShardedIndex index;
  std::vector<Batch> batches;
};

// Every request distinct: each (pattern, tau) pair is drawn once, and one
// in ten is fuzzy. Exact and fuzzy requests are cut into separate 64-request
// calls, interleaved in draw order.
std::vector<Batch> MakeBatches(const pti::UncertainString& s, uint64_t seed) {
  PatternSampler sampler(s, seed * 7919 + 1);
  std::vector<Batch> batches;
  Batch exact, fuzzy;
  fuzzy.fuzzy = true;
  for (size_t i = 0; i < kRequests; ++i) {
    const bool is_fuzzy = i % 10 == 9;
    const std::string pattern =
        sampler.Distinct(1, is_fuzzy ? kMinFuzzyLen : kMinLen, kMaxLen)[0];
    const double tau = sampler.rng().UniformDouble(0.10, 0.39);
    if (is_fuzzy) {
      pti::FuzzyBatchQuery q;
      q.pattern = pattern;
      q.tau = tau;
      q.params.k = 1;
      q.params.metric = pti::FuzzyMetric::kMismatch;
      fuzzy.approx.push_back(std::move(q));
      if (fuzzy.size() == kBatch) {
        batches.push_back(std::move(fuzzy));
        fuzzy = Batch{};
        fuzzy.fuzzy = true;
      }
    } else {
      exact.exact.push_back({pattern, tau});
      if (exact.size() == kBatch) {
        batches.push_back(std::move(exact));
        exact = Batch{};
      }
    }
  }
  if (exact.size() > 0) batches.push_back(std::move(exact));
  if (fuzzy.size() > 0) batches.push_back(std::move(fuzzy));
  return batches;
}

// The whole set-up: data, the index, the requests. With a tracer on, the
// build records a span and its per-stage timings.
void SetUp(const Config& config, Tracer* tracer, pti::BuildTimings* timings,
           Input* in) {
  in->s = MakeString(config.seed);
  const auto t0 = Clock::now();
  in->index = Unwrap(
      pti::ShardedIndex::Build(in->s,
                               ShardedOptions(false, config.nproc, timings)),
      "sharded build");
  tracer->Add(0, "build.tree", t0, Clock::now(), 0);
  in->batches = MakeBatches(in->s, config.seed);
}

using Answers = std::vector<std::vector<pti::Match>>;

size_t RunBatch(const pti::ShardedIndex& index, const Batch& b,
                Answers* out) {
  const pti::Status st = b.fuzzy ? index.QueryFuzzyBatch(b.approx, out)
                                 : index.QueryBatch(b.exact, out);
  CheckOk(st, "query batch");
  size_t matches = 0;
  for (const auto& r : *out) matches += r.size();
  return matches;
}

// The window is measured in whole passes over the request list, so every
// slice covers the same work.
struct Passes {
  std::vector<double> rate, p50, p99;  // one entry per pass
  uint64_t requests = 0;

  void Add(uint64_t n, double wall_s, const std::vector<double>& per_req_us) {
    rate.push_back(static_cast<double>(n) / wall_s);
    p50.push_back(Percentile(per_req_us, 0.5));
    p99.push_back(Percentile(per_req_us, 0.99));
    requests += n;
  }
};

// One pass over the batches; a sample is one call's time per request. The
// first pass keeps the first kCheckBatches answers for the checks.
void IndexPass(const pti::ShardedIndex& index, const Input& in,
               Tracer* tracer, uint64_t id_base, std::vector<Answers>* kept,
               Passes* passes) {
  Answers out;
  std::vector<double> per_req_us;
  uint64_t n = 0;
  const auto start = Clock::now();
  for (size_t i = 0; i < in.batches.size(); ++i) {
    const Batch& b = in.batches[i];
    const auto t0 = Clock::now();
    RunBatch(index, b, &out);
    const auto t1 = Clock::now();
    tracer->Add(0, "sharded.query_batch", t0, t1, id_base + i);
    per_req_us.push_back(Micros(t0, t1) / static_cast<double>(b.size()));
    n += b.size();
    if (kept != nullptr && i < kCheckBatches) kept->push_back(out);
  }
  passes->Add(n, SecondsSince(start), per_req_us);
}

// The traced decomposition of the index layers on the first
// kReplayBatches batches: each batch through ShardedIndex, then the same
// batch through every shard's own QueryBatch (child spans of the sharded
// one, recorded after it, so sharded self time is the batch time minus the
// slowest shard), then every request alone through every shard's Query.
struct Replay {
  std::vector<double> fanout_self_us, skew;
  std::vector<double> class_us[4];  // short, mid, long, fuzzy
  double one_at_a_time_us = 0.0, batched_us = 0.0;
  uint64_t requests = 0, matches = 0;
};

Replay RunReplay(const pti::ShardedIndex& index, const Input& in,
                 Tracer* tracer, uint64_t id_base) {
  Replay rep;
  const int32_t k_limit = index.shard(0).stats().short_depth_limit;
  Answers out;
  for (size_t b = 0; b < std::min(kReplayBatches, in.batches.size()); ++b) {
    const Batch& batch = in.batches[b];
    const uint64_t id = id_base + b;
    // An unrecorded call first, so the recorded sharded call and the
    // per-shard replays after it all run on warm caches.
    RunBatch(index, batch, &out);
    const auto t0 = Clock::now();
    rep.matches += RunBatch(index, batch, &out);
    const auto t1 = Clock::now();
    const uint32_t parent =
        tracer->Add(0, "sharded.query_batch", t0, t1, id);
    double slowest = 0.0, sum = 0.0;
    for (int32_t k = 0; k < index.num_shards(); ++k) {
      const auto s0 = Clock::now();
      const pti::SubstringIndex& shard = index.shard(k);
      const pti::Status st = batch.fuzzy
                                 ? shard.QueryFuzzyBatch(batch.approx, &out)
                                 : shard.QueryBatch(batch.exact, &out);
      CheckOk(st, "shard batch");
      const auto s1 = Clock::now();
      tracer->Add(0, "core.shard_query_batch", s0, s1, id, parent);
      slowest = std::max(slowest, Micros(s0, s1));
      sum += Micros(s0, s1);
    }
    rep.fanout_self_us.push_back(Micros(t0, t1) - slowest);
    rep.skew.push_back(slowest / (sum / index.num_shards()));
    rep.batched_us += sum;

    std::vector<pti::Match> one;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string& pattern =
          batch.fuzzy ? batch.approx[i].pattern : batch.exact[i].pattern;
      double request_us = 0.0;
      for (int32_t k = 0; k < index.num_shards(); ++k) {
        const pti::SubstringIndex& shard = index.shard(k);
        const auto q0 = Clock::now();
        const pti::Status st =
            batch.fuzzy ? shard.QueryFuzzy(pattern, batch.approx[i].tau,
                                           batch.approx[i].params, &one)
                        : shard.Query(pattern, batch.exact[i].tau, &one);
        CheckOk(st, "shard query");
        const auto q1 = Clock::now();
        tracer->Add(0, "core.query", q0, q1, id * kBatch + i, parent);
        request_us += Micros(q0, q1);
      }
      rep.one_at_a_time_us += request_us;
      const int m = static_cast<int>(pattern.size());
      const int cls = batch.fuzzy ? 3 : m <= 4 ? 0 : m <= k_limit ? 1 : 2;
      rep.class_us[cls].push_back(request_us);
      ++rep.requests;
    }
  }
  return rep;
}

// BestRate of the passes' rates; the median of their percentiles.
Figures Summarize(const Passes& p) {
  return {BestRate(p.rate), Median(p.p50), Median(p.p99)};
}

}  // namespace

int RunQueryTree(const Config& config) {
  Report report(config);
  Tracer tracer(config.trace, 1);
  Tracer off(false, 1);

  std::vector<double> setup_s;
  Input in;
  pti::BuildTimings timings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Input{};  // release the previous repetition's index first
    const auto t0 = Clock::now();
    SetUp(config, &off, nullptr, &in);
    setup_s.push_back(SecondsSince(t0));
  }
  const double setup = Median(setup_s);
  double traced_setup = 0.0;
  if (config.trace) {
    in = Input{};
    const auto t0 = Clock::now();
    SetUp(config, &tracer, &timings, &in);
    traced_setup = SecondsSince(t0);
  }

  // Passes until the clock passes config.seconds. A traced run's passes in
  // its first half record nothing, those in the second half record spans;
  // the two give the tracing overhead.
  std::vector<Answers> kept;
  Passes plain, traced;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double elapsed = SecondsSince(start);
    if (elapsed >= config.seconds && (!config.trace || !traced.rate.empty())) {
      break;
    }
    const bool trace_pass = config.trace && elapsed >= config.seconds / 2;
    IndexPass(in.index, in, trace_pass ? &tracer : &off,
              static_cast<uint64_t>(pass) << 32,
              pass == 0 ? &kept : nullptr, trace_pass ? &traced : &plain);
  }

  Phase phase{"tree"};
  phase.attempted = phase.ok = plain.requests + traced.requests;
  report.AddPhase(phase);
  report.Workload("passes", static_cast<double>(plain.rate.size()), "count");

  const Figures plain_sum = Summarize(plain);
  const double mem = static_cast<double>(in.index.MemoryUsage());
  report.EndToEnd("setup_s", setup);
  report.EndToEnd("ops_per_s", plain_sum.ops_per_s);
  report.EndToEnd("p50_us", plain_sum.p50_us);
  report.EndToEnd("p99_us", plain_sum.p99_us);
  report.EndToEnd("bytes_per_pos", mem / kLength);

  if (config.trace) {
    std::vector<double> batch_us = tracer.Durations("sharded.query_batch");
    report.Layer("sharded.batch_p50_us", Percentile(batch_us, 0.5));
    report.Layer("sharded.batch_p99_us", Percentile(batch_us, 0.99));
    const Replay r = RunReplay(in.index, in, &tracer, 1ull << 62);
    report.Layer("sharded.fanout_self_us", Median(r.fanout_self_us));
    report.Layer("sharded.shard_skew", Median(r.skew));
    const char* classes[4] = {"short_us", "mid_us", "long_us", "fuzzy_us"};
    for (int c = 0; c < 4; ++c) {
      report.Layer(std::string("core.tree.") + classes[c],
                   Median(r.class_us[c]));
    }
    report.Layer("core.matches_per_query",
                 static_cast<double>(r.matches) /
                     static_cast<double>(r.requests));
    report.Layer("core.ns_per_match",
                 1e3 * r.one_at_a_time_us /
                     static_cast<double>(std::max<uint64_t>(1, r.matches)));
    report.Layer("core.batch_gain", r.one_at_a_time_us / r.batched_us);
    ReportBuildStages("tree", timings, &report);
    report.Layer("serde.tree.mem_bytes_per_pos", mem / kLength);

    const Figures traced_sum = Summarize(traced);
    report.Layer("trace.setup_s_ratio", traced_setup / setup);
    report.Layer("trace.ops_per_s_ratio",
                 traced_sum.ops_per_s / plain_sum.ops_per_s);
    report.Layer("trace.p50_us_ratio", traced_sum.p50_us / plain_sum.p50_us);
    report.Layer("trace.p99_us_ratio", traced_sum.p99_us / plain_sum.p99_us);
    report.Layer("trace.spans", static_cast<double>(tracer.size()));
    report.Layer("trace.span_mb", tracer.MemoryMb());
    tracer.Write(config.out_dir + "/spans-query_tree.tsv");
    for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
      report.Workload("self_ms." + layer, ms, "ms");
    }
  }

  // Answer checks, outside every timed pass: QueryBatch vs one-at-a-time
  // Query, bit for bit, and a few requests per call against brute force.
  for (size_t b = 0; b < kept.size(); ++b) {
    const Batch& batch = in.batches[b];
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string tag =
          ", batch " + std::to_string(b) + " request " + std::to_string(i);
      const auto& got = kept[b][i];
      std::vector<pti::Match> one;
      const pti::Status st =
          batch.fuzzy ? in.index.QueryFuzzy(batch.approx[i].pattern,
                                            batch.approx[i].tau,
                                            batch.approx[i].params, &one)
                      : in.index.Query(batch.exact[i].pattern,
                                       batch.exact[i].tau, &one);
      CheckOk(st, "single query");
      report.Check(one == got, "QueryBatch vs Query" + tag);
      if (i < 6) {
        const auto want =
            batch.fuzzy
                ? pti::BruteForceFuzzy(in.s, batch.approx[i].pattern,
                                       batch.approx[i].tau,
                                       batch.approx[i].params)
                : pti::BruteForceSearch(in.s, batch.exact[i].pattern,
                                        batch.exact[i].tau);
        report.Check(NearMatches(got, want), "tree vs brute force" + tag);
      }
    }
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  return report.Finish();
}

}  // namespace perfbench
