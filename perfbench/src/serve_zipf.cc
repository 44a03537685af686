// serve_zipf: loopback TCP to an in-process NetServer + ServingEngine over
// the tree-mode sharded index, both with the options `pti_cli serve
// --listen` uses when given no flags. Closed loop: nproc connections, each
// a call-style NetClient::Query caller with one request in flight. Exact
// requests are drawn Zipf(1.1) from 30K sampled patterns (lengths 3..12)
// times 5 tau values; one in ten uses the batch lane. A warm-up of 2M
// requests from the same distribution fills the result cache before the
// clock starts.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "engine/request.h"
#include "engine/serving_engine.h"
#include "engine/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPatterns = 30000;
constexpr double kTaus[] = {0.1, 0.15, 0.2, 0.25, 0.3};
constexpr size_t kNumTaus = sizeof(kTaus) / sizeof(kTaus[0]);
constexpr double kZipfS = 1.1;
constexpr size_t kWarmup = 2000000;  // requests, over all warm-up threads
constexpr uint32_t kBatchLane = 1u << 31;
constexpr size_t kSampleEvery = 509;   // answers kept for the checks
constexpr size_t kRecorded = 25000;    // requests per caller in the file

// Which seeded stream a caller draws from. Streams never repeat or wrap:
// each caller draws its next request from its own generator, so the
// warm-up, the timed callers and the traced callers see different draws
// of the same distribution.
enum StreamSet : uint64_t { kWarmStreams = 0, kTimed = 1, kTraced = 2 };

struct Input {
  pti::UncertainString s;
  std::vector<std::string> patterns;
  std::vector<uint32_t> perm;  // Zipf rank -> key
  std::vector<double> cdf;     // cumulative Zipf weight by rank
};

// A stream entry is a key index (pattern * kNumTaus + tau), plus kBatchLane
// for requests on the batch lane.
pti::Request MakeRequest(const Input& in, uint32_t entry) {
  const uint32_t key = entry & ~kBatchLane;
  pti::Request r;
  r.pattern = in.patterns[key / kNumTaus];
  r.tau = kTaus[key % kNumTaus];
  r.priority = (entry & kBatchLane) != 0 ? pti::Priority::kBatch
                                         : pti::Priority::kInteractive;
  return r;
}

// Keys are ranked Zipf(kZipfS) through a seeded permutation, so popularity
// is independent of pattern length and tau.
void MakeKeys(uint64_t seed, Input* in) {
  PatternSampler sampler(in->s, seed * 1000003 + 5);
  in->patterns = sampler.Distinct(kPatterns, 3, 12);
  const size_t keys = kPatterns * kNumTaus;
  pti::Rng& rng = sampler.rng();
  in->perm.resize(keys);
  for (size_t i = 0; i < keys; ++i) in->perm[i] = static_cast<uint32_t>(i);
  for (size_t i = keys - 1; i > 0; --i) {
    std::swap(in->perm[i], in->perm[rng.Uniform(i + 1)]);
  }
  in->cdf.resize(keys);
  double sum = 0.0;
  for (size_t r = 0; r < keys; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -kZipfS);
    in->cdf[r] = sum;
  }
}

// One caller's request stream, drawn on demand.
class Stream {
 public:
  Stream(const Input& in, uint64_t seed, StreamSet set, int caller)
      : in_(in),
        rng_(seed * 1000003 + 11 + static_cast<uint64_t>(set) * 65537 +
             static_cast<uint64_t>(caller)) {}

  uint32_t Next() {
    const double u = rng_.UniformDouble() * in_.cdf.back();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(in_.cdf.begin(), in_.cdf.end(), u) -
        in_.cdf.begin());
    uint32_t entry = in_.perm[std::min(rank, in_.perm.size() - 1)];
    if (rng_.Uniform(10) == 0) entry |= kBatchLane;
    return entry;
  }

 private:
  const Input& in_;
  pti::Rng rng_;
};

struct Sample {
  uint32_t entry = 0;
  pti::Status status;
  std::vector<pti::Match> matches;
};

// What one closed-loop segment measured.
struct Segment {
  Windows windows;
  Phase phase;
  std::vector<Sample> samples;
  std::vector<size_t> sent;  // requests each caller sent
};

// `conns` callers each send one request at a time from their own stream
// of `set`, until `seconds` pass or caller c has sent limit[c] (when
// `limit` is given). `call` sends one request on caller c and returns its
// status.
template <typename Call>
Segment ClosedLoop(const Input& in, uint64_t seed, StreamSet set, int conns,
                   const std::vector<size_t>* limit, double seconds,
                   Tracer* tracer, const char* span, Call call) {
  const size_t n = static_cast<size_t>(conns);
  Segment seg;
  seg.phase.name = span;
  seg.sent.assign(n, 0);
  std::vector<Windows> windows(n);
  std::vector<Phase> phases(n);
  std::vector<std::vector<Sample>> samples(n);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const size_t cu = static_cast<size_t>(c);
      Stream stream(in, seed, set, c);
      std::vector<pti::Match> matches;
      for (size_t i = 0;; ++i) {
        if (limit != nullptr && i >= (*limit)[cu]) break;
        const auto t0 = Clock::now();
        if (Micros(start, t0) / 1e6 >= seconds) break;
        const uint32_t entry = stream.Next();
        const pti::Status st = call(c, MakeRequest(in, entry), &matches);
        const auto t1 = Clock::now();
        tracer->Add(c, span, t0, t1, (static_cast<uint64_t>(c) << 40) | i);
        phases[cu].Count(st);
        if (st.ok()) windows[cu].Add(Micros(start, t1) / 1e6, Micros(t0, t1));
        if (i % kSampleEvery == 0) {
          samples[cu].push_back({entry, st, matches});
        }
        seg.sent[cu] = i + 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < n; ++c) {
    seg.windows.Merge(windows[c]);
    seg.phase.Add(phases[c]);
    seg.samples.insert(seg.samples.end(), samples[c].begin(),
                       samples[c].end());
  }
  return seg;
}

// The requests the timed callers sent, in the serve-script format: caller
// 0's first kRecorded requests in send order, then caller 1's, and so on.
void WriteStream(const Input& in, uint64_t seed, const Segment& timed,
                 const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "# perfbench serve_zipf request stream, seed " << seed
      << ": each caller's first timed requests, caller after caller\n";
  for (size_t c = 0; c < timed.sent.size(); ++c) {
    Stream stream(in, seed, kTimed, static_cast<int>(c));
    for (size_t i = 0; i < std::min(timed.sent[c], kRecorded); ++i) {
      const pti::Request r = MakeRequest(in, stream.Next());
      out << r.pattern << '\t' << r.tau << '\n';
    }
  }
}

}  // namespace

int RunServeZipf(const Config& config) {
  Report report(config);
  const int conns = config.nproc;
  Tracer tracer(config.trace, conns);
  Tracer off(false, conns);

  // Set-up: data, request keys, index. The first repetition's index stays
  // as the reference for ShardedIndex::Query; the last one is served.
  std::vector<double> setup_s;
  Input in;
  pti::ShardedIndex reference, served;
  pti::BuildTimings tree_t;
  const int reps = kSetupReps + (config.trace ? 1 : 0);
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced_rep = rep == kSetupReps;
    served = pti::ShardedIndex();  // release the previous repetition's
    in = Input{};
    const auto t0 = Clock::now();
    in.s = MakeString(config.seed);
    MakeKeys(config.seed, &in);
    const auto b0 = Clock::now();
    served = Unwrap(
        pti::ShardedIndex::Build(
            in.s, ShardedOptions(false, config.nproc,
                                 traced_rep ? &tree_t : nullptr)),
        "sharded build");
    (traced_rep ? tracer : off).Add(0, "build.tree", b0, Clock::now(), 0);
    setup_s.push_back(SecondsSince(t0));
    if (rep == 0) reference = std::move(served);
  }
  const double traced_setup = config.trace ? setup_s.back() : 0.0;
  if (config.trace) setup_s.pop_back();
  const double tree_mem = static_cast<double>(served.MemoryUsage());

  pti::ServingEngine engine(std::move(served), pti::ServingOptions{});
  pti::net::NetServer server(&engine, pti::net::NetServerOptions{});
  CheckOk(server.Start(), "listen");

  // Warm-up: kWarmup requests from streams of their own, submitted
  // in-process in 64-request batches from `conns` threads, fill the result
  // cache.
  const auto w0 = Clock::now();
  {
    std::vector<Phase> phases(static_cast<size_t>(conns));
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        Phase& p = phases[static_cast<size_t>(c)];
        Stream stream(in, config.seed, kWarmStreams, c);
        std::vector<pti::Request> batch;
        for (size_t sent = 0; sent < kWarmup / static_cast<size_t>(conns);) {
          batch.clear();
          for (; batch.size() < 64; ++sent) {
            batch.push_back(MakeRequest(in, stream.Next()));
          }
          for (auto& f : engine.SubmitBatch(batch)) p.Count(f.get().status);
        }
      });
    }
    for (auto& t : threads) t.join();
    Phase warmup{"warmup"};
    for (const Phase& p : phases) warmup.Add(p);
    report.AddPhase(warmup);
  }
  const double setup = Median(setup_s) + SecondsSince(w0);
  const auto warm_stats = engine.stats();

  std::vector<pti::net::NetClient> clients(static_cast<size_t>(conns));
  for (auto& client : clients) {
    CheckOk(client.Connect("127.0.0.1", server.port()), "connect");
  }
  const auto over_wire = [&](int c, const pti::Request& req,
                              std::vector<pti::Match>* out) {
    return clients[static_cast<size_t>(c)].Query(req, out);
  };
  const auto in_process = [&](int, const pti::Request& req,
                              std::vector<pti::Match>* out) {
    auto result = engine.Submit(req).get();
    *out = std::move(result.matches);
    return result.status;
  };

  // Untraced: one segment over the whole window. Traced: a third without
  // spans, a third with spans, then the traced third's requests once more,
  // in-process on the same engine at the same concurrency.
  const double share = config.trace ? config.seconds / 3 : config.seconds;
  Segment plain = ClosedLoop(in, config.seed, kTimed, conns, nullptr, share,
                             &off, "net.query", over_wire);
  report.AddPhase(plain.phase);
  std::vector<std::pair<Sample, const char*>> samples;
  for (const Sample& s : plain.samples) samples.push_back({s, "timed"});

  report.Info("window_qps", plain.windows.RatesText());
  report.Workload("lat_samples", static_cast<double>(plain.windows.Samples()),
                  "count");
  report.EndToEnd("setup_s", setup);
  report.EndToEnd("ops_per_s", plain.windows.Rate());
  report.EndToEnd("p50_us", plain.windows.P50());
  report.EndToEnd("p99_us", plain.windows.P99());
  report.EndToEnd("bytes_per_pos", tree_mem / kLength);

  if (config.trace) {
    const auto s0 = engine.stats();
    Segment traced = ClosedLoop(in, config.seed, kTraced, conns, nullptr,
                                share, &tracer, "net.query", over_wire);
    const auto s1 = engine.stats();
    Segment replay =
        ClosedLoop(in, config.seed, kTraced, conns, &traced.sent, share,
                   &tracer, "engine.submit", in_process);
    traced.phase.name = "net.query.traced";
    report.AddPhase(traced.phase);
    report.AddPhase(replay.phase);
    for (const Sample& s : traced.samples) samples.push_back({s, "traced"});

    const auto rtt = traced.windows.AllTimes();
    const auto submit = replay.windows.AllTimes();
    report.Layer("net.rtt_p50_us", Percentile(rtt, 0.5));
    report.Layer("net.rtt_p99_us", Percentile(rtt, 0.99));
    report.Layer("engine.submit_p50_us", Percentile(submit, 0.5));
    report.Layer("engine.submit_p99_us", Percentile(submit, 0.99));
    report.Layer("net.self_p50_us",
                 Percentile(rtt, 0.5) - Percentile(submit, 0.5));

    // Engine ratios over the traced wire segment.
    const auto d = [&](uint64_t pti::ServingEngine::Stats::*f) {
      return static_cast<double>(s1.*f - s0.*f);
    };
    const double lookups = d(&pti::ServingEngine::Stats::cache_hits) +
                           d(&pti::ServingEngine::Stats::cache_misses);
    const double misses = d(&pti::ServingEngine::Stats::cache_misses);
    const double batches = d(&pti::ServingEngine::Stats::batches);
    const double batched = d(&pti::ServingEngine::Stats::batched_queries);
    const double fallback = d(&pti::ServingEngine::Stats::fallback_queries);
    report.Layer("engine.cache_hit_ratio",
                 d(&pti::ServingEngine::Stats::cache_hits) /
                     std::max(1.0, lookups));
    report.Layer("engine.merge_ratio",
                 d(&pti::ServingEngine::Stats::inflight_merges) /
                     std::max(1.0, misses));
    report.Layer("engine.batch_fill",
                 batched / std::max(1.0, batches) /
                     engine.options().max_batch);
    report.Layer("engine.shed_ratio",
                 d(&pti::ServingEngine::Stats::shed) /
                     std::max(1.0, d(&pti::ServingEngine::Stats::submitted)));
    report.Layer("engine.fallback_ratio",
                 fallback / std::max(1.0, batched + fallback));
    report.Layer("engine.cache_evictions",
                 d(&pti::ServingEngine::Stats::cache_evictions));

    ReportBuildStages("tree", tree_t, &report);
    report.Layer("serde.tree.mem_bytes_per_pos", tree_mem / kLength);

    report.Layer("trace.setup_s_ratio", traced_setup / Median(setup_s));
    report.Layer("trace.ops_per_s_ratio",
                 traced.windows.Rate() / plain.windows.Rate());
    report.Layer("trace.p50_us_ratio",
                 traced.windows.P50() / plain.windows.P50());
    report.Layer("trace.p99_us_ratio",
                 traced.windows.P99() / plain.windows.P99());
    report.Layer("trace.spans", static_cast<double>(tracer.size()));
    report.Layer("trace.span_mb", tracer.MemoryMb());
  }
  for (auto& client : clients) client.Close();
  server.Stop();
  const auto net = server.stats();
  report.Layer("net.frames_sent", static_cast<double>(net.frames_sent));
  report.Layer("net.protocol_errors",
               static_cast<double>(net.protocol_errors));
  report.Check(net.protocol_errors == 0, "net protocol_errors == 0");

  // Answers: wire vs in-process engine vs ShardedIndex::Query, bit for
  // bit, and a few against the brute-force oracle.
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i].first;
    const pti::Request req = MakeRequest(in, s.entry);
    const std::string tag = ", " + std::string(samples[i].second) +
                            " sample " + std::to_string(i);
    const auto local = engine.Submit(req).get();
    std::vector<pti::Match> direct;
    CheckOk(reference.Query(req.pattern, req.tau, &direct), "direct query");
    report.Check(s.status.ok() && local.status.ok(), "request ok" + tag);
    report.Check(s.matches == local.matches, "wire vs engine" + tag);
    report.Check(local.matches == direct, "engine vs ShardedIndex" + tag);
    if (i < 16) {
      report.Check(NearMatches(direct, pti::BruteForceSearch(
                                           in.s, req.pattern, req.tau)),
                   "ShardedIndex vs brute force" + tag);
    }
  }
  engine.Stop();
  const auto st = engine.stats();
  report.Check(st.submitted == st.completed + st.shed + st.rejected,
               "engine conservation: submitted == completed + shed + "
               "rejected");
  const double hit_ratio =
      static_cast<double>(st.cache_hits - warm_stats.cache_hits) /
      std::max<double>(1.0, static_cast<double>(
                                (st.cache_hits - warm_stats.cache_hits) +
                                (st.cache_misses - warm_stats.cache_misses)));
  report.Workload("cache_hit_ratio", hit_ratio, "ratio");
  report.Workload("cache_mb", static_cast<double>(st.cache_bytes) / (1 << 20),
                  "MB");
  report.EndToEnd("peak_rss_mb", PeakRssMb());

  WriteStream(in, config.seed, plain,
              config.out_dir + "/serve_zipf-requests.tsv");
  if (config.trace) {
    tracer.Write(config.out_dir + "/spans-serve_zipf.tsv", 16);
    for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
      report.Workload("self_ms." + layer, ms, "ms");
    }
  }
  return report.Finish();
}

}  // namespace perfbench
