// build_compact: the write side. Each cycle builds the compact sharded
// index at T = nproc, saves it as a v3 file (what `pti_cli build-sharded
// --compact` does) and maps it back through serde::MapFile +
// ShardedIndex::Load. No query is timed; the answers of the built and the
// loaded indexes are compared outside the timed cycles.
//
// The tree-mode build has no workload of its own: a full benchmark pass has
// to finish within an hour, which fits three workloads at a run length
// that rides out the host's slow spells. It is the set-up of serve_zipf and
// query_tree, whose setup_s is bounded too.

#include <malloc.h>

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/fuzzy.h"
#include "core/serde.h"
#include "engine/sharded_index.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Input {
  pti::UncertainString s;
  std::vector<pti::FuzzyBatchQuery> probes;  // answer checks
};

Input MakeInput(uint64_t seed) {
  Input in;
  in.s = MakeString(seed);
  PatternSampler sampler(in.s, seed * 31 + 7);
  for (int i = 0; i < 48; ++i) {
    pti::FuzzyBatchQuery q;
    q.pattern = sampler.Draw(2, 24);
    q.tau = sampler.rng().UniformDouble(0.10, 0.39);
    q.params.k = i % 8 == 7 ? 1 : 0;  // one probe in eight is fuzzy
    in.probes.push_back(std::move(q));
  }
  return in;
}

// Answers of every probe, in probe order.
using Answers = std::vector<std::vector<pti::Match>>;

Answers AskAll(const pti::ShardedIndex& index, const Input& in) {
  Answers out;
  for (const auto& q : in.probes) {
    std::vector<pti::Match> one;
    const pti::Status st =
        q.params.k == 0 ? index.Query(q.pattern, q.tau, &one)
                        : index.QueryFuzzy(q.pattern, q.tau, q.params, &one);
    CheckOk(st, "probe query");
    out.push_back(std::move(one));
  }
  return out;
}

struct Cycle {
  double op_s = 0.0;  // the whole cycle
  double build_ms = 0.0, save_ms = 0.0, load_ms = 0.0;
  pti::BuildTimings timings;
  size_t file_bytes = 0;
  size_t mem_bytes = 0;
  Answers answers;  // the built index's, on the checked cycle
};

// Returns freed heap memory to the system between operations, so each
// operation's peak resident memory starts from what is live, not from the
// arenas an earlier operation's threads left behind.
void TrimHeap() { malloc_trim(0); }

// One cycle. The built index is dropped before the load, so the process
// holds one index at a time. When `check` is set, both indexes answer the
// probes (outside the timed operations) and the answers are compared:
// built vs mmap-loaded, and against the brute-force oracles.
Cycle BuildCycle(const Config& config, const Input& in, Tracer* tracer,
                 uint64_t cycle_id, bool check, Report* report) {
  Cycle c;
  const std::string path = config.work_dir + "/index.pti";
  {
    TrimHeap();
    const auto t0 = Clock::now();
    auto built = Unwrap(
        pti::ShardedIndex::Build(
            in.s, ShardedOptions(true, config.nproc,
                                 tracer->on() ? &c.timings : nullptr)),
        "sharded build");
    const auto t1 = Clock::now();
    std::string blob;
    CheckOk(built.Save(&blob, pti::serde::kContainerVersion), "save");
    WriteFile(path, blob);
    const auto t2 = Clock::now();
    tracer->Add(0, "build.compact", t0, t1, cycle_id);
    tracer->Add(0, "serde.compact.save", t1, t2, cycle_id);
    c.op_s = Micros(t0, t2) / 1e6;
    c.build_ms = Micros(t0, t1) / 1e3;
    c.save_ms = Micros(t1, t2) / 1e3;
    c.file_bytes = blob.size();
    c.mem_bytes = built.MemoryUsage();
    if (check) c.answers = AskAll(built, in);
  }
  TrimHeap();
  const auto t0 = Clock::now();
  auto blob = Unwrap(pti::serde::MapFile(path), "map index file");
  auto loaded = Unwrap(
      pti::ShardedIndex::Load(blob->view(), config.nproc, blob), "load");
  const auto t1 = Clock::now();
  tracer->Add(0, "serde.compact.load", t0, t1, cycle_id);
  c.op_s += Micros(t0, t1) / 1e6;
  c.load_ms = Micros(t0, t1) / 1e3;
  if (!check) return c;

  const Answers loaded_answers = AskAll(loaded, in);
  for (size_t i = 0; i < in.probes.size(); ++i) {
    const auto& q = in.probes[i];
    const std::string tag = ", probe " + std::to_string(i);
    report->Check(c.answers[i] == loaded_answers[i],
                  "built vs mmap-loaded" + tag);
    if (i < 12) {
      const auto want =
          q.params.k == 0
              ? pti::BruteForceSearch(in.s, q.pattern, q.tau)
              : pti::BruteForceFuzzy(in.s, q.pattern, q.tau, q.params);
      report->Check(NearMatches(c.answers[i], want),
                    "compact vs brute force" + tag);
    }
  }
  return c;
}

template <typename Get>
double MedianOf(const std::vector<Cycle>& cycles, Get get) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(get(c));
  return Median(v);
}

// Per-stage medians over the cycles.
pti::BuildTimings MedianStages(const std::vector<Cycle>& cycles) {
  pti::BuildTimings out;
  for (double pti::BuildTimings::*field :
       {&pti::BuildTimings::transform_ms, &pti::BuildTimings::sa_ms,
        &pti::BuildTimings::lcp_ms, &pti::BuildTimings::fm_ms,
        &pti::BuildTimings::derived_ms, &pti::BuildTimings::rmq_ms}) {
    out.*field = MedianOf(cycles, [&](const Cycle& c) {
      return c.timings.*field;
    });
  }
  return out;
}

// Each cycle is one slice: throughput = cycles / their summed time, p50 =
// the median cycle, p99 = the slowest (a handful of cycles supports no
// higher percentile). A run fits only a few cycles, and on a shared host
// their best one swings with the other tenants' load; the median and the
// mean follow the program more closely.
Figures Summarize(const std::vector<Cycle>& cycles) {
  std::vector<double> s;
  double total = 0.0;
  for (const Cycle& c : cycles) {
    s.push_back(c.op_s);
    total += c.op_s;
  }
  return {static_cast<double>(s.size()) / total, Median(s) * 1e6,
          Percentile(s, 1.0) * 1e6};
}

}  // namespace

int RunBuildCompact(const Config& config) {
  Report report(config);
  Tracer tracer(config.trace, 1);

  // Set-up is data generation only, a few hundredths of a second on one
  // thread. A single thread's speed on a shared host drifts over seconds,
  // so the set-up repetitions are spread over the run: kSetupReps of them
  // before every cycle, and setup_s is their median.
  std::vector<double> setup_s, traced_setup_s;
  Input in;
  const auto set_up = [&](std::vector<double>* times) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      in = MakeInput(config.seed);
      times->push_back(SecondsSince(t0));
    }
  };

  // A first, warm-up cycle compares answers (outside its timed
  // operations) and is not measured: a process's first build also pays for
  // starting its threads and growing its heap, and that first cycle ran up
  // to half as long again as the later ones. Measured cycles then run until
  // the clock passes config.seconds. A traced run times its first half
  // without spans or stage timings and its second half with them, so the
  // two halves give the tracing overhead. Peak memory is taken after the
  // warm-up cycle: later cycles add heap fragmentation that grows with the
  // number of cycles a run fits in.
  Tracer off(false, 1);
  set_up(&setup_s);
  const Cycle warmup = BuildCycle(config, in, &off, 0, true, &report);
  const double peak_rss_mb = PeakRssMb();
  std::vector<Cycle> plain, traced;
  const auto start = Clock::now();
  for (uint64_t cycle = 1;; ++cycle) {
    const double elapsed = SecondsSince(start);
    if (elapsed >= config.seconds && (!config.trace || !traced.empty())) {
      break;
    }
    const bool trace_this = config.trace && elapsed >= config.seconds / 2;
    set_up(trace_this ? &traced_setup_s : &setup_s);
    Tracer* t = trace_this ? &tracer : &off;
    Cycle c = BuildCycle(config, in, t, cycle, false, &report);
    (trace_this ? traced : plain).push_back(c);
  }
  const double setup = Median(setup_s);

  // The tree-mode index of the same string, built once and untimed,
  // answers the probes too, and the answers are compared across the modes.
  const Answers tree = AskAll(
      Unwrap(pti::ShardedIndex::Build(in.s,
                                      ShardedOptions(false, config.nproc)),
             "tree build for the checks"),
      in);
  uint64_t fuzzy_bit_diffs = 0;
  for (size_t i = 0; i < in.probes.size(); ++i) {
    const std::string tag = ", probe " + std::to_string(i);
    if (in.probes[i].params.k == 0) {
      report.Check(tree[i] == warmup.answers[i], "tree vs compact" + tag);
    } else {
      // Fuzzy answers agree on positions; probabilities may differ in the
      // last bits between the modes (counted, not failed).
      report.Check(NearMatches(tree[i], warmup.answers[i]),
                   "fuzzy tree vs compact" + tag);
      if (!(tree[i] == warmup.answers[i])) ++fuzzy_bit_diffs;
    }
  }
  report.Workload("bitdiff.fuzzy_tree_compact",
                  static_cast<double>(fuzzy_bit_diffs), "count");

  Phase phase{"cycles"};
  phase.attempted = phase.ok = 1 + plain.size() + traced.size();
  report.AddPhase(phase);

  std::vector<double> build_s, load_s;
  std::string cycle_s;
  for (const Cycle& c : plain) {
    build_s.push_back((c.build_ms + c.save_ms) / 1e3);
    load_s.push_back(c.load_ms / 1e3);
    cycle_s += (cycle_s.empty() ? "" : " ") + std::to_string(c.op_s);
  }
  report.Info("cycle_s", cycle_s);
  report.Info("warmup_cycle_s", std::to_string(warmup.op_s));
  report.Workload("build_s", Median(build_s), "s");
  report.Workload("load_s", Median(load_s), "s");
  report.Workload("cycles", static_cast<double>(plain.size()), "count");

  const Figures plain_sum = Summarize(plain);
  report.EndToEnd("setup_s", setup);
  report.EndToEnd("ops_per_s", plain_sum.ops_per_s);
  report.EndToEnd("p50_us", plain_sum.p50_us);
  report.EndToEnd("p99_us", plain_sum.p99_us);
  report.EndToEnd("peak_rss_mb", peak_rss_mb);
  report.EndToEnd("bytes_per_pos",
                  static_cast<double>(warmup.file_bytes) / kLength);

  if (config.trace) {
    ReportBuildStages("compact", MedianStages(traced), &report);
    report.Layer("serde.compact.save_ms",
                 MedianOf(traced, [](const Cycle& c) { return c.save_ms; }));
    report.Layer("serde.compact.load_ms",
                 MedianOf(traced, [](const Cycle& c) { return c.load_ms; }));
    report.Layer("serde.compact.mem_bytes_per_pos",
                 static_cast<double>(warmup.mem_bytes) / kLength);
    // Thread scaling of the compact build: T = 1 against T = nproc.
    const auto t0 = Clock::now();
    (void)Unwrap(pti::ShardedIndex::Build(in.s, ShardedOptions(true, 1)),
                 "serial compact build");
    const double serial_s = SecondsSince(t0);
    report.Layer("build.compact.speedup",
                 serial_s / MedianOf(traced, [](const Cycle& c) {
                   return c.build_ms / 1e3;
                 }));

    const Figures traced_sum = Summarize(traced);
    report.Layer("trace.setup_s_ratio", Median(traced_setup_s) / setup);
    report.Layer("trace.ops_per_s_ratio",
                 traced_sum.ops_per_s / plain_sum.ops_per_s);
    report.Layer("trace.p50_us_ratio", traced_sum.p50_us / plain_sum.p50_us);
    report.Layer("trace.p99_us_ratio", traced_sum.p99_us / plain_sum.p99_us);
    report.Layer("trace.spans", static_cast<double>(tracer.size()));
    report.Layer("trace.span_mb", tracer.MemoryMb());
    tracer.Write(config.out_dir + "/spans-" + config.workload + ".tsv");
  }
  return report.Finish();
}

}  // namespace perfbench
