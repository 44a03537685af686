// Figure 9 (§8.6-§8.7): construction time and index space.
//
//   (a) construction time vs string size n, theta series
//   (b) construction time vs tau_min, theta series
//   (c) index space (MB) vs string size n, theta series, plus the space
//       accounting the paper does in §8.7 (its estimate: ~10.5 N words).
//   (d) parallel construction: compact build time vs thread count at fixed
//       input, with the derived speedup-vs-1-thread column (the speedup
//       column is informational — check_bench.py skips it, since it only
//       reflects real parallelism on a multi-core host).
//   (e) where construction time goes: per-stage milliseconds from
//       BuildTimings (transform / SA / LCP / FM / derived / RMQ forest) for
//       the panel (d) input at 1 thread and at one thread per hardware
//       thread ("nproc"), each the median of three builds. The FM-index
//       overlaps the derived stage in wall time when threads >= 2.
//
// Construction times are seconds; space is bytes as measured by
// MemoryUsage() (real allocations, not the paper's back-of-envelope words).

#include <algorithm>
#include <iterator>
#include <vector>

#include "bench_util.h"
#include "core/substring_index.h"
#include "datagen/datagen.h"

namespace pti {
namespace {

constexpr double kThetas[] = {0.1, 0.2, 0.3, 0.4};

UncertainString MakeString(int64_t n, double theta, uint64_t seed) {
  DatasetOptions data;
  data.length = n;
  data.theta = theta;
  data.seed = seed;
  return GenerateUncertainString(data);
}

void PanelA(bool full) {
  std::vector<int64_t> sizes = {25000, 50000, 100000};
  if (full) sizes = {25000, 50000, 100000, 200000, 300000};
  bench::Table table("n");
  std::vector<std::string> cols;
  for (const double theta : kThetas) {
    cols.push_back("theta=" + bench::FmtDouble(theta));
  }
  table.SetColumns(cols);
  for (const int64_t n : sizes) {
    std::vector<double> row;
    for (const double theta : kThetas) {
      const UncertainString s = MakeString(n, theta, 7);
      IndexOptions options;
      options.transform.tau_min = 0.1;
      const double ms = bench::TimeMs([&] {
        const auto index = SubstringIndex::Build(s, options);
        if (!index.ok()) std::exit(1);
      });
      row.push_back(ms / 1000.0);
    }
    table.AddRow(bench::FmtInt(n), row);
  }
  table.Print("Figure 9(a): construction time vs string size", "seconds");
}

void PanelB(bool full) {
  const int64_t n = full ? 100000 : 50000;
  bench::Table table("tau_min");
  std::vector<std::string> cols;
  for (const double theta : kThetas) {
    cols.push_back("theta=" + bench::FmtDouble(theta));
  }
  table.SetColumns(cols);
  for (const double tau_min : {0.04, 0.08, 0.12, 0.16, 0.20}) {
    std::vector<double> row;
    for (const double theta : kThetas) {
      const UncertainString s = MakeString(n, theta, 11);
      IndexOptions options;
      options.transform.tau_min = tau_min;
      const double ms = bench::TimeMs([&] {
        const auto index = SubstringIndex::Build(s, options);
        if (!index.ok()) std::exit(1);
      });
      row.push_back(ms / 1000.0);
    }
    table.AddRow(bench::FmtDouble(tau_min), row);
  }
  table.Print("Figure 9(b): construction time vs tau_min", "seconds");
}

void PanelC(bool full) {
  std::vector<int64_t> sizes = {25000, 50000, 100000};
  if (full) sizes = {25000, 50000, 100000, 200000, 300000};
  bench::Table table("n");
  std::vector<std::string> cols;
  for (const double theta : kThetas) {
    cols.push_back("theta=" + bench::FmtDouble(theta));
  }
  table.SetColumns(cols);
  size_t last_bytes = 0;
  size_t last_N = 1;
  for (const int64_t n : sizes) {
    std::vector<double> row;
    for (const double theta : kThetas) {
      const UncertainString s = MakeString(n, theta, 13);
      IndexOptions options;
      options.transform.tau_min = 0.1;
      const auto index = SubstringIndex::Build(s, options);
      if (!index.ok()) std::exit(1);
      row.push_back(static_cast<double>(index->MemoryUsage()) / 1048576.0);
      last_bytes = index->MemoryUsage();
      last_N = index->stats().transformed_length;
    }
    table.AddRow(bench::FmtInt(n), row);
  }
  table.Print("Figure 9(c): index space vs string size", "MB");
  // §8.7-style accounting: the paper estimates ~10.5 N words total; report
  // our measured bytes-per-transformed-character for comparison.
  std::printf("\n  space accounting (largest build): %.1f bytes per "
              "transformed character (N = %zu)\n",
              static_cast<double>(last_bytes) / static_cast<double>(last_N),
              last_N);
}

void PanelD(bool full) {
  // Fixed input, compact mode (the mode with the fully parallel pipeline:
  // PLCP LCP, FM overlap, succinct fills, RMQ forest).
  const int64_t n = full ? 200000 : 50000;
  const UncertainString s = MakeString(n, 0.2, 17);
  IndexOptions options;
  options.transform.tau_min = 0.1;
  options.compact = true;
  bench::Table table("threads");
  table.SetColumns({"build_s", "speedup"});
  double serial_s = 0.0;
  for (const int32_t threads : {1, 2, 4, 8}) {
    SubstringIndex::BuildOptions build;
    build.threads = threads;
    const double ms = bench::TimeMs([&] {
      const auto index = SubstringIndex::Build(s, options, build);
      if (!index.ok()) std::exit(1);
    });
    const double secs = ms / 1000.0;
    if (threads == 1) serial_s = secs;
    table.AddRow(bench::FmtInt(threads),
                 {secs, serial_s > 0.0 ? serial_s / secs : 0.0});
  }
  table.Print("Figure 9(d): construction time vs thread count", "seconds");
}

void PanelE(bool full) {
  const int64_t n = full ? 200000 : 50000;
  const UncertainString s = MakeString(n, 0.2, 17);
  IndexOptions options;
  options.transform.tau_min = 0.1;
  options.compact = true;
  bench::Table table("threads");
  table.SetColumns({"transform", "sa", "lcp", "fm", "derived", "rmq"});
  constexpr double BuildTimings::*kStages[] = {
      &BuildTimings::transform_ms, &BuildTimings::sa_ms,
      &BuildTimings::lcp_ms,       &BuildTimings::fm_ms,
      &BuildTimings::derived_ms,   &BuildTimings::rmq_ms};
  constexpr int kRepeats = 3;
  for (const int32_t threads : {1, 0}) {
    std::vector<std::vector<double>> samples(std::size(kStages));
    for (int rep = 0; rep < kRepeats; ++rep) {
      BuildTimings timings;
      SubstringIndex::BuildOptions build;
      build.threads = threads;
      build.timings = &timings;
      if (!SubstringIndex::Build(s, options, build).ok()) std::exit(1);
      for (size_t k = 0; k < std::size(kStages); ++k) {
        samples[k].push_back(timings.*kStages[k]);
      }
    }
    std::vector<double> row;
    for (auto& stage : samples) {
      std::sort(stage.begin(), stage.end());
      row.push_back(stage[kRepeats / 2]);
    }
    table.AddRow(threads == 1 ? "1" : "nproc", row);
  }
  table.Print("Figure 9(e): construction stages (compact)", "ms");
}

}  // namespace

void RunFig9(const bench::Args& args) {
  std::printf("=== bench_fig9_construction (%s scale) ===\n",
              args.full ? "paper" : "default");
  if (bench::RunPanel(args, "a")) PanelA(args.full);
  if (bench::RunPanel(args, "b")) PanelB(args.full);
  if (bench::RunPanel(args, "c")) PanelC(args.full);
  if (bench::RunPanel(args, "d")) PanelD(args.full);
  if (bench::RunPanel(args, "e")) PanelE(args.full);
}

}  // namespace pti

int main(int argc, char** argv) {
  pti::RunFig9(pti::bench::ParseArgs(argc, argv));
  return 0;
}
