// Shared pieces of the perfbench workloads: the §8.1 input every workload
// starts from, seeded request sampling, small statistics helpers and the
// Report that accounts for every phase, checks answers and prints the
// metrics (README.md lists them).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/match.h"
#include "core/substring_index.h"
#include "core/uncertain_string.h"
#include "engine/sharded_index.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// The paper's full-scale §8.1 setting, shared by every workload.
inline constexpr int64_t kLength = 300000;
inline constexpr double kTheta = 0.2;
inline constexpr double kTauMin = 0.1;
// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int32_t nproc = 1;     // CPUs this process may run on (Nproc())
  std::string out_dir;   // results and span files
  std::string work_dir;  // index files written and mapped by build_compact
  std::string git_sha;
};

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Micros(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

[[noreturn]] void Die(const std::string& what);

/// The number of CPUs in this process's affinity set, as `nproc` counts
/// them: the build threads, connections and caller threads of every
/// workload.
int32_t Nproc();

inline void CheckOk(const pti::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Unwrap(pti::StatusOr<T> value, const char* what) {
  CheckOk(value.status(), what);
  return std::move(value).value();
}

/// The repository's oracle tolerance: positions equal, probabilities
/// within 1e-9 (the brute-force oracles sum in another order).
bool NearMatches(const std::vector<pti::Match>& got,
                 const std::vector<pti::Match>& want);

void WriteFile(const std::string& path, const std::string& bytes);

pti::UncertainString MakeString(uint64_t seed);

/// The `pti_cli build-sharded` defaults (4 shards, overlap 255) at
/// tau_min = kTauMin, built on `threads` threads.
pti::ShardedIndexOptions ShardedOptions(bool compact, int32_t threads,
                                        pti::BuildTimings* timings = nullptr);

/// Draws patterns in the generate_random_samples idiom: a uniform start,
/// a uniform length, then a walk along the position pdfs (argmax and
/// pdf-sampled walks alternate so a steady share of patterns matches).
/// Everything comes from the seed; nothing reads the clock.
class PatternSampler {
 public:
  PatternSampler(const pti::UncertainString& s, uint64_t seed)
      : s_(s), rng_(seed) {}

  /// One pattern with length uniform in [min_len, max_len].
  std::string Draw(int min_len, int max_len);

  /// `count` patterns, none drawn twice by this sampler.
  std::vector<std::string> Distinct(size_t count, int min_len, int max_len);

  pti::Rng& rng() { return rng_; }

 private:
  const pti::UncertainString& s_;
  pti::Rng rng_;
  std::unordered_set<std::string> seen_;
  bool argmax_ = false;
};

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// A run measures its timed window in slices (1-second windows, passes over
// a request list, build cycles). Throughput is the best quartile of many
// slices' rates: other tenants of the host only ever slow a slice down, so
// the 75th percentile follows the program rather than the host's load.
// Latency percentiles are the median over the slices of each slice's
// percentile, so a tail that shows in most slices moves them. (build.cc
// says why build cycles, of which a run fits only a few, differ.)
inline double BestRate(std::vector<double> rates) {
  return Percentile(std::move(rates), 0.75);
}
double PeakRssMb();

/// Per-window timing summary of a closed loop: every window of `window_s`
/// seconds contributes one rate and one pair of percentiles.
class Windows {
 public:
  explicit Windows(double window_s = 1.0) : window_s_(window_s) {}
  /// Records one operation ending `at_s` seconds into the measurement
  /// that took `op_us`.
  void Add(double at_s, double op_us);
  void Merge(const Windows& other);
  /// Over complete windows (the trailing partial window is dropped unless
  /// it is the only one): BestRate of the rates, and the median of the
  /// windows' 50th and 99th percentiles.
  double Rate() const;
  double P50() const;
  double P99() const;
  uint64_t Samples() const;
  std::vector<double> AllTimes() const;
  /// Every complete window's rate, in time order (results file).
  std::string RatesText() const;

 private:
  struct Window {
    uint64_t units = 0;
    std::vector<double> times;
  };
  std::vector<const Window*> Complete() const;

  double window_s_;
  std::vector<Window> windows_;
};

/// The timing end-to-end metrics of one measured part of a run.
struct Figures {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// What one phase of a workload did.
struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;

  /// Counts one operation by its outcome (Unavailable: shed).
  void Count(const pti::Status& st) {
    ++attempted;
    if (st.ok()) {
      ++ok;
    } else if (st.IsUnavailable()) {
      ++shed;
    } else {
      ++failed;
    }
  }
  void Add(const Phase& other) {
    attempted += other.attempted;
    ok += other.ok;
    failed += other.failed;
    shed += other.shed;
  }
};

/// Collects everything a run reports and prints it. End-to-end and
/// per-layer metrics go out as name -> value; run.py holds them against
/// BENCHMARK.json, the one list of names and units. Workload metrics
/// (figures such as cache_hit_ratio, with their units) go to the
/// human-readable lines and the results file only.
class Report {
 public:
  explicit Report(const Config& config) : config_(config) {}

  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  void Workload(const std::string& name, double value,
                const std::string& unit);
  void AddPhase(const Phase& phase);
  /// One cross-path or oracle comparison; a false `ok` is a mismatch.
  void Check(bool ok, const std::string& what);
  void Info(const std::string& key, const std::string& value);

  /// Prints the metrics, writes the results file and the final JSON line;
  /// returns the exit code (non-zero when any check failed).
  int Finish();

 private:
  const Config& config_;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      workload_;
  std::vector<Phase> phases_;
  std::vector<std::string> mismatches_;
  uint64_t checks_ = 0;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Reports the six build.<mode>.*_ms stage metrics of `timings`.
void ReportBuildStages(const std::string& mode,
                       const pti::BuildTimings& timings, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
