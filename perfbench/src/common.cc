#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "datagen/datagen.h"

namespace perfbench {
namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricJson(const std::string& name, double value,
                       const std::string& unit) {
  return Quote(name) + ": {\"value\": " + Num(value) +
         ", \"unit\": " + Quote(unit) + "}";
}

}  // namespace

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

int32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) Die("sched_getaffinity");
  return std::max(1, CPU_COUNT(&set));
}

bool NearMatches(const std::vector<pti::Match>& got,
                 const std::vector<pti::Match>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].position != want[i].position ||
        std::abs(got[i].probability - want[i].probability) > 1e-9) {
      return false;
    }
  }
  return true;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) Die("cannot write " + path);
}

pti::UncertainString MakeString(uint64_t seed) {
  pti::DatasetOptions data;
  data.length = kLength;
  data.theta = kTheta;
  data.seed = seed;
  return pti::GenerateUncertainString(data);
}

pti::ShardedIndexOptions ShardedOptions(bool compact, int32_t threads,
                                        pti::BuildTimings* timings) {
  pti::ShardedIndexOptions options;
  options.index.transform.tau_min = kTauMin;
  options.index.compact = compact;
  options.num_shards = pti::ShardedIndexOptions::kDefaultNumShards;
  options.overlap = pti::ShardedIndexOptions::kDefaultOverlap;
  options.num_threads = threads;
  options.build_timings = timings;
  return options;
}

std::string PatternSampler::Draw(int min_len, int max_len) {
  if (min_len < 1 || max_len < min_len || max_len > s_.size()) {
    Die("pattern lengths out of range for the sampled string");
  }
  const int64_t len = rng_.UniformInt(min_len, max_len);
  const int64_t start = static_cast<int64_t>(
      rng_.Uniform(static_cast<uint64_t>(s_.size() - len + 1)));
  argmax_ = !argmax_;
  std::string pattern;
  pattern.reserve(static_cast<size_t>(len));
  for (int64_t i = start; i < start + len; ++i) {
    const auto& opts = s_.options(i);
    size_t pick = 0;
    if (argmax_) {
      for (size_t a = 1; a < opts.size(); ++a) {
        if (opts[a].prob > opts[pick].prob) pick = a;
      }
    } else {
      std::vector<double> w(opts.size());
      for (size_t a = 0; a < opts.size(); ++a) w[a] = opts[a].prob;
      pick = rng_.Discrete(w);
    }
    pattern.push_back(static_cast<char>(opts[pick].ch));
  }
  return pattern;
}

std::vector<std::string> PatternSampler::Distinct(size_t count, int min_len,
                                                  int max_len) {
  std::vector<std::string> out;
  out.reserve(count);
  size_t draws = 0;
  while (out.size() < count) {
    if (++draws > 100 * count) Die("pattern sampler cannot find new patterns");
    std::string p = Draw(min_len, max_len);
    if (seen_.insert(p).second) out.push_back(std::move(p));
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Windows::Add(double at_s, double op_us) {
  const size_t w = static_cast<size_t>(std::max(0.0, at_s) / window_s_);
  if (w >= windows_.size()) windows_.resize(w + 1);
  ++windows_[w].units;
  windows_[w].times.push_back(op_us);
}

void Windows::Merge(const Windows& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].units += other.windows_[w].units;
    windows_[w].times.insert(windows_[w].times.end(),
                             other.windows_[w].times.begin(),
                             other.windows_[w].times.end());
  }
}

std::vector<const Windows::Window*> Windows::Complete() const {
  std::vector<const Window*> out;
  for (size_t w = 0; w + 1 < windows_.size(); ++w) {
    if (!windows_[w].times.empty()) out.push_back(&windows_[w]);
  }
  if (out.empty() && !windows_.empty()) out.push_back(&windows_.back());
  return out;
}

double Windows::Rate() const {
  std::vector<double> rates;
  for (const Window* w : Complete()) {
    rates.push_back(static_cast<double>(w->units) / window_s_);
  }
  return BestRate(rates);
}

double Windows::P50() const {
  std::vector<double> p;
  for (const Window* w : Complete()) p.push_back(Percentile(w->times, 0.5));
  return Median(p);
}

double Windows::P99() const {
  std::vector<double> p;
  for (const Window* w : Complete()) p.push_back(Percentile(w->times, 0.99));
  return Median(p);
}

std::string Windows::RatesText() const {
  std::string out;
  for (const Window* w : Complete()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.0f", out.empty() ? "" : " ",
                  static_cast<double>(w->units) / window_s_);
    out += buf;
  }
  return out;
}

uint64_t Windows::Samples() const {
  uint64_t n = 0;
  for (const Window& w : windows_) n += w.times.size();
  return n;
}

std::vector<double> Windows::AllTimes() const {
  std::vector<double> all;
  for (const Window& w : windows_) {
    all.insert(all.end(), w.times.begin(), w.times.end());
  }
  return all;
}

void Report::EndToEnd(const std::string& name, double value) {
  if (!(value > 0.0)) Die("end-to-end metric " + name + " is not positive");
  end_to_end_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  layer_[name] = value;
}

void Report::Workload(const std::string& name, double value,
                      const std::string& unit) {
  workload_.push_back({name, {value, unit}});
}

void Report::AddPhase(const Phase& phase) { phases_.push_back(phase); }

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    mismatches_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.push_back({key, value});
}

void ReportBuildStages(const std::string& mode,
                       const pti::BuildTimings& timings, Report* report) {
  const std::string p = "build." + mode + ".";
  report->Layer(p + "transform_ms", timings.transform_ms);
  report->Layer(p + "sa_ms", timings.sa_ms);
  report->Layer(p + "lcp_ms", timings.lcp_ms);
  report->Layer(p + "fm_ms", timings.fm_ms);
  report->Layer(p + "derived_ms", timings.derived_ms);
  report->Layer(p + "rmq_ms", timings.rmq_ms);
}

int Report::Finish() {
  uint64_t attempted = checks_;
  uint64_t failed = mismatches_.size();
  for (const Phase& p : phases_) {
    attempted += p.attempted;
    failed += p.failed + p.shed;
  }
  const double fail_pct =
      attempted == 0 ? 0.0
                     : 100.0 * static_cast<double>(failed) /
                           static_cast<double>(attempted);
  Workload("fail_pct", fail_pct, "%");
  const bool correct = mismatches_.empty();

  // Untraced runs report the end-to-end metrics, traced runs the
  // per-layer ones; run.py checks the names and adds the units.
  const std::map<std::string, double>& metrics =
      config_.trace ? layer_ : end_to_end_;

  std::printf("perfbench %s: seed %llu, %s, %.0f s\n", config_.workload.c_str(),
              static_cast<unsigned long long>(config_.seed),
              config_.trace ? "traced" : "untraced", config_.seconds);
  for (const Phase& p : phases_) {
    std::printf("  phase %-16s attempted %llu  ok %llu  failed %llu  shed %llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.shed));
  }
  std::printf("  checks %llu, mismatches %zu\n",
              static_cast<unsigned long long>(checks_), mismatches_.size());
  for (const auto& [name, v] : workload_) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }

  std::ostringstream metrics_json;
  metrics_json << "{";
  for (const auto& [name, value] : metrics) {
    if (metrics_json.tellp() > 1) metrics_json << ", ";
    metrics_json << Quote(name) << ": " << Num(value);
  }
  metrics_json << "}";

  // Results file: what a later change diffs.
  std::ostringstream results;
  results << "{\n  \"workload\": " << Quote(config_.workload)
          << ",\n  \"seed\": " << config_.seed
          << ",\n  \"trace\": " << (config_.trace ? "true" : "false")
          << ",\n  \"seconds\": " << Num(config_.seconds)
          << ",\n  \"git_sha\": " << Quote(config_.git_sha)
          << ",\n  \"nproc\": " << config_.nproc
          << ",\n  \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
          << ",\n  \"compiler\": " << Quote(PERFBENCH_COMPILER)
          << ",\n  \"n\": " << kLength << ",\n  \"theta\": " << Num(kTheta)
          << ",\n  \"tau_min\": " << Num(kTauMin)
          << ",\n  \"correct\": " << (correct ? "true" : "false")
          << ",\n  \"checks\": " << checks_ << ",\n  \"mismatches\": [";
  for (size_t i = 0; i < mismatches_.size(); ++i) {
    results << (i > 0 ? ", " : "") << Quote(mismatches_[i]);
  }
  results << "],\n  \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    results << (i > 0 ? ", " : "") << "{\"name\": " << Quote(p.name)
            << ", \"attempted\": " << p.attempted << ", \"ok\": " << p.ok
            << ", \"failed\": " << p.failed << ", \"shed\": " << p.shed
            << "}";
  }
  results << "],\n  \"workload_metrics\": {";
  for (size_t i = 0; i < workload_.size(); ++i) {
    results << (i > 0 ? ", " : "")
            << MetricJson(workload_[i].first, workload_[i].second.first,
                          workload_[i].second.second);
  }
  results << "},\n  \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    results << (i > 0 ? ", " : "") << Quote(info_[i].first) << ": "
            << Quote(info_[i].second);
  }
  results << "},\n  \"metrics\": " << metrics_json.str() << "\n}\n";
  const std::string path = config_.out_dir + "/" + config_.workload +
                           "-seed" + std::to_string(config_.seed) +
                           (config_.trace ? "-trace1" : "-trace0") + ".json";
  std::ofstream(path) << results.str();

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace perfbench
