// perfbench: the repository benchmark's measuring program. run.py builds
// it and runs one workload per process:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> --work-dir <dir> [--git-sha <sha>]
//
// with <name> one of serve_zipf, query_tree and build_compact. Every workload uses Nproc() threads.
//
// The last line of standard output is the JSON result object; the exit
// code is non-zero when any answer check failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> --work-dir <dir> "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  config.nproc = perfbench::Nproc();
  double seed = -1.0, trace = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &seed) && seed >= 0;
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &config.seconds) && config.seconds > 0;
    } else if (flag == "--trace") {
      ok = ParseNumber(value, &trace) && (trace == 0 || trace == 1);
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag).c_str());
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  if (seed < 0) return Usage("--seed is required");
  if (config.out_dir.empty() || config.work_dir.empty()) {
    return Usage("--out-dir and --work-dir are required");
  }
  config.seed = static_cast<uint64_t>(seed);
  config.trace = trace == 1;

  const std::string& w = config.workload;
  if (w == "serve_zipf") return perfbench::RunServeZipf(config);
  if (w == "query_tree") return perfbench::RunQueryTree(config);
  if (w == "build_compact") return perfbench::RunBuildCompact(config);
  return Usage("unknown workload");
}
