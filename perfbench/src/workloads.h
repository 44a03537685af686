// The workloads (README.md says why each exists). Each runs its set-up
// kSetupReps times (build_compact: before every cycle), measures for config.seconds, checks answers across
// paths and returns the process exit code from Report::Finish.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunServeZipf(const Config& config);
int RunQueryTree(const Config& config);
int RunBuildCompact(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
