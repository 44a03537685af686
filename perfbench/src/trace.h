// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark around each public call it makes into a layer (net.query,
// engine.submit, sharded.query_batch, core.*, build.*, serde.*); nothing
// inside the library is instrumented. Spans stay in memory until the run
// ends, then go to one TSV file.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;   // since the tracer's epoch
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: no parent
  uint64_t req = 0;     // request or batch the span belongs to
};

class Tracer {
 public:
  /// `buffers` is the number of threads that record concurrently; each
  /// records into its own buffer.
  Tracer(bool enabled, int buffers);

  bool on() const { return on_; }

  /// Records one finished span into buffer `buffer` and returns its id,
  /// for children recorded after it. No-op (returning 0) when tracing is
  /// off.
  uint32_t Add(int buffer, const char* name, Clock::time_point start,
               Clock::time_point end, uint64_t req, uint32_t parent = 0);

  /// Durations in microseconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Self time per layer (the span name up to its first '.'), in ms: each
  /// span's duration minus the part of it its children cover.
  std::map<std::string, double> LayerSelfMs() const;

  size_t size() const;
  double MemoryMb() const;

  /// Writes the spans of every `sample`-th request (req % sample == 0),
  /// one per line: id parent name start_ns end_ns req.
  void Write(const std::string& path, uint64_t sample = 1) const;

 private:
  struct alignas(64) Buffer {
    std::vector<Span> spans;
  };
  std::vector<Span> All() const;

  bool on_;
  Clock::time_point epoch_;
  std::atomic<uint32_t> next_id_{1};
  std::vector<Buffer> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
