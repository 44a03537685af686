#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer(bool enabled, int buffers)
    : on_(enabled),
      epoch_(Clock::now()),
      buffers_(static_cast<size_t>(std::max(1, buffers))) {}

uint32_t Tracer::Add(int buffer, const char* name, Clock::time_point start,
                     Clock::time_point end, uint64_t req, uint32_t parent) {
  if (!on_) return 0;
  const uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  span.id = id;
  span.parent = parent;
  span.req = req;
  buffers_[static_cast<size_t>(buffer)].spans.push_back(span);
  return id;
}

std::vector<Span> Tracer::All() const {
  std::vector<Span> all;
  all.reserve(size());
  for (const Buffer& b : buffers_) {
    all.insert(all.end(), b.spans.begin(), b.spans.end());
  }
  return all;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  const std::vector<Span> all = All();
  std::unordered_map<uint32_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : all) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> cover;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) cover.push_back({lo, hi});
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

size_t Tracer::size() const {
  size_t n = 0;
  for (const Buffer& b : buffers_) n += b.spans.size();
  return n;
}

double Tracer::MemoryMb() const {
  size_t bytes = 0;
  for (const Buffer& b : buffers_) bytes += b.spans.capacity() * sizeof(Span);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void Tracer::Write(const std::string& path, uint64_t sample) const {
  std::ofstream out(path);
  out << "# spans of every " << sample << "th request\n"
      << "id\tparent\tname\tstart_ns\tend_ns\treq\n";
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      if (s.req % sample != 0) continue;
      out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
          << '\t' << s.end_ns << '\t' << s.req << '\n';
    }
  }
}

}  // namespace perfbench
