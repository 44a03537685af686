#include "core/substring_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <queue>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/serde.h"
#include "succinct/fm_index.h"
#include "suffix/lcp.h"
#include "suffix/sais.h"
#include "suffix/suffix_tree.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace pti {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// How many suffix-array entries ahead the fused sweeps prefetch the
// randomly addressed per-text-position arrays (c, remaining, pos).
constexpr size_t kSweepPrefetch = 16;

int64_t RuleKey(int64_t pos, uint8_t ch) { return pos * 256 + ch; }

// Accumulates wall-clock milliseconds into *slot between construction and
// Stop()/destruction; a null slot makes every operation free. Stages that
// run concurrently (the FM overlap) each time their own slot, so the sum of
// slots can exceed the build's wall time.
class StageTimer {
 public:
  explicit StageTimer(double* slot) : slot_(slot) {
    if (slot_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { Stop(); }

  void Stop() {
    if (slot_ == nullptr) return;
    *slot_ += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    slot_ = nullptr;
  }

 private:
  double* slot_;
  std::chrono::steady_clock::time_point start_;
};

double* TimingSlot(BuildTimings* timings, double BuildTimings::* member) {
  return timings == nullptr ? nullptr : &(timings->*member);
}

// Incremental locus descent for pattern-sorted batches: Find() resumes from
// the deepest verified checkpoint still consistent with the longest prefix
// shared with the previous pattern, instead of re-walking from the root.
// Checkpoints record (node, chars verified) states whose prefix has been
// compared against the text, so a checkpoint at depth <= shared-prefix
// length remains valid for the next pattern no matter where the previous
// walk ended (or failed).
class PrefixWalker {
 public:
  explicit PrefixWalker(const SuffixTree* st) : st_(st) {
    path_.push_back({0, 0});  // root, nothing verified
  }

  /// Suffix-array range of `pattern` (mapped characters), or nullopt.
  std::optional<std::pair<int32_t, int32_t>> Find(
      const std::vector<int32_t>& pattern) {
    size_t shared = 0;
    while (shared < prev_.size() && shared < pattern.size() &&
           prev_[shared] == pattern[shared]) {
      ++shared;
    }
    prev_ = pattern;
    while (path_.size() > 1 &&
           path_.back().matched > static_cast<int32_t>(shared)) {
      path_.pop_back();
    }
    int32_t v = path_.back().node;
    int32_t matched = path_.back().matched;
    const int32_t m = static_cast<int32_t>(pattern.size());
    const auto& text = st_->text();
    while (matched < m) {
      if (matched >= st_->depth(v)) {
        const int32_t c = st_->FindChild(v, pattern[matched]);
        if (c < 0) return std::nullopt;
        v = c;
      }
      const int32_t edge_end = std::min(st_->depth(v), m);
      const int32_t base = st_->sa()[st_->sa_begin(v)];
      for (int32_t k = matched; k < edge_end; ++k) {
        if (text[base + k] != pattern[k]) return std::nullopt;
      }
      matched = edge_end;
      path_.push_back({v, matched});
    }
    return std::make_pair(st_->sa_begin(v), st_->sa_end(v));
  }

 private:
  struct Checkpoint {
    int32_t node = 0;
    int32_t matched = 0;  // pattern characters verified on the path to node
  };
  const SuffixTree* st_;
  std::vector<Checkpoint> path_;
  std::vector<int32_t> prev_;
};

// Incremental backward search for suffix-sorted batches (compact mode): the
// FM-index extends patterns right-to-left, so Find() resumes from the
// deepest (sp, ep) checkpoint covered by the longest suffix shared with the
// previous pattern — the backward-search mirror of PrefixWalker. Every
// checkpoint is a completed ExtendLeft step, so it stays valid for any
// later pattern sharing at least that many trailing characters.
class SuffixWalker {
 public:
  explicit SuffixWalker(const FmIndex* fm) : fm_(fm) {
    path_.push_back({0, static_cast<int64_t>(fm->bwt_size()), 0});
  }

  /// Suffix-array range of `pattern` (mapped characters), or nullopt.
  std::optional<std::pair<int32_t, int32_t>> Find(
      const std::vector<int32_t>& pattern) {
    size_t shared = 0;
    while (shared < prev_.size() && shared < pattern.size() &&
           prev_[prev_.size() - 1 - shared] ==
               pattern[pattern.size() - 1 - shared]) {
      ++shared;
    }
    prev_ = pattern;
    while (path_.size() > 1 &&
           path_.back().matched > static_cast<int32_t>(shared)) {
      path_.pop_back();
    }
    int64_t sp = path_.back().sp;
    int64_t ep = path_.back().ep;
    int32_t matched = path_.back().matched;
    const int32_t m = static_cast<int32_t>(pattern.size());
    while (matched < m) {
      const int32_t c = pattern[m - 1 - matched];
      if (c < 0 || !fm_->ExtendLeft(int64_t{c} + 1, &sp, &ep)) {
        return std::nullopt;
      }
      ++matched;
      path_.push_back({sp, ep, matched});
    }
    return FmIndex::ToSaRange(sp, ep);
  }

 private:
  struct Checkpoint {
    int64_t sp = 0;  // SA' coordinates, as in FmIndex::ExtendLeft
    int64_t ep = 0;
    int32_t matched = 0;  // trailing pattern characters already extended
  };
  const FmIndex* fm_;
  std::vector<Checkpoint> path_;
  std::vector<int32_t> prev_;
};

// Orders patterns by their reverse (last character first). Compact-mode
// batches sort with this so neighbours share the longest possible suffix;
// any strict weak order works for grouping equal patterns, but this one
// maximizes what SuffixWalker can resume.
bool ReversedLess(const std::string& a, const std::string& b) {
  size_t i = a.size(), j = b.size();
  while (i > 0 && j > 0) {
    const unsigned char ca = static_cast<unsigned char>(a[--i]);
    const unsigned char cb = static_cast<unsigned char>(b[--j]);
    if (ca != cb) return ca < cb;
  }
  return i == 0 && j > 0;
}
}  // namespace

struct SubstringIndex::Impl {
  UncertainString source;
  IndexOptions options;
  FactorSet fs;
  SuffixTree st;
  // Pins the bytes every zero-copy view points into (mmap'd file or copied
  // buffer); null for built or v2-loaded indexes, which own all arrays.
  serde::BlobPtr backing;
  // Compact mode: the suffix array survives the tree (whose node arrays are
  // the dominant space cost) and an FM-index answers locus-range queries.
  VecOrView<int32_t> sa_storage;
  Span<const int32_t> sa_view;
  std::optional<FmIndex> fm;
  // Load provenance, for tests: the "SARR" section made SA-IS unnecessary.
  bool sa_from_section = false;
  // Load provenance, for tests: the v3 derived sections (DERV/ACTV/FMIX)
  // were consumed, so Load decoded no full payload of TEXT/MAPS/SARR.
  bool derived_from_sections = false;

  // Prefix sums of fs.logp: c[k] = sum of logp[0..k); sentinels add 0.
  VecOrView<double> c;
  // Real characters from a text position to its factor's end (0 on
  // sentinels); a depth-i window starting at q is in-factor iff
  // remaining[q] >= i.
  VecOrView<int32_t> remaining;
  std::unordered_map<int64_t, const CorrelationRule*> rules;

  int32_t K = 0;               // short-depth limit
  int32_t max_remaining = 0;   // longest in-factor window anywhere
  // active[i-1] bit j: SA entry j is the depth-i representative of its
  // (partition, original position) class (§5.2 duplicate elimination).
  std::vector<VecOrView<uint64_t>> active;
  std::vector<std::unique_ptr<RmqHandle>> short_rmq;  // depth 1..K

  struct LongLevel {
    int32_t depth = 0;
    std::unique_ptr<RmqHandle> rmq;
  };
  std::vector<LongLevel> long_levels;  // kPow2: depths K, 2K, 4K, ...

  mutable std::mutex lazy_mu;
  mutable std::map<int32_t, std::unique_ptr<RmqHandle>> lazy_exact;

  size_t N() const { return fs.text.size(); }

  bool ActiveBit(int32_t depth, size_t j) const {
    return (active[depth - 1][j >> 6] >> (j & 63)) & 1;
  }

  // Exact log-probability of the depth-length window of suffix-array entry j
  // (correlation-resolved), or -inf when the window leaves its factor.
  double RawValue(int32_t depth, size_t j) const {
    const int64_t q = sa_view[j];
    if (remaining[q] < depth) return kNegInf;
    double v = c[q + depth] - c[q];
    if (!fs.corr_positions.empty()) {
      auto it = std::lower_bound(fs.corr_positions.begin(),
                                 fs.corr_positions.end(), q);
      for (; it != fs.corr_positions.end() && *it < q + depth; ++it) {
        v += Adjustment(*it, q, depth);
      }
    }
    return v;
  }

  // log(resolved) - log(stored) for the correlated character at text
  // position z, within the window [q, q+depth).
  double Adjustment(int64_t z, int64_t q, int32_t depth) const {
    const uint8_t ch = static_cast<uint8_t>(fs.text.chars()[z]);
    const int64_t s_pos = fs.pos[z];
    const CorrelationRule* rule = rules.at(RuleKey(s_pos, ch));
    const int64_t ws = fs.pos[q];  // window start in S
    double p;
    if (rule->dep_pos >= ws && rule->dep_pos < ws + depth) {
      // Case 1: dependency inside the window — the factor's own character
      // at that position decides it.
      const int64_t zdep = q + (rule->dep_pos - ws);
      const bool present = fs.text.chars()[zdep] == rule->dep_ch;
      p = present ? rule->prob_if_present : rule->prob_if_absent;
    } else {
      // Case 2: outside the window — marginalize.
      const double dep = source.BaseProb(rule->dep_pos, rule->dep_ch);
      p = dep * rule->prob_if_present + (1.0 - dep) * rule->prob_if_absent;
    }
    const double resolved = p <= 0.0 ? kNegInf : std::log(p);
    return resolved - fs.logp[z];
  }

  struct RawFn {
    const Impl* impl;
    int32_t depth;
    double operator()(size_t j) const { return impl->RawValue(depth, j); }
  };
  struct ActiveFn {
    const Impl* impl;
    int32_t depth;
    double operator()(size_t j) const {
      return impl->ActiveBit(depth, j) ? impl->RawValue(depth, j) : kNegInf;
    }
  };

  // Shared by every load/build path: the correlation-rule lookup table and
  // the K formula (both cheap, always rederived).
  void BuildRules() {
    rules.clear();
    for (const CorrelationRule& r : source.correlations()) {
      rules[RuleKey(r.pos, r.ch)] = &r;
    }
  }

  int32_t ComputeK(size_t n_text) const {
    int32_t k;
    if (options.max_short_depth > 0) {
      k = options.max_short_depth;
    } else {
      k = 1;
      while ((size_t{1} << k) < std::max<size_t>(n_text, 2)) ++k;
    }
    return std::max(1, std::min<int32_t>(k, std::max(max_remaining, 1)));
  }

  // The kPow2 level depths are a pure function of K and max_remaining; the
  // loader recomputes them to cross-check a persisted RMQ forest.
  std::vector<int32_t> LongLevelDepths() const {
    std::vector<int32_t> depths;
    if (options.blocking == BlockingMode::kPow2) {
      for (int64_t d = K; d <= max_remaining; d *= 2) {
        depths.push_back(static_cast<int32_t>(d));
      }
    }
    return depths;
  }

  // Window log-probability of depth `depth` at text position q with
  // RawValue's exact arithmetic: the c[] difference first, then the
  // Adjustments in corr_positions order, starting at `corr` (the first
  // correlated position >= q; unused when nothing is correlated).
  double SweepValue(int64_t q, double cq, int32_t depth,
                    const int64_t* corr) const {
    double v = c.data()[q + depth] - cq;
    if (!fs.corr_positions.empty()) {
      for (const int64_t* it = corr;
           it != fs.corr_positions.end() && *it < q + depth; ++it) {
        v += Adjustment(*it, q, depth);
      }
    }
    return v;
  }

  // Fills the block maxima of the short depths 1 .. nshort (block 64,
  // masked by the active bit) and of the long levels of `long_depths`
  // (block = depth) over the suffix-array entries [j_lo, j_hi), in one pass:
  // each entry loads SA[j], remaining[q] and c[q] once and evaluates each
  // level's value at most once. A level whose window leaves the factor (or
  // whose active bit is clear) is -inf, which only matters as its block's
  // first candidate. j_lo must start a block of every level, and j_hi end
  // one (or be N), so disjoint ranges fill disjoint blocks; the maxima equal
  // BlockRmq::ScanBlocks over ActiveFn/RawFn level by level.
  void SweepForest(size_t j_lo, size_t j_hi, size_t nshort,
                   const std::vector<int32_t>& long_depths,
                   std::vector<BlockMaxima>* short_out,
                   std::vector<BlockMaxima>* long_out) const {
    const size_t n_text = N();
    const size_t nlong = long_depths.size();
    std::vector<const uint64_t*> short_bits(nshort);
    for (size_t t = 0; t < nshort; ++t) short_bits[t] = active[t].data();
    std::vector<RmqCandidate> short_best(nshort);
    std::vector<RmqCandidate> long_best(nlong);
    std::vector<size_t> long_off(nlong, 0);
    const int32_t* sa = sa_view.data();
    const int32_t* rem_of = remaining.data();
    const double* cp = c.data();
    const bool correlated = !fs.corr_positions.empty();
    for (size_t j = j_lo; j < j_hi; ++j) {
      if (j + kSweepPrefetch < j_hi) {
        const int32_t ahead = sa[j + kSweepPrefetch];
        __builtin_prefetch(rem_of + ahead);
        __builtin_prefetch(cp + ahead);
      }
      const int64_t q = sa[j];
      const int32_t rem = rem_of[q];
      const double cq = cp[q];
      const int64_t* corr =
          correlated ? std::lower_bound(fs.corr_positions.begin(),
                                        fs.corr_positions.end(), q)
                     : nullptr;
      const bool last = j + 1 == n_text;

      const bool start = (j & 63) == 0;
      if (start) {
        for (size_t t = 0; t < nshort; ++t) short_best[t] = {j, kNegInf};
      }
      const size_t live =
          std::min(static_cast<size_t>(std::max(rem, 0)), nshort);
      const uint64_t bit = uint64_t{1} << (j & 63);
      for (size_t t = 0; t < live; ++t) {
        if ((short_bits[t][j >> 6] & bit) == 0) continue;
        const double v = SweepValue(q, cq, static_cast<int32_t>(t) + 1, corr);
        if (start || v > short_best[t].value) short_best[t] = {j, v};
      }
      if ((j & 63) == 63 || last) {
        for (size_t t = 0; t < nshort; ++t) {
          (*short_out)[t].arg[j >> 6] =
              static_cast<uint32_t>(short_best[t].pos);
          (*short_out)[t].value[j >> 6] = short_best[t].value;
        }
      }

      for (size_t t = 0; t < nlong; ++t) {
        const int32_t depth = long_depths[t];
        const bool first = long_off[t] == 0;
        if (first) long_best[t] = {j, kNegInf};
        if (rem >= depth) {
          const double v = SweepValue(q, cq, depth, corr);
          if (first || v > long_best[t].value) long_best[t] = {j, v};
        }
        if (++long_off[t] == static_cast<size_t>(depth) || last) {
          const size_t b = j / static_cast<size_t>(depth);
          (*long_out)[t].arg[b] = static_cast<uint32_t>(long_best[t].pos);
          (*long_out)[t].value[b] = long_best[t].value;
          long_off[t] = 0;
        }
      }
    }
  }

  // Builds the §5 RMQ forest. Every block-engine level — the K short depths
  // (block 64, active-masked) unless another engine was asked for, and the
  // kPow2 long levels (block = depth) — takes its block maxima from one
  // fused sweep over the suffix array. A multi-thread pool cuts the sweep
  // into contiguous suffix-array chunks whose bounds start a block of every
  // level, so each chunk fills its own blocks of all levels and every
  // thread count yields the same tables. Short depths of a non-block engine
  // are built one MakeRmq per depth.
  void BuildRmqForest(size_t n_text, ThreadPool* pool = nullptr) {
    short_rmq.clear();
    short_rmq.resize(K);
    const std::vector<int32_t> depths = LongLevelDepths();
    const size_t nshort =
        options.rmq_engine == RmqEngineKind::kBlock ? static_cast<size_t>(K)
                                                     : 0;
    const auto sized = [n_text](size_t block) {
      BlockMaxima m;
      m.arg.resize((n_text + block - 1) / block);
      m.value.resize(m.arg.size());
      return m;
    };
    std::vector<BlockMaxima> short_maxima(nshort, sized(64));
    std::vector<BlockMaxima> long_maxima;
    size_t align = 64;  // a multiple of every level's block size
    for (const int32_t d : depths) {
      long_maxima.push_back(sized(static_cast<size_t>(d)));
      align = std::lcm(align, static_cast<size_t>(d));
    }
    const size_t units = (n_text + align - 1) / align;
    const size_t threads = pool == nullptr ? 1 : pool->num_threads();
    const size_t chunks = std::max<size_t>(1, std::min(units, threads));
    const auto sweep = [&](size_t g) {
      const size_t lo = std::min(n_text, g * units / chunks * align);
      const size_t hi = std::min(n_text, (g + 1) * units / chunks * align);
      SweepForest(lo, hi, nshort, depths, &short_maxima, &long_maxima);
    };
    if (chunks > 1) {
      pool->ParallelFor(chunks, sweep);
    } else {
      sweep(0);
    }
    for (size_t t = 0; t < nshort; ++t) {
      const int32_t i = static_cast<int32_t>(t) + 1;
      short_rmq[t] = MakeBlockRmq(ActiveFn{this, i}, n_text, 64,
                                  std::move(short_maxima[t]));
    }
    long_levels.clear();
    for (size_t t = 0; t < depths.size(); ++t) {
      LongLevel level;
      level.depth = depths[t];
      level.rmq = MakeBlockRmq(RawFn{this, level.depth}, n_text,
                               static_cast<size_t>(level.depth),
                               std::move(long_maxima[t]));
      long_levels.push_back(std::move(level));
    }
    if (nshort == 0) {
      const auto build = [&](size_t t) {
        const int32_t i = static_cast<int32_t>(t) + 1;
        short_rmq[t] = MakeRmq(options.rmq_engine, ActiveFn{this, i}, n_text);
      };
      if (pool != nullptr) {
        pool->ParallelFor(static_cast<size_t>(K), build);
      } else {
        for (size_t t = 0; t < static_cast<size_t>(K); ++t) build(t);
      }
    }
  }

  // §5.2 duplicate elimination for depths lo+1 .. hi in one pass over the
  // suffix array: within every depth-i locus partition keep one
  // representative per original position. Each depth keeps its own
  // partition stamp, advanced at every j where lcp[j] < i opens a new
  // depth-i partition — all depths from lcp[j] + 1 up at once. `seen`
  // holds one row of per-depth stamps per original position, so an entry
  // touches a single row however many depths its window covers. A stamp
  // only has to be unique per partition within its own depth, so any split
  // of the depths into groups yields the same bits.
  void BuildActiveBits(size_t lo, size_t hi,
                       const std::vector<int32_t>& lcp) {
    const size_t n_text = N();
    const size_t width = hi - lo;
    if (width == 0) return;
    const int64_t first_depth = static_cast<int64_t>(lo) + 1;
    std::vector<std::vector<uint64_t>> bits(
        width, std::vector<uint64_t>((n_text + 63) / 64, 0));
    std::vector<int32_t> stamp(width, 0);
    std::vector<int32_t> seen(
        static_cast<size_t>(std::max<int64_t>(fs.original_length, 1)) * width,
        -1);
    const int32_t* sa = sa_view.data();
    const int32_t* rem_of = remaining.data();
    const int64_t* pos_of = fs.pos.data();
    for (size_t j = 0; j < n_text; ++j) {
      // The seen row is addressed through pos[q], so pos runs two prefetch
      // distances ahead and the row one.
      if (j + 2 * kSweepPrefetch < n_text) {
        const int32_t ahead = sa[j + 2 * kSweepPrefetch];
        __builtin_prefetch(rem_of + ahead);
        __builtin_prefetch(pos_of + ahead);
      }
      if (j + kSweepPrefetch < n_text) {
        const int64_t ahead_pos = pos_of[sa[j + kSweepPrefetch]];
        if (ahead_pos >= 0) {
          __builtin_prefetch(&seen[static_cast<size_t>(ahead_pos) * width]);
        }
      }
      // Depth first_depth + k opens a partition iff lcp[j] < first_depth + k.
      const int64_t opened =
          j == 0 ? 0 : std::max<int64_t>(lcp[j] - first_depth + 1, 0);
      for (size_t k = static_cast<size_t>(opened); k < width; ++k) ++stamp[k];
      const int64_t q = sa[j];
      const int64_t live = std::min<int64_t>(
          static_cast<int64_t>(rem_of[q]) - first_depth + 1,
          static_cast<int64_t>(width));
      if (live <= 0) continue;
      int32_t* row = &seen[static_cast<size_t>(pos_of[q]) * width];
      const uint64_t bit = uint64_t{1} << (j & 63);
      for (size_t k = 0; k < static_cast<size_t>(live); ++k) {
        if (row[k] != stamp[k]) {
          row[k] = stamp[k];
          bits[k][j >> 6] |= bit;
        }
      }
    }
    for (size_t k = 0; k < width; ++k) {
      active[lo + k] = VecOrView<uint64_t>(std::move(bits[k]));
    }
  }

  // Builds everything derived from (source, options, fs). In compact mode
  // `loaded_sa`, when engaged (Load with a persisted "SARR" section,
  // already validated as a length-N permutation; possibly a view into the
  // backing Blob), replaces the SA-IS run; compact mode never materializes
  // the suffix tree at all — SA + LCP come from SA-IS/Kasai-or-PLCP and the
  // FM-index serves locus lookups.
  //
  // A non-null multi-thread `pool` parallelizes the LCP scan, the active
  // bitsets (one fused suffix-array sweep per contiguous depth group), the
  // RMQ forest (one fused sweep per block-aligned suffix-array chunk) and
  // the FM-index internals, and overlaps the FM-index build (depends only
  // on text + SA) with the derived passes (text + SA + LCP) on a dedicated
  // thread. The floating-point prefix sum `c` and the `remaining` reverse
  // scan stay sequential — cheap O(n), and parallel FP reassociation would
  // change serialized bytes. Everything else writes precomputed disjoint
  // locations, so the build is bit-identical at any thread count.
  Status FinishBuild(std::optional<VecOrView<int32_t>> loaded_sa =
                         std::nullopt,
                     ThreadPool* pool = nullptr,
                     BuildTimings* timings = nullptr) {
    const size_t n_text = N();
    const std::vector<int32_t>* lcp = nullptr;
    std::vector<int32_t> lcp_storage;
    std::thread fm_thread;  // joined before the RMQ forest below
    if (options.compact) {
      {
        StageTimer t(TimingSlot(timings, &BuildTimings::sa_ms));
        sa_storage = loaded_sa.has_value()
                         ? std::move(*loaded_sa)
                         : VecOrView<int32_t>(BuildSuffixArray(
                               fs.text.chars(), fs.text.alphabet_size()));
        sa_view = sa_storage.span();
      }
      {
        StageTimer t(TimingSlot(timings, &BuildTimings::lcp_ms));
        lcp_storage = BuildLcpArrayParallel(fs.text.chars(), sa_view, pool);
      }
      lcp = &lcp_storage;
      // The FM-index needs only text + SA, both final here, so with a real
      // thread budget it builds concurrently with the derived passes below.
      // It runs on a dedicated thread, not a pool task: it drives the pool
      // itself (wavelet-tree fills), and a pool task calling Wait on its
      // own pool would deadlock.
      const auto build_fm = [this, pool, timings] {
        StageTimer t(TimingSlot(timings, &BuildTimings::fm_ms));
        fm.emplace(fs.text.chars(), sa_view, fs.text.alphabet_size(), pool);
      };
      if (pool != nullptr && pool->num_threads() >= 2) {
        fm_thread = std::thread(build_fm);
      } else {
        build_fm();
      }
      st = SuffixTree();
    } else {
      StageTimer t(TimingSlot(timings, &BuildTimings::sa_ms));
      st = SuffixTree::Build(fs.text.chars(), fs.text.alphabet_size());
      sa_view = st.sa();
      lcp = &st.lcp();
    }

    BuildRules();

    {
      StageTimer t(TimingSlot(timings, &BuildTimings::derived_ms));
      std::vector<double> c_build(n_text + 1, 0.0);
      for (size_t k = 0; k < n_text; ++k) {
        c_build[k + 1] = c_build[k] + fs.logp[k];
      }
      c = VecOrView<double>(std::move(c_build));
      std::vector<int32_t> rem_build(n_text, 0);
      max_remaining = 0;
      for (int64_t q = static_cast<int64_t>(n_text) - 1; q >= 0; --q) {
        rem_build[q] = fs.text.IsSentinel(q) ? 0 : rem_build[q + 1] + 1;
        max_remaining = std::max(max_remaining, rem_build[q]);
      }
      remaining = VecOrView<int32_t>(std::move(rem_build));

      K = ComputeK(n_text);

      // One sweep per contiguous, near-equal depth group, one group per
      // pool thread. A depth's bits depend on the depth alone, never on its
      // group, so every thread count yields the same bytes.
      active.assign(K, VecOrView<uint64_t>());
      const size_t depths = static_cast<size_t>(K);
      const size_t groups =
          pool == nullptr ? 1 : std::min(depths, pool->num_threads());
      const auto sweep = [&](size_t g) {
        BuildActiveBits(g * depths / groups, (g + 1) * depths / groups, *lcp);
      };
      if (groups > 1) {
        pool->ParallelFor(groups, sweep);
      } else {
        sweep(0);
      }
    }

    if (fm_thread.joinable()) fm_thread.join();
    {
      StageTimer t(TimingSlot(timings, &BuildTimings::rmq_ms));
      BuildRmqForest(n_text, pool);
    }
    return Status::OK();
  }

  // Zero-copy load path for compact v3 containers: every large array —
  // suffix array (already installed by Load), prefix sums, remaining run
  // lengths, active bitsets, FM-index levels, RMQ tables — is a view into
  // the backing Blob. Structural sizes are validated here; array *content*
  // is entrusted to the container checksum, with the exceptions that keep
  // memory safety independent of it: `remaining` must satisfy its defining
  // recurrence (it bounds every c[] access), the FM count table must be
  // monotone and end at N+1, every bit-vector directory is recomputed and
  // compared, and RMQ argmax entries must lie inside their windows.
  Status FinishLoadCompactV3(const serde::ContainerReader& container) {
    const size_t n_text = N();
    sa_view = sa_storage.span();
    st = SuffixTree();
    BuildRules();

    Reader derv;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagDerived, &derv));
    Span<const double> c_span;
    Span<const int32_t> rem_span;
    PTI_RETURN_IF_ERROR(derv.GetSpan(&c_span));
    PTI_RETURN_IF_ERROR(derv.GetSpan(&rem_span));
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(derv, "derived"));
    if (c_span.size() != n_text + 1 || rem_span.size() != n_text) {
      return Status::Corruption("derived array length mismatches text");
    }
    if (c_span[0] != 0.0) {
      return Status::Corruption("prefix-sum array does not start at zero");
    }
    // remaining[] bounds every c[q + depth] access (RawValue dereferences
    // c[q + depth] only when depth <= remaining[q]), so it must satisfy its
    // defining recurrence exactly — not merely stay in range.
    for (size_t q = 0; q < n_text; ++q) {
      const int32_t expect =
          fs.text.IsSentinel(q) ? 0
          : (q + 1 < n_text ? rem_span[q + 1] + 1 : 1);
      if (rem_span[q] != expect) {
        return Status::Corruption("remaining-run array inconsistent with text");
      }
    }
    c = VecOrView<double>::View(c_span);
    remaining = VecOrView<int32_t>::View(rem_span);
    max_remaining = 0;
    for (size_t q = 0; q < n_text; ++q) {
      max_remaining = std::max(max_remaining, rem_span[q]);
    }
    K = ComputeK(n_text);

    Reader actv;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagActive, &actv));
    uint32_t depth_count = 0;
    PTI_RETURN_IF_ERROR(actv.GetU32(&depth_count));
    if (depth_count != static_cast<uint32_t>(K)) {
      return Status::Corruption("active bitset depth count mismatch");
    }
    active.assign(K, VecOrView<uint64_t>());
    for (int32_t i = 0; i < K; ++i) {
      Span<const uint64_t> bits;
      PTI_RETURN_IF_ERROR(actv.GetSpan(&bits));
      if (bits.size() != (n_text + 63) / 64) {
        return Status::Corruption("active bitset word count mismatch");
      }
      active[i] = VecOrView<uint64_t>::View(bits);
    }
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(actv, "active"));

    Reader fmix;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagFmIndex, &fmix));
    fm.emplace();
    PTI_RETURN_IF_ERROR(fm->LoadFrom(&fmix));
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(fmix, "FM-index"));
    if (fm->bwt_size() != n_text + 1) {
      return Status::Corruption("FM-index size mismatches text");
    }

    const std::vector<int32_t> expected_depths = LongLevelDepths();
    if (options.rmq_engine == RmqEngineKind::kBlock &&
        container.Has(serde::kTagRmqBlocks)) {
      Reader rmqb;
      PTI_RETURN_IF_ERROR(container.Section(serde::kTagRmqBlocks, &rmqb));
      uint32_t nshort = 0;
      PTI_RETURN_IF_ERROR(rmqb.GetU32(&nshort));
      if (nshort != static_cast<uint32_t>(K)) {
        return Status::Corruption("RMQ forest depth count mismatch");
      }
      short_rmq.clear();
      short_rmq.reserve(K);
      for (int32_t i = 1; i <= K; ++i) {
        std::unique_ptr<RmqHandle> handle;
        PTI_RETURN_IF_ERROR(
            LoadBlockRmq(&rmqb, ActiveFn{this, i}, n_text, &handle));
        short_rmq.push_back(std::move(handle));
      }
      uint32_t nlong = 0;
      PTI_RETURN_IF_ERROR(rmqb.GetU32(&nlong));
      if (nlong != expected_depths.size()) {
        return Status::Corruption("RMQ long-level count mismatch");
      }
      long_levels.clear();
      for (uint32_t l = 0; l < nlong; ++l) {
        uint32_t depth = 0;
        PTI_RETURN_IF_ERROR(rmqb.GetU32(&depth));
        if (depth != static_cast<uint32_t>(expected_depths[l])) {
          return Status::Corruption("RMQ long-level depth mismatch");
        }
        LongLevel level;
        level.depth = expected_depths[l];
        PTI_RETURN_IF_ERROR(LoadBlockRmq(&rmqb, RawFn{this, level.depth},
                                         n_text, &level.rmq));
        long_levels.push_back(std::move(level));
      }
      PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(rmqb, "RMQ forest"));
    } else {
      // Non-block engines are not persisted; rebuild from the loaded views.
      BuildRmqForest(n_text);
    }
    derived_from_sections = true;
    return Status::OK();
  }

  // kPaperExact: block structure for exact depth m, built on first use.
  const RmqHandle* ExactLevel(int32_t m) const {
    std::lock_guard<std::mutex> lock(lazy_mu);
    auto it = lazy_exact.find(m);
    if (it == lazy_exact.end()) {
      it = lazy_exact
               .emplace(m, MakeRmq(RmqEngineKind::kBlock, RawFn{this, m}, N(),
                                   static_cast<size_t>(m)))
               .first;
    }
    return it->second.get();
  }

  // Locus range of the pattern: suffix tree walk, or FM-index backward
  // search in compact mode.
  std::optional<std::pair<int32_t, int32_t>> LocusRange(
      const std::string& pattern) const {
    if (fm.has_value()) {
      return fm->Range(Text::MapPattern(pattern));
    }
    const auto range = st.FindRange(Text::MapPattern(pattern));
    if (!range.has_value() || range->empty()) return std::nullopt;
    return std::make_pair(range->begin, range->end);
  }

  Status CheckQuery(const std::string& pattern, double tau) const {
    if (pattern.empty()) {
      return Status::InvalidArgument("pattern must be non-empty");
    }
    if (!(tau > 0.0) || tau > 1.0) {
      return Status::InvalidArgument("tau must be in (0, 1]");
    }
    const LogProb lt = LogProb::FromLinear(tau);
    const LogProb lmin = LogProb::FromLinear(fs.tau_min);
    if (!lt.MeetsThreshold(lmin)) {
      return Status::InvalidArgument(
          "tau is below the construction-time tau_min");
    }
    return Status::OK();
  }

  // A reported occurrence before linear-space conversion: original position
  // plus the exact log-probability the threshold test ran against. QueryBatch
  // needs the log value to re-filter one extraction per distinct tau with
  // the exact predicate Query uses.
  struct RawMatch {
    int64_t spos = 0;
    double logv = kNegInf;
  };

  // Keeps the best window value per original position. Different factors can
  // align the same (position, depth) window; their values are mathematically
  // equal (same characters, same rules), so taking the max just picks the
  // cleanest rounding of the prefix-sum differences.
  static void EmitDedup(std::unordered_map<int64_t, double>* best,
                        int64_t spos, double v) {
    const auto [it, inserted] = best->emplace(spos, v);
    if (!inserted && v > it->second) it->second = v;
  }

  // Algorithm 4: recursive RMQ extraction over an active (deduplicated)
  // depth-m structure. Emits exact matches; the locus range is one depth-m
  // partition, so positions are already unique.
  void ShortQuery(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                  std::vector<RawMatch>* out) const {
    const RmqHandle* rmq = short_rmq[m - 1].get();
    std::vector<std::pair<int32_t, int32_t>> stack{{l, r}};
    while (!stack.empty()) {
      auto [lo, hi] = stack.back();
      stack.pop_back();
      if (lo > hi) continue;
      const size_t pos = rmq->ArgMax(lo, hi);
      const double v = ActiveFn{this, m}(pos);
      if (!LogProb::FromLog(v).MeetsThreshold(log_tau)) continue;
      out->push_back(RawMatch{fs.pos[sa_view[pos]], v});
      stack.emplace_back(lo, static_cast<int32_t>(pos) - 1);
      stack.emplace_back(static_cast<int32_t>(pos) + 1, hi);
    }
  }

  // Scan fallback: validate every entry of the range at exact depth m,
  // deduplicating positions (used for tiny ranges and kScanOnly).
  void ScanQuery(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                 std::unordered_map<int64_t, double>* best) const {
    for (int32_t j = l; j <= r; ++j) {
      const double v = RawValue(m, j);
      if (!LogProb::FromLog(v).MeetsThreshold(log_tau)) continue;
      EmitDedup(best, fs.pos[sa_view[j]], v);
    }
  }

  // kPow2 long-pattern recursion: an upper-bound level filters ranges; every
  // candidate is validated at exact depth m.
  void Pow2Query(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                 std::unordered_map<int64_t, double>* best) const {
    const LongLevel* level = nullptr;
    for (const auto& cand : long_levels) {
      if (cand.depth <= m && (level == nullptr || cand.depth > level->depth)) {
        level = &cand;
      }
    }
    if (level == nullptr) {
      ScanQuery(m, l, r, log_tau, best);
      return;
    }
    std::vector<std::pair<int32_t, int32_t>> stack{{l, r}};
    while (!stack.empty()) {
      auto [lo, hi] = stack.back();
      stack.pop_back();
      if (lo > hi) continue;
      const size_t pos = level->rmq->ArgMax(lo, hi);
      // Upper bound: a shorter window's probability dominates the longer
      // window's. Below tau here means nothing in [lo, hi] can match.
      const double ub = RawValue(level->depth, pos);
      if (!LogProb::FromLog(ub).MeetsThreshold(log_tau)) continue;
      const double v = RawValue(m, pos);
      if (LogProb::FromLog(v).MeetsThreshold(log_tau)) {
        EmitDedup(best, fs.pos[sa_view[pos]], v);
      }
      stack.emplace_back(lo, static_cast<int32_t>(pos) - 1);
      stack.emplace_back(static_cast<int32_t>(pos) + 1, hi);
    }
  }

  // kPaperExact long-pattern recursion over the lazily built exact-depth
  // structure; identical shape to Algorithm 4 plus position dedup.
  void PaperExactQuery(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                       std::unordered_map<int64_t, double>* best) const {
    const RmqHandle* rmq = ExactLevel(m);
    std::vector<std::pair<int32_t, int32_t>> stack{{l, r}};
    while (!stack.empty()) {
      auto [lo, hi] = stack.back();
      stack.pop_back();
      if (lo > hi) continue;
      const size_t pos = rmq->ArgMax(lo, hi);
      const double v = RawValue(m, pos);
      if (!LogProb::FromLog(v).MeetsThreshold(log_tau)) continue;
      EmitDedup(best, fs.pos[sa_view[pos]], v);
      stack.emplace_back(lo, static_cast<int32_t>(pos) - 1);
      stack.emplace_back(static_cast<int32_t>(pos) + 1, hi);
    }
  }

  // Dispatches the locus range [l, r] to the right extraction path for
  // pattern length m; emits raw matches, position-sorted.
  void Extract(int32_t m, int32_t l, int32_t r, LogProb log_tau,
               std::vector<RawMatch>* out) const {
    if (m <= K) {
      ShortQuery(m, l, r, log_tau, out);
    } else {
      std::unordered_map<int64_t, double> best;
      if (options.blocking == BlockingMode::kScanOnly ||
          static_cast<size_t>(r - l + 1) <= options.scan_cutoff) {
        ScanQuery(m, l, r, log_tau, &best);
      } else if (options.blocking == BlockingMode::kPaperExact) {
        PaperExactQuery(m, l, r, log_tau, &best);
      } else {
        Pow2Query(m, l, r, log_tau, &best);
      }
      out->reserve(out->size() + best.size());
      // pti-lint: allow(unordered-iteration-in-serde): spos keys are unique
      // and the sort below imposes a total order, so emit order cancels out.
      for (const auto& [spos, v] : best) out->push_back(RawMatch{spos, v});
    }
    std::sort(out->begin(), out->end(),
              [](const RawMatch& a, const RawMatch& b) {
                return a.spos < b.spos;
              });
  }

  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const {
    out->clear();
    PTI_RETURN_IF_ERROR(CheckQuery(pattern, tau));
    const auto range = LocusRange(pattern);
    if (!range.has_value()) return Status::OK();
    std::vector<RawMatch> raw;
    Extract(static_cast<int32_t>(pattern.size()), range->first,
            range->second - 1, LogProb::FromLinear(tau), &raw);
    out->reserve(raw.size());
    for (const RawMatch& rm : raw) {
      out->push_back(Match{rm.spos, std::exp(rm.logv)});
    }
    return Status::OK();
  }

  Status QueryBatch(const std::vector<BatchQuery>& queries,
                    std::vector<std::vector<Match>>* out) const {
    // Resize without discarding the inner vectors: a caller reusing the
    // output across batches then pays no per-query allocations.
    out->resize(queries.size());
    for (auto& dst : *out) dst.clear();
    // Validate everything up front, computing each query's log-space
    // threshold exactly once (Query pays the log() conversions per call;
    // the batch reuses them for extraction and filtering below).
    const LogProb lmin = LogProb::FromLinear(fs.tau_min);
    std::vector<LogProb> log_taus;
    log_taus.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto fail = [&i](const char* what) {
        return Status::InvalidArgument("batch query #" + std::to_string(i) +
                                       ": " + what);
      };
      const BatchQuery& q = queries[i];
      if (q.pattern.empty()) return fail("pattern must be non-empty");
      if (!(q.tau > 0.0) || q.tau > 1.0) {
        return fail("tau must be in (0, 1]");
      }
      log_taus.push_back(LogProb::FromLinear(q.tau));
      if (!log_taus.back().MeetsThreshold(lmin)) {
        return fail("tau is below the construction-time tau_min");
      }
    }
    // Pattern-sorted processing: equal patterns collapse into one group
    // (smallest tau first), and neighbouring patterns share the resumable
    // part of the locus search — prefixes in tree mode (the descent resumes
    // mid-path), suffixes in compact mode (backward search reads patterns
    // right-to-left, so the shared suffix is what an FM range can resume
    // from).
    const bool compact_mode = fm.has_value();
    std::vector<size_t> order(queries.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&queries, compact_mode](size_t a, size_t b) {
                const std::string& pa = queries[a].pattern;
                const std::string& pb = queries[b].pattern;
                if (pa != pb) {
                  return compact_mode ? ReversedLess(pa, pb)
                                      : pa.compare(pb) < 0;
                }
                return queries[a].tau < queries[b].tau;
              });
    std::optional<PrefixWalker> tree_walker;
    std::optional<SuffixWalker> fm_walker;
    if (compact_mode) {
      fm_walker.emplace(&*fm);
    } else {
      tree_walker.emplace(&st);
    }
    std::vector<RawMatch> raw;
    size_t g = 0;
    while (g < order.size()) {
      size_t h = g + 1;
      while (h < order.size() &&
             queries[order[h]].pattern == queries[order[g]].pattern) {
        ++h;
      }
      const std::string& pattern = queries[order[g]].pattern;
      const auto mapped = Text::MapPattern(pattern);
      const auto range = compact_mode ? fm_walker->Find(mapped)
                                      : tree_walker->Find(mapped);
      if (range.has_value()) {
        // One extraction at the group's smallest tau is a superset of every
        // member's result set (MeetsThreshold is monotone in tau), so each
        // member just re-filters with its own threshold.
        raw.clear();
        Extract(static_cast<int32_t>(pattern.size()), range->first,
                range->second - 1, log_taus[order[g]], &raw);
        for (size_t j = g; j < h; ++j) {
          const LogProb log_tau = log_taus[order[j]];
          auto& dst = (*out)[order[j]];
          dst.reserve(raw.size());
          for (const RawMatch& rm : raw) {
            if (LogProb::FromLog(rm.logv).MeetsThreshold(log_tau)) {
              dst.push_back(Match{rm.spos, std::exp(rm.logv)});
            }
          }
        }
      }
      g = h;
    }
    return Status::OK();
  }

  // ---- Fuzzy (approximate) queries --------------------------------------

  // Upper bound, in log space, on how much a window's probability can
  // exceed one of its own sub-windows': per correlation rule, the gap
  // between its best case-1 resolution and the case-2 marginal a sub-window
  // excluding the dependency must fall back to. Without rules the bound is
  // zero (dropping factors <= 1 only raises a product). +inf when a rule's
  // marginal is zero while a case-1 branch is positive — then no finite
  // seed threshold is safe and the tree path verifies every position.
  double CorrelationSeedBoost() const {
    double boost = 0.0;
    for (const CorrelationRule& r : source.correlations()) {
      const double case1_best = std::max(r.prob_if_present, r.prob_if_absent);
      if (case1_best <= 0.0) continue;
      const double dep = source.BaseProb(r.dep_pos, r.dep_ch);
      const double marginal =
          dep * r.prob_if_present + (1.0 - dep) * r.prob_if_absent;
      if (marginal <= 0.0) return std::numeric_limits<double>::infinity();
      boost += std::max(0.0, std::log(case1_best) - std::log(marginal));
    }
    return boost;
  }

  // Tree-mode candidate generation (seed-and-extend): any admissible
  // variant occurrence keeps at least one of the k+1 pigeonhole seeds
  // intact, so extracting each seed's occurrences yields a complete
  // candidate set; under kEdit the seed can shift by the net indels before
  // it, hence the [-k, k] alignment sweep. Falls back to every position
  // when the pattern has no k+1 non-empty seeds or the boost is unbounded.
  void FuzzyCandidatesTree(const std::string& pattern,
                           const FuzzyParams& params, LogProb log_tau,
                           std::set<int64_t>* cand) const {
    const int32_t m = static_cast<int32_t>(pattern.size());
    const int64_t n = source.size();
    const bool edit = params.metric == FuzzyMetric::kEdit;
    const double boost = CorrelationSeedBoost();
    if (m <= params.k || !std::isfinite(boost)) {
      const int64_t last = edit && params.k > 0 ? n - 1 : n - m;
      for (int64_t i = 0; i <= last; ++i) cand->insert(i);
      return;
    }
    // The intact seed's standalone window dominates the variant window up
    // to the correlation boost, so it clears tau lowered by that bound.
    const LogProb seed_tau = LogProb::FromLog(log_tau.log() - boost);
    std::vector<RawMatch> raw;
    for (const auto& [off, len] : FuzzySeeds(m, params.k)) {
      const auto range = LocusRange(pattern.substr(
          static_cast<size_t>(off), static_cast<size_t>(len)));
      if (!range.has_value()) continue;
      raw.clear();
      Extract(len, range->first, range->second - 1, seed_tau, &raw);
      const int32_t max_shift = edit ? params.k : 0;
      for (const RawMatch& rm : raw) {
        for (int32_t shift = -max_shift; shift <= max_shift; ++shift) {
          const int64_t i = rm.spos - off - shift;
          if (i >= 0 && i < n) cand->insert(i);
        }
      }
    }
  }

  // One fuzzy enumeration pass: every position whose best admissible
  // variant clears log_tau, with that variant's exact log value,
  // position-sorted. Shared by QueryFuzzy and QueryFuzzyBatch (which runs
  // it at a group's smallest tau and re-filters, exactly like the exact
  // batch path).
  void FuzzyExtract(const std::string& pattern, const FuzzyParams& params,
                    LogProb log_tau, std::vector<RawMatch>* out) const {
    out->clear();
    if (fm.has_value()) {
      // Compact mode: enumerate variant windows directly. Coverage of the
      // factor transformation applies per variant (each is a deterministic
      // string), so extracting every variant range at its own depth and
      // keeping the best value per position reproduces the oracle's max.
      std::unordered_map<int64_t, double> best;
      std::vector<RawMatch> raw;
      for (const FuzzySaRange& fr :
           EnumerateFmFuzzyRanges(*fm, Text::MapPattern(pattern), params)) {
        raw.clear();
        Extract(fr.length, fr.begin, fr.end - 1, log_tau, &raw);
        for (const RawMatch& rm : raw) EmitDedup(&best, rm.spos, rm.logv);
      }
      out->reserve(best.size());
      // pti-lint: allow(unordered-iteration-in-serde): spos keys are unique
      // and the sort below imposes a total order, so emit order cancels out.
      for (const auto& [spos, v] : best) out->push_back(RawMatch{spos, v});
      std::sort(out->begin(), out->end(),
                [](const RawMatch& a, const RawMatch& b) {
                  return a.spos < b.spos;
                });
    } else {
      std::set<int64_t> cand;
      FuzzyCandidatesTree(pattern, params, log_tau, &cand);
      for (const int64_t i : cand) {
        const LogProb p = FuzzyOccurrenceProb(source, pattern, i, params);
        if (p.MeetsThreshold(log_tau)) out->push_back(RawMatch{i, p.log()});
      }
    }
  }

  Status QueryFuzzy(const std::string& pattern, double tau,
                    const FuzzyParams& params, std::vector<Match>* out) const {
    out->clear();
    PTI_RETURN_IF_ERROR(CheckQuery(pattern, tau));
    PTI_RETURN_IF_ERROR(CheckFuzzyParams(params));
    // k = 0 is the exact query; delegating keeps it bit-identical.
    if (params.k == 0) return Query(pattern, tau, out);
    std::vector<RawMatch> raw;
    FuzzyExtract(pattern, params, LogProb::FromLinear(tau), &raw);
    out->reserve(raw.size());
    for (const RawMatch& rm : raw) {
      out->push_back(Match{rm.spos, std::exp(rm.logv)});
    }
    return Status::OK();
  }

  Status QueryFuzzyBatch(const std::vector<FuzzyBatchQuery>& queries,
                         std::vector<std::vector<Match>>* out) const {
    out->resize(queries.size());
    for (auto& dst : *out) dst.clear();
    const LogProb lmin = LogProb::FromLinear(fs.tau_min);
    std::vector<LogProb> log_taus;
    log_taus.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto fail = [&i](const char* what) {
        return Status::InvalidArgument("batch query #" + std::to_string(i) +
                                       ": " + what);
      };
      const FuzzyBatchQuery& q = queries[i];
      if (q.pattern.empty()) return fail("pattern must be non-empty");
      if (!(q.tau > 0.0) || q.tau > 1.0) {
        return fail("tau must be in (0, 1]");
      }
      log_taus.push_back(LogProb::FromLinear(q.tau));
      if (!log_taus.back().MeetsThreshold(lmin)) {
        return fail("tau is below the construction-time tau_min");
      }
      const Status fp = CheckFuzzyParams(q.params);
      if (!fp.ok()) {
        const std::string msg =
            "batch query #" + std::to_string(i) + ": " + fp.message();
        return fp.code() == Status::Code::kNotSupported
                   ? Status::NotSupported(msg)
                   : Status::InvalidArgument(msg);
      }
    }
    // Group by (pattern, metric, k): one enumeration at the group's
    // smallest tau is a superset of every member's result set, so members
    // re-filter with their own thresholds — the fuzzy mirror of QueryBatch.
    std::vector<size_t> order(queries.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&queries](size_t a, size_t b) {
      const FuzzyBatchQuery& qa = queries[a];
      const FuzzyBatchQuery& qb = queries[b];
      if (qa.pattern != qb.pattern) return qa.pattern < qb.pattern;
      if (qa.params.metric != qb.params.metric) {
        return qa.params.metric < qb.params.metric;
      }
      if (qa.params.k != qb.params.k) return qa.params.k < qb.params.k;
      return qa.tau < qb.tau;
    });
    std::vector<RawMatch> raw;
    size_t g = 0;
    while (g < order.size()) {
      const FuzzyBatchQuery& lead = queries[order[g]];
      size_t h = g + 1;
      while (h < order.size() &&
             queries[order[h]].pattern == lead.pattern &&
             queries[order[h]].params.metric == lead.params.metric &&
             queries[order[h]].params.k == lead.params.k) {
        ++h;
      }
      if (lead.params.k == 0) {
        // Exact members stay on the exact path for bit-identity with Query.
        for (size_t j = g; j < h; ++j) {
          PTI_RETURN_IF_ERROR(Query(lead.pattern, queries[order[j]].tau,
                                    &(*out)[order[j]]));
        }
      } else {
        raw.clear();
        FuzzyExtract(lead.pattern, lead.params, log_taus[order[g]], &raw);
        for (size_t j = g; j < h; ++j) {
          const LogProb log_tau = log_taus[order[j]];
          auto& dst = (*out)[order[j]];
          dst.reserve(raw.size());
          for (const RawMatch& rm : raw) {
            if (LogProb::FromLog(rm.logv).MeetsThreshold(log_tau)) {
              dst.push_back(Match{rm.spos, std::exp(rm.logv)});
            }
          }
        }
      }
      g = h;
    }
    return Status::OK();
  }

  Status QueryTopK(const std::string& pattern, double tau, size_t k,
                   std::vector<Match>* out) const {
    out->clear();
    PTI_RETURN_IF_ERROR(CheckQuery(pattern, tau));
    if (k == 0) return Status::OK();
    const auto range = LocusRange(pattern);
    if (!range.has_value()) return Status::OK();
    const int32_t m = static_cast<int32_t>(pattern.size());
    const LogProb log_tau = LogProb::FromLinear(tau);
    if (m <= K) {
      // Heap of (value, argmax, subrange): repeatedly take the global best
      // and split its range — O((m + k) log k)-ish, independent of occ.
      struct Entry {
        double v;
        int32_t pos, l, r;
        bool operator<(const Entry& o) const { return v < o.v; }
      };
      const RmqHandle* rmq = short_rmq[m - 1].get();
      std::priority_queue<Entry> heap;
      auto push = [&](int32_t lo, int32_t hi) {
        if (lo > hi) return;
        const size_t pos = rmq->ArgMax(lo, hi);
        const double v = ActiveFn{this, m}(pos);
        if (LogProb::FromLog(v).MeetsThreshold(log_tau)) {
          heap.push(Entry{v, static_cast<int32_t>(pos), lo, hi});
        }
      };
      push(range->first, range->second - 1);
      while (!heap.empty() && out->size() < k) {
        const Entry e = heap.top();
        heap.pop();
        out->push_back(Match{fs.pos[sa_view[e.pos]], std::exp(e.v)});
        push(e.l, e.pos - 1);
        push(e.pos + 1, e.r);
      }
    } else {
      std::vector<Match> all;
      PTI_RETURN_IF_ERROR(Query(pattern, tau, &all));
      std::sort(all.begin(), all.end(), [](const Match& a, const Match& b) {
        if (a.probability != b.probability) {
          return a.probability > b.probability;
        }
        return a.position < b.position;
      });
      if (all.size() > k) all.resize(k);
      *out = std::move(all);
    }
    return Status::OK();
  }
};

SubstringIndex::SubstringIndex() = default;
SubstringIndex::~SubstringIndex() = default;
SubstringIndex::SubstringIndex(SubstringIndex&&) noexcept = default;
SubstringIndex& SubstringIndex::operator=(SubstringIndex&&) noexcept = default;

StatusOr<SubstringIndex> SubstringIndex::Build(const UncertainString& s,
                                               const IndexOptions& options,
                                               const BuildOptions& build) {
  SubstringIndex index;
  index.impl_ = std::make_unique<Impl>();
  index.impl_->source = s;
  index.impl_->options = options;
  StageTimer transform_timer(
      TimingSlot(build.timings, &BuildTimings::transform_ms));
  auto fs = TransformToFactors(index.impl_->source, options.transform);
  transform_timer.Stop();
  if (!fs.ok()) return fs.status();
  index.impl_->fs = std::move(fs).value();
  // The pool is scoped to this build; a 1-thread budget spins none at all.
  std::optional<ThreadPool> pool;
  if (ResolveThreadCount(build.threads) > 1) pool.emplace(build.threads);
  PTI_RETURN_IF_ERROR(index.impl_->FinishBuild(
      std::nullopt, pool.has_value() ? &*pool : nullptr, build.timings));
  return index;
}

Status SubstringIndex::Query(const std::string& pattern, double tau,
                             std::vector<Match>* out) const {
  return impl_->Query(pattern, tau, out);
}

Status SubstringIndex::QueryBatch(const std::vector<BatchQuery>& queries,
                                  std::vector<std::vector<Match>>* out) const {
  return impl_->QueryBatch(queries, out);
}

Status SubstringIndex::QueryFuzzy(const std::string& pattern, double tau,
                                  const FuzzyParams& params,
                                  std::vector<Match>* out) const {
  return impl_->QueryFuzzy(pattern, tau, params, out);
}

Status SubstringIndex::QueryFuzzyBatch(
    const std::vector<FuzzyBatchQuery>& queries,
    std::vector<std::vector<Match>>* out) const {
  return impl_->QueryFuzzyBatch(queries, out);
}

Status SubstringIndex::QueryTopK(const std::string& pattern, double tau,
                                 size_t k, std::vector<Match>* out) const {
  return impl_->QueryTopK(pattern, tau, k, out);
}

Status SubstringIndex::Count(const std::string& pattern, double tau,
                             size_t* count) const {
  std::vector<Match> matches;
  PTI_RETURN_IF_ERROR(impl_->Query(pattern, tau, &matches));
  *count = matches.size();
  return Status::OK();
}

SubstringIndex::Stats SubstringIndex::stats() const {
  Stats s;
  s.original_length = impl_->fs.original_length;
  s.num_factors = impl_->fs.num_factors();
  s.transformed_length = impl_->fs.total_length();
  s.short_depth_limit = impl_->K;
  s.num_tree_nodes = static_cast<size_t>(impl_->st.num_nodes());
  return s;
}

size_t SubstringIndex::MemoryUsage() const {
  const Impl& i = *impl_;
  size_t bytes = i.source.MemoryUsage() + i.fs.MemoryUsage() +
                 i.st.MemoryUsage() + i.c.OwnedBytes() +
                 i.remaining.OwnedBytes() + i.sa_storage.OwnedBytes();
  if (i.fm) bytes += i.fm->MemoryUsage();
  for (const auto& bits : i.active) bytes += bits.OwnedBytes();
  for (const auto& r : i.short_rmq) bytes += r->MemoryUsage();
  for (const auto& level : i.long_levels) bytes += level.rmq->MemoryUsage();
  {
    std::lock_guard<std::mutex> lock(i.lazy_mu);
    for (const auto& [depth, r] : i.lazy_exact) {
      (void)depth;
      bytes += r->MemoryUsage();
    }
  }
  return bytes;
}

const UncertainString& SubstringIndex::source() const {
  return impl_->source;
}

const IndexOptions& SubstringIndex::options() const { return impl_->options; }

Status SubstringIndex::Save(std::string* out) const {
  return Save(out, serde::kContainerVersion);
}

Status SubstringIndex::Save(std::string* out, uint32_t version) const {
  if (version < serde::kInterchangeVersion ||
      version > serde::kContainerVersion) {
    return Status::InvalidArgument("unsupported container version");
  }
  const Impl& i = *impl_;
  serde::ContainerWriter cw(serde::IndexKind::kSubstring, version);
  Writer& opts = cw.AddSection(serde::kTagOptions);
  opts.PutDouble(i.options.transform.tau_min);
  opts.PutU64(i.options.transform.max_total_length);
  opts.PutU32(static_cast<uint32_t>(i.options.max_short_depth));
  opts.PutU8(static_cast<uint8_t>(i.options.rmq_engine));
  opts.PutU8(static_cast<uint8_t>(i.options.blocking));
  opts.PutU64(i.options.scan_cutoff);
  opts.PutU8(i.options.compact ? 1 : 0);
  serde::EncodeUncertainString(i.source, &cw.AddSection(serde::kTagSource));
  if (version >= 3) {
    Writer& text_w = cw.AddSection(serde::kTagText);
    Writer& maps_w = cw.AddSection(serde::kTagMaps);
    serde::EncodeFactorSetV3(i.fs, &text_w, &maps_w);
  } else {
    serde::EncodeFactorSet(i.fs, &cw.AddSection(serde::kTagFactors));
  }
  if (i.options.compact) {
    // Compact Load would otherwise re-run SA-IS just to rebuild the
    // FM-index; persisting the suffix array turns a v2 load into decode +
    // Kasai + RMQ builds. Tree mode skips it: the tree rebuild derives the
    // SA anyway and the section would double the blob.
    cw.AddSection(serde::kTagSuffixArray).PutSpan(i.sa_storage.span());
  }
  if (version >= 3 && i.options.compact) {
    // Every derived structure the compact query paths touch, 8-byte
    // aligned so Load is validation plus pointer fix-up — no SA-IS, no
    // Kasai, no FM or RMQ construction, no payload copies.
    Writer& derv = cw.AddSection(serde::kTagDerived);
    derv.PutSpan(i.c.span());
    derv.PutSpan(i.remaining.span());
    Writer& actv = cw.AddSection(serde::kTagActive);
    actv.PutU32(static_cast<uint32_t>(i.K));
    for (const auto& bits : i.active) actv.PutSpan(bits.span());
    Writer& fmix = cw.AddSection(serde::kTagFmIndex);
    i.fm->SaveTo(&fmix);
    if (i.options.rmq_engine == RmqEngineKind::kBlock) {
      // Only the block engine round-trips (the Fischer-Heun and sparse-
      // table engines rebuild cheaply relative to their size on disk).
      Writer& rmqb = cw.AddSection(serde::kTagRmqBlocks);
      rmqb.PutU32(static_cast<uint32_t>(i.K));
      for (const auto& handle : i.short_rmq) handle->SaveTo(&rmqb);
      rmqb.PutU32(static_cast<uint32_t>(i.long_levels.size()));
      for (const auto& level : i.long_levels) {
        rmqb.PutU32(static_cast<uint32_t>(level.depth));
        level.rmq->SaveTo(&rmqb);
      }
    }
  }
  *out = std::move(cw).Finish();
  return Status::OK();
}

StatusOr<SubstringIndex> SubstringIndex::Load(std::string_view data,
                                              serde::BlobPtr backing,
                                              const BuildOptions& build) {
  // A v3 load keeps views into `data` alive for the index's lifetime, so
  // the index must own the bytes by construction: either the caller's Blob
  // (mmap'd file or otherwise pinned) or a private copy made here. Callers
  // passing a transient buffer therefore cannot create dangling views.
  PTI_ASSIGN_OR_RETURN(const uint32_t version, serde::PeekVersion(data));
  if (version >= 3 && backing == nullptr) {
    backing = std::make_shared<const serde::Blob>(std::string(data));
    data = backing->view();
  }
  serde::ContainerReader container;
  PTI_RETURN_IF_ERROR(serde::ContainerReader::Open(
      data, serde::IndexKind::kSubstring, &container));
  SubstringIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& i = *index.impl_;
  if (container.version() >= 3) i.backing = backing;

  Reader opts;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagOptions, &opts));
  PTI_RETURN_IF_ERROR(opts.GetDouble(&i.options.transform.tau_min));
  if (!std::isfinite(i.options.transform.tau_min) ||
      !(i.options.transform.tau_min > 0.0) ||
      i.options.transform.tau_min > 1.0) {
    return Status::Corruption("tau_min outside (0, 1]");
  }
  uint64_t max_total = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&max_total));
  i.options.transform.max_total_length = max_total;
  uint32_t max_short = 0;
  PTI_RETURN_IF_ERROR(opts.GetU32(&max_short));
  if (max_short > static_cast<uint32_t>(
                      std::numeric_limits<int32_t>::max())) {
    return Status::Corruption("short depth limit out of range");
  }
  i.options.max_short_depth = static_cast<int32_t>(max_short);
  uint8_t engine = 0, blocking = 0;
  PTI_RETURN_IF_ERROR(opts.GetU8(&engine));
  PTI_RETURN_IF_ERROR(opts.GetU8(&blocking));
  if (engine > 2 || blocking > 2) {
    return Status::Corruption("unknown enum value in index file");
  }
  i.options.rmq_engine = static_cast<RmqEngineKind>(engine);
  i.options.blocking = static_cast<BlockingMode>(blocking);
  uint64_t cutoff = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&cutoff));
  i.options.scan_cutoff = cutoff;
  uint8_t compact = 0;
  PTI_RETURN_IF_ERROR(opts.GetU8(&compact));
  if (compact > 1) return Status::Corruption("bad compact flag");
  i.options.compact = compact != 0;
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(opts, "options"));

  Reader src;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagSource, &src));
  PTI_RETURN_IF_ERROR(serde::DecodeUncertainString(&src, &i.source));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(src, "source"));

  if (container.version() >= 3) {
    Reader text_r, maps_r;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagText, &text_r));
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagMaps, &maps_r));
    PTI_RETURN_IF_ERROR(
        serde::DecodeFactorSetV3(&text_r, &maps_r, i.source, &i.fs));
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(text_r, "text"));
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(maps_r, "maps"));
  } else {
    Reader fact;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagFactors, &fact));
    PTI_RETURN_IF_ERROR(serde::DecodeFactorSet(&fact, i.source, &i.fs));
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(fact, "factors"));
  }

  std::optional<VecOrView<int32_t>> loaded_sa;
  if (i.options.compact && container.Has(serde::kTagSuffixArray)) {
    Reader sar;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagSuffixArray, &sar));
    Span<const int32_t> sa;
    if (container.version() >= 3) {
      PTI_RETURN_IF_ERROR(sar.GetSpan(&sa));
    } else {
      std::vector<int32_t> owned;
      PTI_RETURN_IF_ERROR(sar.GetVector(&owned));
      loaded_sa = VecOrView<int32_t>(std::move(owned));
      sa = loaded_sa->span();
    }
    PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(sar, "suffix array"));
    if (sa.size() != i.fs.text.size()) {
      return Status::Corruption("suffix array length mismatches text");
    }
    // A permutation of [0, N) keeps every downstream array access in
    // bounds; the suffix *order* itself is entrusted to the container
    // checksum, like every other derived-from-inputs invariant.
    std::vector<bool> seen(sa.size(), false);
    for (const int32_t v : sa) {
      if (v < 0 || static_cast<size_t>(v) >= sa.size() || seen[v]) {
        return Status::Corruption("suffix array is not a permutation");
      }
      seen[v] = true;
    }
    if (container.version() >= 3) loaded_sa = VecOrView<int32_t>::View(sa);
    i.sa_from_section = true;
  }

  if (container.version() >= 3 && i.options.compact &&
      container.Has(serde::kTagDerived)) {
    // Zero-copy fast path: the derived sections make every rebuild step
    // unnecessary. The SARR section is mandatory here — its permutation
    // scan above is what licenses the views installed next.
    if (!loaded_sa.has_value()) {
      return Status::Corruption("derived sections without a suffix array");
    }
    if (!container.Has(serde::kTagActive) ||
        !container.Has(serde::kTagFmIndex)) {
      return Status::Corruption("incomplete derived section group");
    }
    i.sa_storage = std::move(*loaded_sa);
    PTI_RETURN_IF_ERROR(i.FinishLoadCompactV3(container));
  } else {
    // Rebuild path (v2 containers and tree mode): the same pipeline as
    // Build, so the thread budget applies here too.
    std::optional<ThreadPool> pool;
    if (ResolveThreadCount(build.threads) > 1) pool.emplace(build.threads);
    PTI_RETURN_IF_ERROR(i.FinishBuild(std::move(loaded_sa),
                                      pool.has_value() ? &*pool : nullptr,
                                      build.timings));
  }
  return index;
}

bool SubstringIndexTestPeer::SaLoadedFromSection(const SubstringIndex& index) {
  return index.impl_->sa_from_section;
}

bool SubstringIndexTestPeer::DerivedLoadedFromSections(
    const SubstringIndex& index) {
  return index.impl_->derived_from_sections;
}

bool SubstringIndexTestPeer::ZeroCopyBacked(const SubstringIndex& index) {
  const auto& i = *index.impl_;
  return i.backing != nullptr && i.fs.pos.is_view() && i.fs.logp.is_view() &&
         i.fs.text.IsZeroCopy() &&
         (!i.options.compact || i.sa_storage.is_view());
}

}  // namespace pti
