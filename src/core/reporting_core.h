// ReportingCore: the threshold-reporting machinery the exact indexes share
// (§4-§6).
//
// Every index reports occurrences the same way. It keeps the prefix sums C of
// the per-character log-probabilities over a sentinel-separated text, so the
// window of depth d at text position q is worth C[q + d] - C[q], plus one
// adjustment per correlated character inside it (§3.3). It builds a per-depth
// RMQ forest over those values for depths 1..K (masked by "active" bits that
// keep one suffix-array entry per reported item), plus blocking levels for
// longer patterns. Then it answers a locus range by recursive max-extraction
// (Algorithm 4). What differs between the indexes is what an entry stands
// for (an original position, a document) and which entries stay active. The
// indexes supply those as the active bitsets and as the sink the extraction
// hands its (suffix-array index, log value) pairs to.
//
// The core views the text characters, the suffix array and the correlated
// positions its owner keeps, and owns everything derived from them. The RMQ
// value accessors point back into the core, so a built core never moves.

#ifndef PTI_CORE_REPORTING_CORE_H_
#define PTI_CORE_REPORTING_CORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/uncertain_string.h"
#include "rmq/rmq_handle.h"
#include "suffix/text.h"
#include "util/log_prob.h"
#include "util/span.h"
#include "util/status.h"

namespace pti {

class ThreadPool;

/// Checks one query's arguments: a non-empty pattern and tau in (0, 1] that
/// meets the construction floor `log_tau_min` (LogProb::Zero() for an index
/// without one). InvalidArgument otherwise; on success stores tau's log in
/// *log_tau when given.
Status CheckQueryArgs(const std::string& pattern, double tau,
                      LogProb log_tau_min, LogProb* log_tau = nullptr);

/// `st` with the same code and its message prefixed by "batch query #i: ".
Status BatchQueryError(size_t i, const Status& st);

/// One correlated text position's rule, resolved when the index is built.
/// Inside a factor, text offsets and original offsets advance together, so
/// the dependency sits at text position z + dep_offset whenever a window
/// covers it. Each adjustment is log(p) - logp[z] for its case's p.
struct CorrelationAdjust {
  int64_t dep_offset = 0;
  int32_t dep_ch = 0;
  double present = 0.0;   ///< window covers the dependency, dep_ch there
  double absent = 0.0;    ///< window covers the dependency, another char
  double marginal = 0.0;  ///< dependency outside the window
};

/// Algorithm 4's recursion over the inclusive range [l, r] of `rmq`: takes
/// the maximum of each subrange and drops the subrange when value(pos)
/// misses log_tau, as then nothing in it can clear; otherwise hands
/// (pos, value) to `visit` and recurses into both sides.
template <typename ValueFn, typename Visit>
void ExtractMaxima(const RmqHandle& rmq, int64_t l, int64_t r, LogProb log_tau,
                   ValueFn&& value, Visit&& visit) {
  std::vector<std::pair<int64_t, int64_t>> stack{{l, r}};
  while (!stack.empty()) {
    const auto [lo, hi] = stack.back();
    stack.pop_back();
    if (lo > hi) continue;
    const size_t pos = rmq.ArgMax(lo, hi);
    const double v = value(pos);
    if (!LogProb::FromLog(v).MeetsThreshold(log_tau)) continue;
    visit(pos, v);
    stack.emplace_back(lo, static_cast<int64_t>(pos) - 1);
    stack.emplace_back(static_cast<int64_t>(pos) + 1, hi);
  }
}

/// Where a correlated text position comes from: a string and a position in
/// it.
struct RuleSite {
  const UncertainString* source = nullptr;
  int64_t pos = 0;
};

class ReportingCore {
 public:
  static constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  struct Level {
    int32_t depth = 0;
    std::unique_ptr<RmqHandle> rmq;
  };

  ReportingCore() = default;
  ReportingCore(const ReportingCore&) = delete;
  ReportingCore& operator=(const ReportingCore&) = delete;

  // ---- Inputs, viewed from the owning index ------------------------------

  Span<const int32_t> chars;  ///< text characters (sentinels >= 256)
  Span<const int32_t> sa;     ///< suffix array of the text
  Span<const int64_t> corr;   ///< sorted correlated text positions

  // ---- Window model ------------------------------------------------------

  /// c[k] = sum of logp[0..k); sentinels add 0.
  VecOrView<double> c;
  /// Real characters from a text position to its factor's end (0 on
  /// sentinels); a depth-d window at q stays in its factor iff
  /// remaining[q] >= d.
  VecOrView<int32_t> remaining;
  int32_t max_remaining = 0;  ///< longest in-factor window anywhere
  std::vector<CorrelationAdjust> adjust;  ///< parallel to corr

  // ---- Reporting structures ----------------------------------------------

  int32_t K = 0;  ///< short-depth limit
  /// active[d-1] bit j: suffix-array entry j is reported at depth d.
  std::vector<VecOrView<uint64_t>> active;
  std::vector<std::unique_ptr<RmqHandle>> short_rmq;  ///< depths 1..K
  std::vector<Level> long_levels;  ///< blocking levels, ascending depth

  size_t N() const { return chars.size(); }

  /// Views `text` and derives c, remaining and max_remaining from the
  /// per-position log-probabilities `logp`.
  void BuildWindowModel(const Text& text, Span<const double> logp);
  /// Views `text` and installs c and remaining decoded elsewhere (remaining
  /// already checked against the text); derives max_remaining.
  void AdoptWindowModel(const Text& text, VecOrView<double> prefix,
                        VecOrView<int32_t> rem);

  /// Views the sorted correlated positions `corr_positions` and resolves the
  /// rule of each: `site(z)` names what text position z stands for.
  /// Corruption when a position carries no rule.
  Status ResolveCorrelations(Span<const int64_t> corr_positions,
                             Span<const double> logp,
                             const std::function<RuleSite(int64_t)>& site);

  /// Index into corr of the first correlated position >= q.
  size_t FirstCorr(int64_t q) const {
    if (corr.empty()) return 0;
    return static_cast<size_t>(std::lower_bound(corr.begin(), corr.end(), q) -
                               corr.begin());
  }

  /// Log-probability of the depth-d window at text position q, correlation
  /// resolved; -inf when the window leaves its factor.
  double WindowValue(int64_t q, int32_t depth) const {
    if (remaining[q] < depth) return kNegInf;
    return InFactorValue(q, c[q], depth, FirstCorr(q));
  }

  /// WindowValue for a window known to stay in its factor, given cq = c[q]
  /// and k = FirstCorr(q): the c[] difference first, then the adjustments
  /// in text order.
  double InFactorValue(int64_t q, double cq, int32_t depth, size_t k) const {
    double v = c.data()[q + depth] - cq;
    for (; k < corr.size() && corr[k] < q + depth; ++k) {
      const CorrelationAdjust& a = adjust[k];
      const int64_t zdep = corr[k] + a.dep_offset;
      if (zdep >= q && zdep < q + depth) {
        v += chars[zdep] == a.dep_ch ? a.present : a.absent;
      } else {
        v += a.marginal;
      }
    }
    return v;
  }

  /// The depth-d window value of suffix-array entry j.
  double Value(int32_t depth, size_t j) const {
    return WindowValue(sa[j], depth);
  }
  bool ActiveBit(int32_t depth, size_t j) const {
    return (active[depth - 1][j >> 6] >> (j & 63)) & 1;
  }
  /// Value(depth, j) when entry j is active at depth, else -inf.
  double ActiveValue(int32_t depth, size_t j) const {
    return ActiveBit(depth, j) ? Value(depth, j) : kNegInf;
  }

  /// RMQ value accessors over the window values of one depth.
  struct RawFn {
    const ReportingCore* core;
    int32_t depth;
    double operator()(size_t j) const { return core->Value(depth, j); }
  };
  struct ActiveFn {
    const ReportingCore* core;
    int32_t depth;
    double operator()(size_t j) const { return core->ActiveValue(depth, j); }
  };

  // ---- Construction -----------------------------------------------------

  /// Sets K: max_short_depth when positive, else ceil(log2(N)), clamped to
  /// [1, max(max_remaining, 1)].
  void ComputeK(int32_t max_short_depth);

  /// The doubling blocking-level depths K, 2K, 4K, ... <= max_remaining.
  std::vector<int32_t> Pow2Depths() const;

  /// §5.2 duplicate elimination: for every depth 1..K, within each depth-d
  /// locus partition (maximal run with lcp >= d), keeps the first entry per
  /// original position pos[q]. A multi-thread pool sweeps contiguous depth
  /// groups in parallel; every thread count yields the same bits.
  void BuildDistinctActive(const std::vector<int32_t>& lcp,
                           Span<const int64_t> pos, int64_t original_length,
                           ThreadPool* pool);

  /// Builds the short levels over the active values with `engine` and the
  /// blocking levels at `long_depths` (block engine, block = depth). Every
  /// block-engine level takes its block maxima from one fused sweep over
  /// the suffix array, cut into block-aligned chunks across `pool`.
  void BuildForest(RmqEngineKind engine,
                   const std::vector<int32_t>& long_depths, ThreadPool* pool);

  /// Reinstates the persisted block-engine forest (zero-copy views).
  Status LoadForest(Reader* r, const std::vector<int32_t>& long_depths);
  /// Inverse of LoadForest.
  void SaveForest(Writer* w) const;

  size_t MemoryUsage() const;

  // ---- Reporting ---------------------------------------------------------

  /// Algorithm 4 over the inclusive suffix-array range [l, r]: `rmq` ranks
  /// the window values at filter_depth (active-masked when `masked`), whose
  /// maximum bounds every deeper window's. Each maximum clearing log_tau is
  /// validated at exact_depth >= filter_depth and handed to sink(j, v) when
  /// it clears too; the recursion continues on both sides either way.
  template <typename Sink>
  void Extract(const RmqHandle& rmq, bool masked, int32_t filter_depth,
               int32_t exact_depth, int32_t l, int32_t r, LogProb log_tau,
               Sink&& sink) const {
    ExtractMaxima(
        rmq, l, r, log_tau,
        [&](size_t j) {
          return masked ? ActiveValue(filter_depth, j)
                        : Value(filter_depth, j);
        },
        [&](size_t j, double bound) {
          if (filter_depth == exact_depth) {
            sink(j, bound);
            return;
          }
          const double v = Value(exact_depth, j);
          if (LogProb::FromLog(v).MeetsThreshold(log_tau)) sink(j, v);
        });
  }

  /// Extract over the active short level of depth m <= K.
  template <typename Sink>
  void ExtractShort(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                    Sink&& sink) const {
    Extract(*short_rmq[m - 1], /*masked=*/true, m, m, l, r, log_tau, sink);
  }

  /// Long patterns: the deepest blocking level <= m filters, candidates are
  /// validated at m; a scan when no level qualifies.
  template <typename Sink>
  void ExtractBlocked(int32_t m, int32_t l, int32_t r, LogProb log_tau,
                      Sink&& sink) const {
    const Level* level = nullptr;
    for (const Level& cand : long_levels) {
      if (cand.depth <= m) level = &cand;
    }
    if (level == nullptr) {
      Scan(m, l, r, log_tau, sink);
    } else {
      Extract(*level->rmq, /*masked=*/false, level->depth, m, l, r, log_tau,
              sink);
    }
  }

  /// Validates every entry of [l, r] at depth m; sink(j, v) on each match.
  template <typename Sink>
  void Scan(int32_t m, int32_t l, int32_t r, LogProb log_tau,
            Sink&& sink) const {
    for (int32_t j = l; j <= r; ++j) {
      const double v = Value(m, j);
      if (LogProb::FromLog(v).MeetsThreshold(log_tau)) sink(j, v);
    }
  }

 private:
  void SweepDistinct(size_t lo, size_t hi, const std::vector<int32_t>& lcp,
                     Span<const int64_t> pos, int64_t original_length);
  void SweepForest(size_t j_lo, size_t j_hi, size_t nshort,
                   const std::vector<int32_t>& long_depths,
                   std::vector<BlockMaxima>* short_out,
                   std::vector<BlockMaxima>* long_out) const;
};

}  // namespace pti

#endif  // PTI_CORE_REPORTING_CORE_H_
