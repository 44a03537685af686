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

#include "core/reporting_core.h"
#include "core/serde.h"
#include "succinct/fm_index.h"
#include "suffix/lcp.h"
#include "suffix/sais.h"
#include "suffix/suffix_tree.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace pti {

namespace {
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

  // Window model, active bitsets and RMQ forest over fs.text and sa_view.
  ReportingCore core;

  mutable std::mutex lazy_mu;
  mutable std::map<int32_t, std::unique_ptr<RmqHandle>> lazy_exact;

  size_t N() const { return fs.text.size(); }

  // The kPow2 level depths are a pure function of K and max_remaining; the
  // loader recomputes them to cross-check a persisted RMQ forest.
  std::vector<int32_t> LongLevelDepths() const {
    return options.blocking == BlockingMode::kPow2 ? core.Pow2Depths()
                                                   : std::vector<int32_t>();
  }

  Status ResolveCorrelations() {
    return core.ResolveCorrelations(
        fs.corr_positions.span(), fs.logp.span(),
        [this](int64_t z) { return RuleSite{&source, fs.pos[z]}; });
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

    core.sa = sa_view;
    {
      StageTimer t(TimingSlot(timings, &BuildTimings::derived_ms));
      core.BuildWindowModel(fs.text, fs.logp.span());
      PTI_RETURN_IF_ERROR(ResolveCorrelations());
      core.ComputeK(options.max_short_depth);
      core.BuildDistinctActive(*lcp, fs.pos.span(), fs.original_length, pool);
    }

    if (fm_thread.joinable()) fm_thread.join();
    {
      StageTimer t(TimingSlot(timings, &BuildTimings::rmq_ms));
      core.BuildForest(options.rmq_engine, LongLevelDepths(), pool);
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
    core.sa = sa_view;

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
    // remaining[] bounds every c[q + depth] access (WindowValue reads
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
    core.AdoptWindowModel(fs.text, VecOrView<double>::View(c_span),
                          VecOrView<int32_t>::View(rem_span));
    PTI_RETURN_IF_ERROR(ResolveCorrelations());
    core.ComputeK(options.max_short_depth);
    const int32_t K = core.K;

    Reader actv;
    PTI_RETURN_IF_ERROR(container.Section(serde::kTagActive, &actv));
    uint32_t depth_count = 0;
    PTI_RETURN_IF_ERROR(actv.GetU32(&depth_count));
    if (depth_count != static_cast<uint32_t>(K)) {
      return Status::Corruption("active bitset depth count mismatch");
    }
    core.active.assign(K, VecOrView<uint64_t>());
    for (int32_t i = 0; i < K; ++i) {
      Span<const uint64_t> bits;
      PTI_RETURN_IF_ERROR(actv.GetSpan(&bits));
      if (bits.size() != (n_text + 63) / 64) {
        return Status::Corruption("active bitset word count mismatch");
      }
      core.active[i] = VecOrView<uint64_t>::View(bits);
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

    if (options.rmq_engine == RmqEngineKind::kBlock &&
        container.Has(serde::kTagRmqBlocks)) {
      Reader rmqb;
      PTI_RETURN_IF_ERROR(container.Section(serde::kTagRmqBlocks, &rmqb));
      PTI_RETURN_IF_ERROR(core.LoadForest(&rmqb, LongLevelDepths()));
      PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(rmqb, "RMQ forest"));
    } else {
      // Non-block engines are not persisted; rebuild from the loaded views.
      core.BuildForest(options.rmq_engine, LongLevelDepths(), nullptr);
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
               .emplace(m, MakeRmq(RmqEngineKind::kBlock,
                                   ReportingCore::RawFn{&core, m}, N(),
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

  LogProb TauMin() const { return LogProb::FromLinear(fs.tau_min); }

  // A reported occurrence before linear-space conversion: original position
  // plus the exact log-probability the threshold test ran against. QueryBatch
  // needs the log value to re-filter one extraction per distinct tau with
  // the exact predicate Query uses.
  struct RawMatch {
    int64_t spos = 0;
    double logv = ReportingCore::kNegInf;
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

  static void SortBySpos(std::vector<RawMatch>* out) {
    std::sort(out->begin(), out->end(),
              [](const RawMatch& a, const RawMatch& b) {
                return a.spos < b.spos;
              });
  }

  // Appends the values kept in `best`, then sorts *out by position.
  static void FlushDedup(const std::unordered_map<int64_t, double>& best,
                         std::vector<RawMatch>* out) {
    out->reserve(out->size() + best.size());
    // pti-lint: allow(unordered-iteration-in-serde): spos keys are unique
    // and the sort below imposes a total order, so emit order cancels out.
    for (const auto& [spos, v] : best) out->push_back(RawMatch{spos, v});
    SortBySpos(out);
  }

  // Extracts the locus range [l, r] for pattern length m: Algorithm 4 over
  // the active short level (each position reported once), else the
  // long-pattern strategy with per-position dedup. Emits raw matches,
  // position-sorted.
  void Extract(int32_t m, int32_t l, int32_t r, LogProb log_tau,
               std::vector<RawMatch>* out) const {
    if (m <= core.K) {
      core.ExtractShort(m, l, r, log_tau, [&](size_t j, double v) {
        out->push_back(RawMatch{fs.pos[sa_view[j]], v});
      });
      SortBySpos(out);
    } else {
      std::unordered_map<int64_t, double> best;
      const auto keep = [&](size_t j, double v) {
        EmitDedup(&best, fs.pos[sa_view[j]], v);
      };
      if (options.blocking == BlockingMode::kScanOnly ||
          static_cast<size_t>(r - l + 1) <= options.scan_cutoff) {
        core.Scan(m, l, r, log_tau, keep);
      } else if (options.blocking == BlockingMode::kPaperExact) {
        core.Extract(*ExactLevel(m), /*masked=*/false, m, m, l, r, log_tau,
                     keep);
      } else {
        core.ExtractBlocked(m, l, r, log_tau, keep);
      }
      FlushDedup(best, out);
    }
  }

  static void ToMatches(const std::vector<RawMatch>& raw,
                        std::vector<Match>* out) {
    out->reserve(raw.size());
    for (const RawMatch& rm : raw) {
      out->push_back(Match{rm.spos, std::exp(rm.logv)});
    }
  }

  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const {
    out->clear();
    LogProb log_tau;
    PTI_RETURN_IF_ERROR(CheckQueryArgs(pattern, tau, TauMin(), &log_tau));
    const auto range = LocusRange(pattern);
    if (!range.has_value()) return Status::OK();
    std::vector<RawMatch> raw;
    Extract(static_cast<int32_t>(pattern.size()), range->first,
            range->second - 1, log_tau, &raw);
    ToMatches(raw, out);
    return Status::OK();
  }

  // Validates a whole batch up front (plus `extra` per query), computing
  // each query's log-space threshold exactly once.
  template <typename BatchQ, typename Extra>
  Status CheckBatch(const std::vector<BatchQ>& queries, Extra extra,
                    std::vector<LogProb>* log_taus) const {
    const LogProb lmin = TauMin();
    log_taus->resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      Status st = CheckQueryArgs(queries[i].pattern, queries[i].tau, lmin,
                                 &(*log_taus)[i]);
      if (st.ok()) st = extra(queries[i]);
      if (!st.ok()) return BatchQueryError(i, st);
    }
    return Status::OK();
  }

  // Answers a batch in `order`, where equal queries (by `same`) sit next to
  // each other smallest tau first: `extract(i, &raw)` runs once per group,
  // for its first member i at that member's threshold, and every member
  // keeps the raw matches clearing its own. MeetsThreshold is monotone in
  // tau, so the first member's extraction is a superset of each member's
  // result set.
  template <typename Same, typename ExtractFn>
  static void AnswerGroups(const std::vector<size_t>& order,
                           const std::vector<LogProb>& log_taus, Same same,
                           ExtractFn extract,
                           std::vector<std::vector<Match>>* out) {
    std::vector<RawMatch> raw;
    size_t g = 0;
    while (g < order.size()) {
      size_t h = g + 1;
      while (h < order.size() && same(order[g], order[h])) ++h;
      raw.clear();
      extract(order[g], &raw);
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
      g = h;
    }
  }

  Status QueryBatch(const std::vector<BatchQuery>& queries,
                    std::vector<std::vector<Match>>* out) const {
    // Resize without discarding the inner vectors: a caller reusing the
    // output across batches then pays no per-query allocations.
    out->resize(queries.size());
    for (auto& dst : *out) dst.clear();
    std::vector<LogProb> log_taus;
    PTI_RETURN_IF_ERROR(CheckBatch(
        queries, [](const BatchQuery&) { return Status::OK(); }, &log_taus));
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
    AnswerGroups(
        order, log_taus,
        [&queries](size_t a, size_t b) {
          return queries[a].pattern == queries[b].pattern;
        },
        [&](size_t i, std::vector<RawMatch>* raw) {
          const std::string& pattern = queries[i].pattern;
          const auto mapped = Text::MapPattern(pattern);
          const auto range = compact_mode ? fm_walker->Find(mapped)
                                          : tree_walker->Find(mapped);
          if (range.has_value()) {
            Extract(static_cast<int32_t>(pattern.size()), range->first,
                    range->second - 1, log_taus[i], raw);
          }
        },
        out);
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
      FlushDedup(best, out);
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
    LogProb log_tau;
    PTI_RETURN_IF_ERROR(CheckQueryArgs(pattern, tau, TauMin(), &log_tau));
    PTI_RETURN_IF_ERROR(CheckFuzzyParams(params));
    // k = 0 is the exact query; delegating keeps it bit-identical.
    if (params.k == 0) return Query(pattern, tau, out);
    std::vector<RawMatch> raw;
    FuzzyExtract(pattern, params, log_tau, &raw);
    ToMatches(raw, out);
    return Status::OK();
  }

  Status QueryFuzzyBatch(const std::vector<FuzzyBatchQuery>& queries,
                         std::vector<std::vector<Match>>* out) const {
    out->resize(queries.size());
    for (auto& dst : *out) dst.clear();
    std::vector<LogProb> log_taus;
    PTI_RETURN_IF_ERROR(CheckBatch(
        queries,
        [](const FuzzyBatchQuery& q) { return CheckFuzzyParams(q.params); },
        &log_taus));
    // Group by (pattern, metric, k): the fuzzy mirror of QueryBatch.
    const auto same_key = [&queries](size_t a, size_t b) {
      const FuzzyBatchQuery& qa = queries[a];
      const FuzzyBatchQuery& qb = queries[b];
      return qa.pattern == qb.pattern && qa.params.metric == qb.params.metric &&
             qa.params.k == qb.params.k;
    };
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
    AnswerGroups(
        order, log_taus, same_key,
        [&](size_t i, std::vector<RawMatch>* raw) {
          const FuzzyBatchQuery& lead = queries[i];
          if (lead.params.k > 0) {
            FuzzyExtract(lead.pattern, lead.params, log_taus[i], raw);
            return;
          }
          // k = 0 stays on the exact path, bit-identical with Query.
          const auto range = LocusRange(lead.pattern);
          if (range.has_value()) {
            Extract(static_cast<int32_t>(lead.pattern.size()), range->first,
                    range->second - 1, log_taus[i], raw);
          }
        },
        out);
    return Status::OK();
  }

  Status QueryTopK(const std::string& pattern, double tau, size_t k,
                   std::vector<Match>* out) const {
    out->clear();
    LogProb log_tau;
    PTI_RETURN_IF_ERROR(CheckQueryArgs(pattern, tau, TauMin(), &log_tau));
    if (k == 0) return Status::OK();
    const auto range = LocusRange(pattern);
    if (!range.has_value()) return Status::OK();
    const int32_t m = static_cast<int32_t>(pattern.size());
    if (m <= core.K) {
      // Heap of (value, argmax, subrange): repeatedly take the global best
      // and split its range — O((m + k) log k)-ish, independent of occ.
      struct Entry {
        double v;
        int32_t pos, l, r;
        bool operator<(const Entry& o) const { return v < o.v; }
      };
      const RmqHandle* rmq = core.short_rmq[m - 1].get();
      std::priority_queue<Entry> heap;
      auto push = [&](int32_t lo, int32_t hi) {
        if (lo > hi) return;
        const size_t pos = rmq->ArgMax(lo, hi);
        const double v = core.ActiveValue(m, pos);
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
  s.short_depth_limit = impl_->core.K;
  s.num_tree_nodes = static_cast<size_t>(impl_->st.num_nodes());
  return s;
}

size_t SubstringIndex::MemoryUsage() const {
  const Impl& i = *impl_;
  size_t bytes = i.source.MemoryUsage() + i.fs.MemoryUsage() +
                 i.st.MemoryUsage() + i.core.MemoryUsage() +
                 i.sa_storage.OwnedBytes();
  if (i.fm) bytes += i.fm->MemoryUsage();
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
    derv.PutSpan(i.core.c.span());
    derv.PutSpan(i.core.remaining.span());
    Writer& actv = cw.AddSection(serde::kTagActive);
    actv.PutU32(static_cast<uint32_t>(i.core.K));
    for (const auto& bits : i.core.active) actv.PutSpan(bits.span());
    Writer& fmix = cw.AddSection(serde::kTagFmIndex);
    i.fm->SaveTo(&fmix);
    if (i.options.rmq_engine == RmqEngineKind::kBlock) {
      // Only the block engine round-trips (the Fischer-Heun and sparse-
      // table engines rebuild cheaply relative to their size on disk).
      i.core.SaveForest(&cw.AddSection(serde::kTagRmqBlocks));
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
