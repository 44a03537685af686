#include "core/reporting_core.h"

#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/thread_pool.h"

namespace pti {

namespace {
// How many suffix-array entries ahead the fused sweeps prefetch the
// randomly addressed per-text-position arrays (c, remaining, pos).
constexpr size_t kSweepPrefetch = 16;
}  // namespace

Status CheckQueryArgs(const std::string& pattern, double tau,
                      LogProb log_tau_min, LogProb* log_tau) {
  if (pattern.empty()) {
    return Status::InvalidArgument("pattern must be non-empty");
  }
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  const LogProb lt = LogProb::FromLinear(tau);
  if (!lt.MeetsThreshold(log_tau_min)) {
    return Status::InvalidArgument(
        "tau is below the construction-time tau_min");
  }
  if (log_tau != nullptr) *log_tau = lt;
  return Status::OK();
}

Status BatchQueryError(size_t i, const Status& st) {
  const std::string msg =
      "batch query #" + std::to_string(i) + ": " + st.message();
  return st.code() == Status::Code::kNotSupported
             ? Status::NotSupported(msg)
             : Status::InvalidArgument(msg);
}

void ReportingCore::BuildWindowModel(const Text& text,
                                     Span<const double> logp) {
  const size_t n_text = text.size();
  std::vector<double> prefix(n_text + 1, 0.0);
  for (size_t k = 0; k < n_text; ++k) prefix[k + 1] = prefix[k] + logp[k];
  std::vector<int32_t> rem(n_text, 0);
  for (int64_t q = static_cast<int64_t>(n_text) - 1; q >= 0; --q) {
    rem[q] = text.IsSentinel(q) ? 0 : rem[q + 1] + 1;
  }
  AdoptWindowModel(text, VecOrView<double>(std::move(prefix)),
                   VecOrView<int32_t>(std::move(rem)));
}

void ReportingCore::AdoptWindowModel(const Text& text,
                                     VecOrView<double> prefix,
                                     VecOrView<int32_t> rem) {
  chars = text.chars();
  c = std::move(prefix);
  remaining = std::move(rem);
  max_remaining = 0;
  for (const int32_t r : remaining) max_remaining = std::max(max_remaining, r);
}

Status ReportingCore::ResolveCorrelations(
    Span<const int64_t> corr_positions, Span<const double> logp,
    const std::function<RuleSite(int64_t)>& site) {
  corr = corr_positions;
  adjust.clear();
  adjust.reserve(corr.size());
  // (position, character) -> rule of the string last seen; rebuilt when the
  // string changes, which corr's text order makes once per string.
  const UncertainString* rules_of = nullptr;
  std::unordered_map<int64_t, const CorrelationRule*> rules;
  for (const int64_t z : corr) {
    const RuleSite at = site(z);
    if (at.source != rules_of) {
      rules.clear();
      for (const CorrelationRule& r : at.source->correlations()) {
        rules[r.pos * 256 + r.ch] = &r;
      }
      rules_of = at.source;
    }
    const auto it = rules.find(at.pos * 256 + chars[z]);
    if (it == rules.end()) {
      return Status::Corruption(
          "correlated text position has no matching rule");
    }
    const CorrelationRule& rule = *it->second;
    const auto adjustment = [stored = logp[z]](double p) {
      return (p <= 0.0 ? kNegInf : std::log(p)) - stored;
    };
    const double dep = at.source->BaseProb(rule.dep_pos, rule.dep_ch);
    CorrelationAdjust a;
    a.dep_offset = rule.dep_pos - at.pos;
    a.dep_ch = rule.dep_ch;
    a.present = adjustment(rule.prob_if_present);
    a.absent = adjustment(rule.prob_if_absent);
    a.marginal = adjustment(dep * rule.prob_if_present +
                            (1.0 - dep) * rule.prob_if_absent);
    adjust.push_back(a);
  }
  return Status::OK();
}

void ReportingCore::ComputeK(int32_t max_short_depth) {
  int32_t k;
  if (max_short_depth > 0) {
    k = max_short_depth;
  } else {
    k = 1;
    while ((size_t{1} << k) < std::max<size_t>(N(), 2)) ++k;
  }
  K = std::max(1, std::min<int32_t>(k, std::max(max_remaining, 1)));
}

std::vector<int32_t> ReportingCore::Pow2Depths() const {
  std::vector<int32_t> depths;
  for (int64_t d = K; d <= max_remaining; d *= 2) {
    depths.push_back(static_cast<int32_t>(d));
  }
  return depths;
}

void ReportingCore::BuildDistinctActive(const std::vector<int32_t>& lcp,
                                        Span<const int64_t> pos,
                                        int64_t original_length,
                                        ThreadPool* pool) {
  // One sweep per contiguous, near-equal depth group, one group per pool
  // thread. A depth's bits depend on the depth alone, never on its group,
  // so every thread count yields the same bytes.
  active.assign(K, VecOrView<uint64_t>());
  const size_t depths = static_cast<size_t>(K);
  const size_t groups =
      pool == nullptr ? 1 : std::min(depths, pool->num_threads());
  const auto sweep = [&](size_t g) {
    SweepDistinct(g * depths / groups, (g + 1) * depths / groups, lcp, pos,
                  original_length);
  };
  if (groups > 1) {
    pool->ParallelFor(groups, sweep);
  } else {
    sweep(0);
  }
}

// Depths lo+1 .. hi in one pass over the suffix array. Each depth keeps its
// own partition stamp, advanced at every j where lcp[j] < d opens a new
// depth-d partition — all depths from lcp[j] + 1 up at once. `seen` holds
// one row of per-depth stamps per original position, so an entry touches a
// single row however many depths its window covers. A stamp only has to be
// unique per partition within its own depth, so any split of the depths
// into groups yields the same bits.
void ReportingCore::SweepDistinct(size_t lo, size_t hi,
                                  const std::vector<int32_t>& lcp,
                                  Span<const int64_t> pos,
                                  int64_t original_length) {
  const size_t n_text = N();
  const size_t width = hi - lo;
  if (width == 0) return;
  const int64_t first_depth = static_cast<int64_t>(lo) + 1;
  std::vector<std::vector<uint64_t>> bits(
      width, std::vector<uint64_t>((n_text + 63) / 64, 0));
  std::vector<int32_t> stamp(width, 0);
  std::vector<int32_t> seen(
      static_cast<size_t>(std::max<int64_t>(original_length, 1)) * width, -1);
  const int32_t* sa_of = sa.data();
  const int32_t* rem_of = remaining.data();
  const int64_t* pos_of = pos.data();
  for (size_t j = 0; j < n_text; ++j) {
    // The seen row is addressed through pos[q], so pos runs two prefetch
    // distances ahead and the row one.
    if (j + 2 * kSweepPrefetch < n_text) {
      const int32_t ahead = sa_of[j + 2 * kSweepPrefetch];
      __builtin_prefetch(rem_of + ahead);
      __builtin_prefetch(pos_of + ahead);
    }
    if (j + kSweepPrefetch < n_text) {
      const int64_t ahead_pos = pos_of[sa_of[j + kSweepPrefetch]];
      if (ahead_pos >= 0) {
        __builtin_prefetch(&seen[static_cast<size_t>(ahead_pos) * width]);
      }
    }
    // Depth first_depth + k opens a partition iff lcp[j] < first_depth + k.
    const int64_t opened =
        j == 0 ? 0 : std::max<int64_t>(lcp[j] - first_depth + 1, 0);
    for (size_t k = static_cast<size_t>(opened); k < width; ++k) ++stamp[k];
    const int64_t q = sa_of[j];
    const int64_t live =
        std::min<int64_t>(static_cast<int64_t>(rem_of[q]) - first_depth + 1,
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

// Fills the block maxima of the short depths 1 .. nshort (block 64, masked
// by the active bit) and of the long levels of `long_depths` (block =
// depth) over the suffix-array entries [j_lo, j_hi), in one pass: each entry
// loads SA[j], remaining[q] and c[q] once and evaluates each level's value
// at most once. A level whose window leaves the factor (or whose active bit
// is clear) is -inf, which only matters as its block's first candidate.
// j_lo must start a block of every level, and j_hi end one (or be N), so
// disjoint ranges fill disjoint blocks; the maxima equal BlockRmq's own
// block scans over ActiveFn/RawFn level by level.
void ReportingCore::SweepForest(size_t j_lo, size_t j_hi, size_t nshort,
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
  const int32_t* sa_of = sa.data();
  const int32_t* rem_of = remaining.data();
  const double* cp = c.data();
  for (size_t j = j_lo; j < j_hi; ++j) {
    if (j + kSweepPrefetch < j_hi) {
      const int32_t ahead = sa_of[j + kSweepPrefetch];
      __builtin_prefetch(rem_of + ahead);
      __builtin_prefetch(cp + ahead);
    }
    const int64_t q = sa_of[j];
    const int32_t rem = rem_of[q];
    const double cq = cp[q];
    const size_t corr_k = FirstCorr(q);
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
      const double v =
          InFactorValue(q, cq, static_cast<int32_t>(t) + 1, corr_k);
      if (start || v > short_best[t].value) short_best[t] = {j, v};
    }
    if ((j & 63) == 63 || last) {
      for (size_t t = 0; t < nshort; ++t) {
        (*short_out)[t].arg[j >> 6] = static_cast<uint32_t>(short_best[t].pos);
        (*short_out)[t].value[j >> 6] = short_best[t].value;
      }
    }

    for (size_t t = 0; t < nlong; ++t) {
      const int32_t depth = long_depths[t];
      const bool first = long_off[t] == 0;
      if (first) long_best[t] = {j, kNegInf};
      if (rem >= depth) {
        const double v = InFactorValue(q, cq, depth, corr_k);
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

// Every block-engine level — the K short depths (block 64, active-masked)
// unless another engine was asked for, and the long levels (block = depth)
// — takes its block maxima from one fused sweep over the suffix array. A
// multi-thread pool cuts the sweep into contiguous suffix-array chunks whose
// bounds start a block of every level, so each chunk fills its own blocks
// of all levels and every thread count yields the same tables. Short depths
// of a non-block engine are built one MakeRmq per depth.
void ReportingCore::BuildForest(RmqEngineKind engine,
                                const std::vector<int32_t>& long_depths,
                                ThreadPool* pool) {
  const size_t n_text = N();
  short_rmq.clear();
  short_rmq.resize(K);
  const size_t nshort =
      engine == RmqEngineKind::kBlock ? static_cast<size_t>(K) : 0;
  const auto sized = [n_text](size_t block) {
    BlockMaxima m;
    m.arg.resize((n_text + block - 1) / block);
    m.value.resize(m.arg.size());
    return m;
  };
  std::vector<BlockMaxima> short_maxima(nshort, sized(64));
  std::vector<BlockMaxima> long_maxima;
  size_t align = 64;  // a multiple of every level's block size
  for (const int32_t d : long_depths) {
    long_maxima.push_back(sized(static_cast<size_t>(d)));
    align = std::lcm(align, static_cast<size_t>(d));
  }
  const size_t units = (n_text + align - 1) / align;
  const size_t threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t chunks = std::max<size_t>(1, std::min(units, threads));
  const auto sweep = [&](size_t g) {
    const size_t lo = std::min(n_text, g * units / chunks * align);
    const size_t hi = std::min(n_text, (g + 1) * units / chunks * align);
    SweepForest(lo, hi, nshort, long_depths, &short_maxima, &long_maxima);
  };
  if (chunks > 1) {
    pool->ParallelFor(chunks, sweep);
  } else {
    sweep(0);
  }
  for (size_t t = 0; t < nshort; ++t) {
    const int32_t i = static_cast<int32_t>(t) + 1;
    short_rmq[t] =
        MakeBlockRmq(ActiveFn{this, i}, n_text, 64, std::move(short_maxima[t]));
  }
  long_levels.clear();
  for (size_t t = 0; t < long_depths.size(); ++t) {
    Level level;
    level.depth = long_depths[t];
    level.rmq = MakeBlockRmq(RawFn{this, level.depth}, n_text,
                             static_cast<size_t>(level.depth),
                             std::move(long_maxima[t]));
    long_levels.push_back(std::move(level));
  }
  if (nshort == 0) {
    const auto build = [&](size_t t) {
      const int32_t i = static_cast<int32_t>(t) + 1;
      short_rmq[t] = MakeRmq(engine, ActiveFn{this, i}, n_text);
    };
    if (pool != nullptr) {
      pool->ParallelFor(static_cast<size_t>(K), build);
    } else {
      for (size_t t = 0; t < static_cast<size_t>(K); ++t) build(t);
    }
  }
}

void ReportingCore::SaveForest(Writer* w) const {
  w->PutU32(static_cast<uint32_t>(K));
  for (const auto& handle : short_rmq) handle->SaveTo(w);
  w->PutU32(static_cast<uint32_t>(long_levels.size()));
  for (const Level& level : long_levels) {
    w->PutU32(static_cast<uint32_t>(level.depth));
    level.rmq->SaveTo(w);
  }
}

Status ReportingCore::LoadForest(Reader* r,
                                 const std::vector<int32_t>& long_depths) {
  const size_t n_text = N();
  uint32_t nshort = 0;
  PTI_RETURN_IF_ERROR(r->GetU32(&nshort));
  if (nshort != static_cast<uint32_t>(K)) {
    return Status::Corruption("RMQ forest depth count mismatch");
  }
  short_rmq.clear();
  short_rmq.reserve(K);
  for (int32_t i = 1; i <= K; ++i) {
    std::unique_ptr<RmqHandle> handle;
    PTI_RETURN_IF_ERROR(LoadBlockRmq(r, ActiveFn{this, i}, n_text, &handle));
    short_rmq.push_back(std::move(handle));
  }
  uint32_t nlong = 0;
  PTI_RETURN_IF_ERROR(r->GetU32(&nlong));
  if (nlong != long_depths.size()) {
    return Status::Corruption("RMQ long-level count mismatch");
  }
  long_levels.clear();
  for (const int32_t expected : long_depths) {
    uint32_t depth = 0;
    PTI_RETURN_IF_ERROR(r->GetU32(&depth));
    if (depth != static_cast<uint32_t>(expected)) {
      return Status::Corruption("RMQ long-level depth mismatch");
    }
    Level level;
    level.depth = expected;
    PTI_RETURN_IF_ERROR(
        LoadBlockRmq(r, RawFn{this, level.depth}, n_text, &level.rmq));
    long_levels.push_back(std::move(level));
  }
  return Status::OK();
}

size_t ReportingCore::MemoryUsage() const {
  size_t bytes = c.OwnedBytes() + remaining.OwnedBytes() +
                 adjust.capacity() * sizeof(CorrelationAdjust);
  for (const auto& bits : active) bytes += bits.OwnedBytes();
  for (const auto& r : short_rmq) bytes += r->MemoryUsage();
  for (const Level& level : long_levels) bytes += level.rmq->MemoryUsage();
  return bytes;
}

}  // namespace pti
