#include "engine/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "core/reporting_core.h"
#include "core/serde.h"
#include "util/log_prob.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace pti {

namespace {

// Upper bound on the shard count, enforced symmetrically: Build clamps to
// it and Load rejects manifests above it (bounding hostile section payloads
// before any allocation).
constexpr uint32_t kMaxPersistedShards = 1u << 16;

// Runs fn(k) for k in [0, count), on a transient pool when both the task
// count and the thread budget allow parallelism.
void RunShardTasks(size_t count, int32_t num_threads,
                   const std::function<void(size_t)>& fn) {
  if (count <= 1 || ResolveThreadCount(num_threads) <= 1) {
    for (size_t k = 0; k < count; ++k) fn(k);
    return;
  }
  ThreadPool pool(num_threads);
  pool.ParallelFor(count, fn);
}

// Extracts the slice [begin, end) of `s` as a standalone UncertainString,
// re-basing correlation rules. A rule whose dependency position falls
// outside the slice can only ever resolve via §3.3 case 2 — the dependency
// is outside every window the shard can match — so it is rewritten as a
// constant rule (pr+ == pr- == the case-2 marginal) anchored on a
// neighbouring in-slice position; the resolved value is identical to what
// the monolithic index computes for those windows.
Status MakeSlice(const UncertainString& s, int64_t begin, int64_t end,
                 UncertainString* out) {
  *out = UncertainString();
  for (int64_t p = begin; p < end; ++p) {
    out->AddPosition(s.options(p));
  }
  for (const CorrelationRule& rule : s.correlations()) {
    if (rule.pos < begin || rule.pos >= end) continue;
    CorrelationRule local = rule;
    local.pos = rule.pos - begin;
    if (rule.dep_pos >= begin && rule.dep_pos < end) {
      local.dep_pos = rule.dep_pos - begin;
    } else {
      const double dep = s.BaseProb(rule.dep_pos, rule.dep_ch);
      const double marginal = dep * rule.prob_if_present +
                              (1.0 - dep) * rule.prob_if_absent;
      const int64_t anchor = local.pos > 0 ? local.pos - 1 : local.pos + 1;
      if (anchor >= end - begin) {
        return Status::InvalidArgument(
            "shard slice too small to re-anchor a correlation rule");
      }
      uint8_t anchor_ch = 0;
      bool found = false;
      for (const CharOption& opt : s.options(begin + anchor)) {
        if (opt.prob > 0.0) {
          anchor_ch = opt.ch;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "no anchor character for an out-of-shard correlation rule");
      }
      local.dep_pos = anchor;
      local.dep_ch = anchor_ch;
      local.prob_if_present = marginal;
      local.prob_if_absent = marginal;
    }
    PTI_RETURN_IF_ERROR(out->AddCorrelation(local));
  }
  return Status::OK();
}

constexpr FuzzyParams kExact{0, FuzzyMetric::kMismatch};

}  // namespace

struct ShardedIndex::Impl {
  ShardedIndexOptions options;  // num_shards / overlap / num_threads resolved
  int64_t original_length = 0;
  std::vector<int64_t> begins;  // begins[k] = first owned position of shard k
  std::vector<SubstringIndex> shards;

  // Serving-path worker pool, created on the first parallel batch — a
  // transient pool per QueryBatch would pay thread spawn/join per call.
  mutable std::mutex pool_mu;
  mutable std::unique_ptr<ThreadPool> pool;

  ThreadPool* GetPool() const {
    std::lock_guard<std::mutex> lock(pool_mu);
    if (pool == nullptr) {
      pool = std::make_unique<ThreadPool>(options.num_threads);
    }
    return pool.get();
  }

  int32_t num_shards() const { return static_cast<int32_t>(shards.size()); }

  int64_t owned_end(int32_t k) const {
    return k + 1 < num_shards() ? begins[k + 1] : original_length;
  }

  int64_t slice_end(int32_t k) const {
    return std::min(original_length,
                    owned_end(k) + static_cast<int64_t>(options.overlap));
  }

  // Re-bases one shard's matches to global coordinates, dropping overlap-
  // tail matches (owned — and reported — by a later shard).
  void MergeShardMatches(int32_t k, const std::vector<Match>& local,
                         std::vector<Match>* out) const {
    const int64_t owned = owned_end(k) - begins[k];
    for (const Match& m : local) {
      if (m.position >= owned) continue;
      out->push_back(Match{m.position + begins[k], m.probability});
    }
  }

  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const {
    out->clear();
    bool cannot_match = false;
    PTI_RETURN_IF_ERROR(CheckQuery(pattern, tau, kExact, &cannot_match));
    if (cannot_match) return Status::OK();
    std::vector<Match> local;
    for (int32_t k = 0; k < num_shards(); ++k) {
      PTI_RETURN_IF_ERROR(shards[k].Query(pattern, tau, &local));
      MergeShardMatches(k, local, out);
    }
    return Status::OK();
  }

  // SubstringIndex's query validation (CheckQueryArgs, CheckFuzzyParams)
  // plus the shard-specific pattern-length rules; an exact query is a fuzzy
  // one with k = 0. Sets *cannot_match when the pattern is longer than the
  // string — a valid query with a necessarily empty answer, exactly as the
  // monolithic index treats it. The slice layout guarantees windows of up
  // to overlap+1 characters starting at an owned position stay in-slice;
  // under kEdit an admissible variant window can be params.k longer than
  // the pattern (and max(1, m - k) shorter, which is what decides
  // cannot_match), so the supported pattern length shrinks by k.
  Status CheckQuery(const std::string& pattern, double tau,
                    const FuzzyParams& params, bool* cannot_match) const {
    *cannot_match = false;
    PTI_RETURN_IF_ERROR(CheckQueryArgs(
        pattern, tau, LogProb::FromLinear(options.index.transform.tau_min)));
    PTI_RETURN_IF_ERROR(CheckFuzzyParams(params));
    const int64_t m = static_cast<int64_t>(pattern.size());
    const bool edit = params.metric == FuzzyMetric::kEdit && params.k > 0;
    const int64_t min_len = edit ? std::max<int64_t>(1, m - params.k) : m;
    const int64_t max_len = edit ? m + params.k : m;
    if (min_len > original_length) {
      *cannot_match = true;
      return Status::OK();
    }
    if (max_len > static_cast<int64_t>(options.overlap) + 1) {
      return Status::NotSupported(
          "pattern length " + std::to_string(m) +
          (edit ? " widened by k=" + std::to_string(params.k) : "") +
          " exceeds the shard overlap limit of " +
          std::to_string(options.overlap + 1) +
          "; rebuild the sharded index with a larger overlap");
    }
    return Status::OK();
  }

  Status QueryFuzzy(const std::string& pattern, double tau,
                    const FuzzyParams& params, std::vector<Match>* out) const {
    out->clear();
    bool cannot_match = false;
    PTI_RETURN_IF_ERROR(CheckQuery(pattern, tau, params, &cannot_match));
    if (cannot_match) return Status::OK();
    std::vector<Match> local;
    for (int32_t k = 0; k < num_shards(); ++k) {
      PTI_RETURN_IF_ERROR(shards[k].QueryFuzzy(pattern, tau, params, &local));
      MergeShardMatches(k, local, out);
    }
    return Status::OK();
  }

  Status QueryFuzzyBatch(const std::vector<FuzzyBatchQuery>& queries,
                         std::vector<std::vector<Match>>* out) const {
    out->clear();
    out->resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      bool cannot_match = false;
      const Status st = CheckQuery(queries[i].pattern, queries[i].tau,
                                   queries[i].params, &cannot_match);
      if (!st.ok()) return BatchQueryError(i, st);
    }
    const size_t n_shards = static_cast<size_t>(num_shards());
    std::vector<std::vector<std::vector<Match>>> per_shard(n_shards);
    std::vector<Status> statuses(n_shards);
    const auto run_shard = [&](size_t k) {
      statuses[k] = shards[k].QueryFuzzyBatch(queries, &per_shard[k]);
    };
    if (n_shards > 1 && options.num_threads > 1) {
      GetPool()->ParallelFor(n_shards, run_shard);
    } else {
      for (size_t k = 0; k < n_shards; ++k) run_shard(k);
    }
    for (const Status& st : statuses) PTI_RETURN_IF_ERROR(st);
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t k = 0; k < n_shards; ++k) {
        MergeShardMatches(static_cast<int32_t>(k), per_shard[k][i],
                          &(*out)[i]);
      }
    }
    return Status::OK();
  }

  Status QueryBatch(const std::vector<BatchQuery>& queries,
                    std::vector<std::vector<Match>>* out) const {
    out->clear();
    out->resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      bool cannot_match = false;
      const Status st = CheckQuery(queries[i].pattern, queries[i].tau, kExact,
                                   &cannot_match);
      if (!st.ok()) return BatchQueryError(i, st);
    }
    const size_t n_shards = static_cast<size_t>(num_shards());
    std::vector<std::vector<std::vector<Match>>> per_shard(n_shards);
    std::vector<Status> statuses(n_shards);
    const auto run_shard = [&](size_t k) {
      statuses[k] = shards[k].QueryBatch(queries, &per_shard[k]);
    };
    if (n_shards > 1 && options.num_threads > 1) {
      GetPool()->ParallelFor(n_shards, run_shard);
    } else {
      for (size_t k = 0; k < n_shards; ++k) run_shard(k);
    }
    for (const Status& st : statuses) PTI_RETURN_IF_ERROR(st);
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t k = 0; k < n_shards; ++k) {
        MergeShardMatches(static_cast<int32_t>(k), per_shard[k][i],
                          &(*out)[i]);
      }
    }
    return Status::OK();
  }
};

ShardedIndex::ShardedIndex() = default;
ShardedIndex::~ShardedIndex() = default;
ShardedIndex::ShardedIndex(ShardedIndex&&) noexcept = default;
ShardedIndex& ShardedIndex::operator=(ShardedIndex&&) noexcept = default;

StatusOr<ShardedIndex> ShardedIndex::Build(const UncertainString& s,
                                           const ShardedIndexOptions& options) {
  PTI_RETURN_IF_ERROR(s.Validate());
  const int64_t n = s.size();

  ShardedIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& impl = *index.impl_;
  impl.options = options;
  impl.original_length = n;

  // Resolve the layout: every shard must own >= 2 positions so out-of-shard
  // correlation rules always have an in-slice anchor position, and the count
  // must stay loadable (Load rejects manifests above kMaxPersistedShards).
  int32_t num_shards = options.num_shards > 0
                           ? options.num_shards
                           : ShardedIndexOptions::kDefaultNumShards;
  num_shards = std::max<int32_t>(
      1, std::min<int64_t>(
             std::min<int64_t>(num_shards, kMaxPersistedShards),
             std::max<int64_t>(1, n / 2)));
  int64_t overlap = options.overlap > 0
                        ? options.overlap
                        : ShardedIndexOptions::kDefaultOverlap;
  overlap = std::max<int64_t>(0, std::min(overlap, std::max<int64_t>(0, n - 1)));
  impl.options.num_shards = num_shards;
  impl.options.overlap = static_cast<int32_t>(overlap);
  impl.options.num_threads = ResolveThreadCount(options.num_threads);

  impl.begins.resize(num_shards);
  for (int32_t k = 0; k < num_shards; ++k) {
    impl.begins[k] = k * n / num_shards;
  }
  impl.shards.resize(num_shards);

  // Split the thread budget: `outer` shards build concurrently, each with
  // `inner` workers for its intra-shard pipeline, so the product never
  // exceeds the resolved budget.
  const ThreadBudget budget = SplitThreadBudget(
      options.num_threads, static_cast<size_t>(num_shards));
  std::vector<Status> statuses(num_shards);
  std::vector<BuildTimings> shard_timings(
      options.build_timings != nullptr ? num_shards : 0);
  RunShardTasks(static_cast<size_t>(num_shards), budget.outer,
                [&](size_t k) {
                  const int32_t kk = static_cast<int32_t>(k);
                  UncertainString slice;
                  Status st = MakeSlice(s, impl.begins[kk], impl.slice_end(kk),
                                        &slice);
                  if (st.ok()) {
                    SubstringIndex::BuildOptions build;
                    build.threads = budget.inner;
                    if (!shard_timings.empty()) {
                      build.timings = &shard_timings[k];
                    }
                    auto shard =
                        SubstringIndex::Build(slice, options.index, build);
                    if (shard.ok()) {
                      impl.shards[kk] = std::move(shard).value();
                    } else {
                      st = shard.status();
                    }
                  }
                  statuses[k] = st;
                });
  for (const Status& st : statuses) PTI_RETURN_IF_ERROR(st);
  for (const BuildTimings& t : shard_timings) {
    options.build_timings->transform_ms += t.transform_ms;
    options.build_timings->sa_ms += t.sa_ms;
    options.build_timings->lcp_ms += t.lcp_ms;
    options.build_timings->fm_ms += t.fm_ms;
    options.build_timings->derived_ms += t.derived_ms;
    options.build_timings->rmq_ms += t.rmq_ms;
  }
  return index;
}

Status ShardedIndex::Query(const std::string& pattern, double tau,
                           std::vector<Match>* out) const {
  return impl_->Query(pattern, tau, out);
}

Status ShardedIndex::QueryBatch(const std::vector<BatchQuery>& queries,
                                std::vector<std::vector<Match>>* out) const {
  return impl_->QueryBatch(queries, out);
}

Status ShardedIndex::QueryFuzzy(const std::string& pattern, double tau,
                                const FuzzyParams& params,
                                std::vector<Match>* out) const {
  return impl_->QueryFuzzy(pattern, tau, params, out);
}

Status ShardedIndex::QueryFuzzyBatch(
    const std::vector<FuzzyBatchQuery>& queries,
    std::vector<std::vector<Match>>* out) const {
  return impl_->QueryFuzzyBatch(queries, out);
}

Status ShardedIndex::Count(const std::string& pattern, double tau,
                           size_t* count) const {
  std::vector<Match> matches;
  PTI_RETURN_IF_ERROR(impl_->Query(pattern, tau, &matches));
  *count = matches.size();
  return Status::OK();
}

ShardedIndex::Stats ShardedIndex::stats() const {
  Stats s;
  s.original_length = impl_->original_length;
  s.num_shards = impl_->num_shards();
  s.overlap = impl_->options.overlap;
  for (const SubstringIndex& shard : impl_->shards) {
    const auto ss = shard.stats();
    s.num_factors += ss.num_factors;
    s.transformed_length += ss.transformed_length;
  }
  return s;
}

size_t ShardedIndex::MemoryUsage() const {
  size_t bytes = impl_->begins.capacity() * sizeof(int64_t);
  for (const SubstringIndex& shard : impl_->shards) {
    bytes += shard.MemoryUsage();
  }
  return bytes;
}

const ShardedIndexOptions& ShardedIndex::options() const {
  return impl_->options;
}

int32_t ShardedIndex::num_shards() const { return impl_->num_shards(); }

int64_t ShardedIndex::shard_begin(int32_t k) const { return impl_->begins[k]; }

const SubstringIndex& ShardedIndex::shard(int32_t k) const {
  return impl_->shards[k];
}

Status ShardedIndex::Save(std::string* out) const {
  return Save(out, serde::kContainerVersion);
}

Status ShardedIndex::Save(std::string* out, uint32_t version) const {
  if (version < serde::kInterchangeVersion ||
      version > serde::kContainerVersion) {
    return Status::InvalidArgument("unsupported container version");
  }
  const Impl& impl = *impl_;
  serde::ContainerWriter cw(serde::IndexKind::kSharded, version);
  Writer& manifest = cw.AddSection(serde::kTagShardManifest);
  manifest.PutU32(static_cast<uint32_t>(impl.num_shards()));
  manifest.PutU32(static_cast<uint32_t>(impl.options.overlap));
  manifest.PutI64(impl.original_length);
  for (const int64_t b : impl.begins) manifest.PutI64(b);
  // Shards serialize concurrently under the same budget split as Build and
  // Load (a shard's save is serial, so only the outer share is used). Each
  // shard's bytes depend only on the shard, so the container does not
  // depend on the schedule. Finish copies every blob once, straight into
  // the outer container; in a v3 container each lands 8-byte aligned, so a
  // nested v3 shard's sections are absolutely aligned too and its Load
  // stays zero-copy.
  const size_t num_shards = impl.shards.size();
  std::vector<std::string> blobs(num_shards);
  std::vector<Status> statuses(num_shards);
  const ThreadBudget budget =
      SplitThreadBudget(impl.options.num_threads, num_shards);
  RunShardTasks(num_shards, budget.outer, [&](size_t k) {
    statuses[k] = impl.shards[k].Save(&blobs[k], version);
  });
  for (const Status& st : statuses) PTI_RETURN_IF_ERROR(st);
  cw.AddStringsSection(serde::kTagShardBlobs, std::move(blobs));
  *out = std::move(cw).Finish();
  return Status::OK();
}

StatusOr<ShardedIndex> ShardedIndex::Load(std::string_view data,
                                          int32_t num_threads,
                                          serde::BlobPtr backing) {
  // Same ownership-by-construction contract as SubstringIndex::Load: a v3
  // container's shards keep views into `data`, so pin the caller's Blob or
  // make a private copy up front. The one Blob backs every shard.
  PTI_ASSIGN_OR_RETURN(const uint32_t version, serde::PeekVersion(data));
  if (version >= 3 && backing == nullptr) {
    backing = std::make_shared<const serde::Blob>(std::string(data));
    data = backing->view();
  }
  serde::ContainerReader container;
  PTI_RETURN_IF_ERROR(serde::ContainerReader::Open(
      data, serde::IndexKind::kSharded, &container));
  ShardedIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& impl = *index.impl_;
  impl.options.num_threads = ResolveThreadCount(num_threads);

  Reader manifest;
  PTI_RETURN_IF_ERROR(
      container.Section(serde::kTagShardManifest, &manifest));
  uint32_t num_shards = 0, overlap = 0;
  PTI_RETURN_IF_ERROR(manifest.GetU32(&num_shards));
  if (num_shards == 0 || num_shards > kMaxPersistedShards) {
    return Status::Corruption("unreasonable shard count");
  }
  PTI_RETURN_IF_ERROR(manifest.GetU32(&overlap));
  if (overlap > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
    return Status::Corruption("shard overlap out of range");
  }
  impl.options.num_shards = static_cast<int32_t>(num_shards);
  impl.options.overlap = static_cast<int32_t>(overlap);
  PTI_RETURN_IF_ERROR(manifest.GetI64(&impl.original_length));
  if (impl.original_length < 0) {
    return Status::Corruption("negative original length in shard manifest");
  }
  impl.begins.resize(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    PTI_RETURN_IF_ERROR(manifest.GetI64(&impl.begins[k]));
  }
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(manifest, "shard manifest"));
  if (impl.begins[0] != 0) {
    return Status::Corruption("first shard must begin at position 0");
  }
  for (uint32_t k = 1; k < num_shards; ++k) {
    if (impl.begins[k] <= impl.begins[k - 1]) {
      return Status::Corruption("shard begins not strictly increasing");
    }
  }
  if (impl.original_length == 0) {
    if (num_shards != 1) {
      return Status::Corruption("empty string must have exactly one shard");
    }
  } else if (impl.begins.back() >= impl.original_length) {
    return Status::Corruption("shard begins past the end of the string");
  }

  Reader blobs;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagShardBlobs, &blobs));
  // Views into the container, not copies: v2 shard loads decode fully
  // while `data` is alive, v3 shard loads pin `backing`.
  std::vector<std::string_view> shard_blobs(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    PTI_RETURN_IF_ERROR(blobs.GetStringView(&shard_blobs[k]));
  }
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(blobs, "shard blobs"));

  impl.shards.resize(num_shards);
  std::vector<Status> statuses(num_shards);
  // Same budget split as Build: v2 and tree-mode shard blobs rebuild their
  // derived structures on load, so nested parallelism matters here too.
  const ThreadBudget budget = SplitThreadBudget(num_threads, num_shards);
  RunShardTasks(num_shards, budget.outer, [&](size_t k) {
    SubstringIndex::BuildOptions build;
    build.threads = budget.inner;
    auto shard = SubstringIndex::Load(shard_blobs[k], backing, build);
    if (shard.ok()) {
      impl.shards[k] = std::move(shard).value();
      statuses[k] = Status::OK();
    } else {
      statuses[k] = shard.status();
    }
  });
  for (const Status& st : statuses) PTI_RETURN_IF_ERROR(st);

  // Cross-validate the manifest against the decoded shards: slice sizes must
  // match the layout and every shard must share one tau_min (CheckQuery
  // validates against it once, globally).
  for (uint32_t k = 0; k < num_shards; ++k) {
    const int32_t kk = static_cast<int32_t>(k);
    const int64_t want = impl.slice_end(kk) - impl.begins[kk];
    if (impl.shards[k].source().size() != want) {
      return Status::Corruption("shard slice size mismatches manifest");
    }
    if (impl.shards[k].options().transform.tau_min !=
        impl.shards[0].options().transform.tau_min) {
      return Status::Corruption("shards disagree on tau_min");
    }
  }
  impl.options.index = impl.shards[0].options();
  return index;
}

}  // namespace pti
