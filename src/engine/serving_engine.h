// ServingEngine: the asynchronous request-queue front end over the query
// engine — one process serving many concurrent clients (ROADMAP: async
// serving front end + shard-level caching + admission control).
//
// Clients call Submit(Request) — Request (engine/request.h) carries
// (pattern, tau, metric, k, priority) and defaults to an exact interactive
// query — and get a std::future<Result>; worker threads (from a
// util/thread_pool.h pool owned by the engine) drain the pending lanes in
// micro-batches and answer through the batched query path, so concurrent
// traffic recovers the same locus-descent / backward-search sharing that
// SubstringIndex::QueryBatch gives a single caller:
//
//   clients ──Submit(Request)──▶ admission stripe (hash of key)
//      │            │  in flight? ──▶ attach to the existing execution
//      │            ▼                                  ┌──────────────┐
//      │   interactive lane ──┐ bounded; full ⇒ shed   │ worker:      │
//      │   batch lane ────────┤ with Unavailable       │ interactive  │
//      │                      └──coalesce (≤max_batch,─▶ first, then  │
//      ▼                         ≤linger_us wait)      │ batch        │
//   future<Result> ◀── fulfil ◀── LRU cache ◀──────────┴── QueryBatch ┘
//
// Admission control (the part PR 5 left to the caller) is now built in:
//   * the pending queue is bounded per lane (ServingOptions::max_pending);
//     a full lane load-sheds — the future resolves immediately with
//     Status::Unavailable instead of letting the backlog grow without
//     bound;
//   * two priority lanes: workers always drain Priority::kInteractive
//     before Priority::kBatch, so under overload batch traffic sheds and
//     interactive latency stays bounded;
//   * the admission path (in-flight dedup + enqueue) is lock-striped by
//     request key, so N clients submitting distinct keys do not serialize
//     on one engine-wide mutex.
//
// Three layers keep repeated work off the index: a sharded, byte-budgeted
// LRU cache on the request key holds full result vectors across batches
// (ServingOptions::cache_bytes; 0 disables); identical in-flight requests
// are merged (the second Submit of an identical (pattern, tau, metric, k)
// attaches its promise to the first execution instead of queueing again);
// and within one micro-batch, QueryBatch's own dedup and prefix/suffix
// resumption apply as usual.
//
// Results are bit-identical to the synchronous path: a cache entry is the
// exact vector QueryBatch produced, and QueryBatch's contract is that every
// entry equals what Query would report. When a micro-batch fails the batched
// path's all-or-nothing validation, the engine falls back to per-request
// queries so one client's invalid request cannot fail its batch-mates.
//
// Shutdown: Stop() (or the destructor) stops accepting — further Submits
// complete immediately with NotSupported — then drains every accepted
// request before the workers exit, so no future is ever abandoned.

#ifndef PTI_ENGINE_SERVING_ENGINE_H_
#define PTI_ENGINE_SERVING_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/match.h"
#include "core/substring_index.h"
#include "engine/request.h"
#include "engine/sharded_index.h"
#include "util/span.h"
#include "util/status.h"

namespace pti {

struct ServingOptions {
  /// Micro-batch size cap: a worker dispatches as soon as this many unique
  /// requests are pending. Clamped to >= 1.
  int32_t max_batch = 64;
  /// How long a worker lets an under-full batch linger, waiting for
  /// coalescing partners, before dispatching anyway. 0 dispatches
  /// immediately (no coalescing beyond what is already queued).
  int64_t linger_us = 200;
  /// Drain worker threads; 0 means one per hardware thread
  /// (util/thread_pool.h ResolveThreadCount).
  int32_t num_workers = 0;
  /// Byte budget for the result cache; 0 disables caching.
  size_t cache_bytes = size_t{16} << 20;
  /// Lock stripes of the cache (util/lru_cache.h).
  int32_t cache_shards = 8;
  /// Bound on each priority lane's pending queue: admission past it sheds
  /// the request with Status::Unavailable instead of queueing. <= 0 means
  /// unbounded (the PR-5 behavior, for embedders that do their own
  /// admission control).
  int32_t max_pending = 65536;
  /// Lock stripes of the admission (in-flight dedup) table; rounded up to
  /// a power of two and clamped to [1, 256].
  int32_t admission_stripes = 16;
};

class ServingEngine {
 public:
  /// What a client's future resolves to. status mirrors exactly what the
  /// synchronous Query/QueryBatch would have returned for this request —
  /// except Status::Unavailable, which means the request was load-shed at
  /// admission (bounded lane full) and never reached the index.
  struct Result {
    Status status;
    std::vector<Match> matches;
  };

  /// Counter snapshot; all values are cumulative since construction except
  /// the explicitly-labeled gauges. Conservation: every Submit call lands in
  /// exactly one of completed / shed / rejected, so once the engine is
  /// drained, submitted == completed + shed + rejected. Per-lane counters
  /// tag each submission with its requested priority and exclude rejected
  /// (post-Stop) calls: lane_submitted == lane_completed + lane_shed.
  struct Stats {
    uint64_t submitted = 0;        ///< Submit calls, all outcomes
    uint64_t completed = 0;        ///< futures resolved with an answer
                                   ///< (including per-request query errors)
    uint64_t shed = 0;             ///< load-shed with Unavailable at
                                   ///< admission (bounded lane full)
    uint64_t rejected = 0;         ///< Submit calls after Stop
    uint64_t cache_hits = 0;       ///< answered from the cache at Submit
    uint64_t cache_misses = 0;     ///< lookups that missed (then merged
                                   ///< in flight or queued for execution)
    uint64_t inflight_merges = 0;  ///< attached to an identical request
    uint64_t batches = 0;          ///< micro-batches executed
    uint64_t batched_queries = 0;  ///< unique requests answered by the
                                   ///< batched path
    uint64_t fallback_queries = 0; ///< unique requests re-run individually
                                   ///< after a batch validation failure
                                   ///< (disjoint from batched_queries)
    size_t queue_depth = 0;        ///< gauge: pending requests across lanes
    uint64_t interactive_submitted = 0;  ///< non-rejected, interactive lane
    uint64_t interactive_completed = 0;
    uint64_t interactive_shed = 0;
    uint64_t batch_submitted = 0;        ///< non-rejected, batch lane
    uint64_t batch_completed = 0;
    uint64_t batch_shed = 0;
    size_t cache_entries = 0;      ///< live cached results
    size_t cache_bytes = 0;        ///< their summed charge
    uint64_t cache_evictions = 0;  ///< results evicted by the byte budget
    uint64_t reloads = 0;          ///< successful Reload calls
    uint64_t generation = 0;       ///< current index generation (starts at 1)
  };

  /// Serve a sharded index (the intended production shape).
  explicit ServingEngine(ShardedIndex index,
                         const ServingOptions& options = {});
  /// Serve a monolithic index (small deployments, tests).
  explicit ServingEngine(SubstringIndex index,
                         const ServingOptions& options = {});
  /// Stops and drains: blocks until every accepted request is answered.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues one query — exact when request.k == 0, fuzzy otherwise (then
  /// the cache key carries (metric, k) alongside (pattern, tau), so fuzzy
  /// and exact results never collide). The future resolves once a worker
  /// (or the cache) answers it; never blocks on index work. Outcomes:
  /// the query's own result; Unavailable when request.priority's lane is
  /// full (load shed); NotSupported after Stop; InvalidArgument without
  /// queueing when k is outside [0, kMaxFuzzyErrors].
  std::future<Result> Submit(Request request);

  /// Submits every request of the batch; out[i] is the future for
  /// requests[i]. (Accepts a std::vector<Request> implicitly via Span.)
  std::vector<std::future<Result>> SubmitBatch(Span<const Request> requests);

  /// Atomically replaces the served index with an already-built one.
  /// In-flight micro-batches finish on the generation they started with
  /// (their futures resolve against the old index — never lost, never
  /// re-answered); batches popped after the swap see the new index; the
  /// result cache is cleared. The old generation — including any mmap
  /// backing — is freed once its last batch drains.
  Status Reload(ShardedIndex index);
  Status Reload(SubstringIndex index);

  /// Loads `path` (substring or sharded container; mmap'd zero-copy when
  /// use_mmap, read into memory otherwise) and swaps it in as above. On any
  /// load/validation failure the engine keeps serving the old generation
  /// untouched and returns the error.
  Status Reload(const std::string& path, bool use_mmap = true);

  /// Stops accepting new requests (they resolve with NotSupported) and lets
  /// the workers drain everything already accepted. Idempotent; does not
  /// block — destruction joins the workers.
  void Stop();

  Stats stats() const;

  /// Options with max_batch / num_workers / admission / cache sizing
  /// resolved to the values in effect.
  const ServingOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pti

#endif  // PTI_ENGINE_SERVING_ENGINE_H_
