// BlockRmq: the production RMQ used by the indexes.
//
// The array is cut into fixed-size blocks; a sparse table over the per-block
// argmax positions answers the part of a query spanning whole blocks, and the
// two ragged boundary blocks are scanned through the value accessor (O(1)
// values each, block size is a small constant). Space is
// O(n/b · log(n/b)) words — for the default b=64 about 1 byte per element at
// n = 4M — and queries make at most 2b+2 accessor calls: each position of
// the two ragged parts once, plus the top table's two candidates.
// Construction calls the accessor once per element, or not at all when the
// caller supplies the block maxima (BlockMaxima).
//
// Rationale vs the paper: Lemma 1's 2n+o(n)-bit structure never touches the
// array at query time; our accessor recomputes values in O(1) from structures
// the index keeps anyway (prefix array C + suffix array), so trading a bounded
// number of accessor calls for a much simpler structure preserves both the
// asymptotics and (measured, see bench_ablation_rmq) the speed.

#ifndef PTI_RMQ_BLOCK_RMQ_H_
#define PTI_RMQ_BLOCK_RMQ_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "rmq/rmq.h"
#include "rmq/sparse_table_rmq.h"
#include "util/serial.h"
#include "util/span.h"
#include "util/status.h"

namespace pti {

/// The per-block leftmost maxima of an array cut into blocks of `block`
/// elements: arg[b] is the position of block b's maximum, value[b] its value.
/// This is all BlockRmq builds its top table from, so a caller that already
/// has them (the indexes' fused forest sweep) skips the block scans.
struct BlockMaxima {
  std::vector<uint32_t> arg;
  std::vector<double> value;
};

/// ValueFn: copyable callable `double(size_t)`; must stay valid and stable for
/// the lifetime of the structure.
template <typename ValueFn>
class BlockRmq {
 public:
  /// `block` is the scan granularity; 64 balances space vs scan cost.
  BlockRmq(ValueFn value, size_t n, size_t block = 64)
      : BlockRmq(value, n, block, ScanBlocks(value, n, block)) {}

  /// Builds over precomputed block maxima, which must equal what a scan of
  /// `value` would find: maxima.arg[b] the leftmost argmax of block b and
  /// maxima.value[b] the value there. The top sparse table is built over
  /// the cached values; the accessor is only called by queries.
  BlockRmq(ValueFn value, size_t n, size_t block, BlockMaxima maxima)
      : value_(std::move(value)), n_(n), block_(block == 0 ? 1 : block) {
    const size_t nblocks = (n_ + block_ - 1) / block_;
    assert(maxima.arg.size() == nblocks && maxima.value.size() == nblocks);
    block_arg_ = VecOrView<uint32_t>(std::move(maxima.arg));
    if (nblocks > 0) {
      // The accessor captures the heap buffer (stable across moves of this
      // object) and a copy of the value functor — never `this`.
      top_.emplace(BlockValueFn{block_arg_.data(), value_}, nblocks,
                   std::move(maxima.value));
    }
  }

  /// Serializes geometry + block argmax table + the top sparse table.
  void SaveTo(Writer* w) const {
    w->PutU64(static_cast<uint64_t>(n_));
    w->PutU64(static_cast<uint64_t>(block_));
    w->PutSpan(block_arg_.span());
    if (top_) top_->SaveTo(w);
  }

  /// Zero-copy inverse of SaveTo; the caller pins the backing Blob and
  /// supplies the same value accessor the structure was built over. Every
  /// block argmax must lie inside its own block (bounding it below n), so
  /// a forged table cannot push accessor calls out of range.
  static Status LoadFrom(Reader* r, ValueFn value,
                         std::unique_ptr<BlockRmq>* out) {
    uint64_t n = 0, block = 0;
    PTI_RETURN_IF_ERROR(r->GetU64(&n));
    PTI_RETURN_IF_ERROR(r->GetU64(&block));
    if (block == 0) return Status::Corruption("block RMQ with zero block");
    Span<const uint32_t> args;
    PTI_RETURN_IF_ERROR(r->GetSpan(&args));
    const size_t nblocks =
        n == 0 ? 0 : (static_cast<size_t>(n) + block - 1) / block;
    if (args.size() != nblocks) {
      return Status::Corruption("block RMQ argmax table size mismatch");
    }
    for (size_t b = 0; b < nblocks; ++b) {
      const size_t lo = b * block;
      const size_t hi = std::min(lo + block, static_cast<size_t>(n));
      if (args[b] < lo || args[b] >= hi) {
        return Status::Corruption("block RMQ argmax outside its block");
      }
    }
    auto rmq = std::unique_ptr<BlockRmq>(
        new BlockRmq(PartsTag{}, std::move(value), static_cast<size_t>(n),
                     static_cast<size_t>(block),
                     VecOrView<uint32_t>::View(args)));
    if (nblocks > 0) {
      PTI_RETURN_IF_ERROR(SparseTableRmq<BlockValueFn>::LoadFrom(
          r, BlockValueFn{rmq->block_arg_.data(), rmq->value_}, &rmq->top_));
      if (rmq->top_->size() != nblocks) {
        return Status::Corruption("block RMQ top table size mismatch");
      }
    }
    *out = std::move(rmq);
    return Status::OK();
  }

  /// Leftmost argmax over the inclusive range [l, r]. The three parts are
  /// combined on the values their scans already produced.
  size_t ArgMax(size_t l, size_t r) const {
    assert(l <= r && r < n_);
    const size_t bl = l / block_;
    const size_t br = r / block_;
    if (bl == br) return BruteForceArgMax(value_, l, r);
    // Left ragged part, middle whole blocks, right ragged part.
    RmqCandidate best = BruteForceCandidate(value_, l, (bl + 1) * block_ - 1);
    if (bl + 1 <= br - 1) {
      const RmqCandidate mid = top_->Candidate(bl + 1, br - 1);
      best = rmq_internal::Better(best, {block_arg_[mid.pos], mid.value});
    }
    return rmq_internal::Better(best,
                                BruteForceCandidate(value_, br * block_, r))
        .pos;
  }

  size_t size() const { return n_; }

  /// Bytes of auxiliary structure (excludes whatever backs the accessor and
  /// any backing Blob a loaded structure views).
  size_t MemoryUsage() const {
    size_t bytes = block_arg_.OwnedBytes();
    if (top_) bytes += top_->MemoryUsage();
    return bytes;
  }

 private:
  /// The block maxima of `value` over n elements: one accessor call each.
  static BlockMaxima ScanBlocks(const ValueFn& value, size_t n, size_t block) {
    if (block == 0) block = 1;
    const size_t nblocks = (n + block - 1) / block;
    BlockMaxima maxima;
    maxima.arg.resize(nblocks);
    maxima.value.resize(nblocks);
    for (size_t b = 0; b < nblocks; ++b) {
      const size_t lo = b * block;
      const RmqCandidate best =
          BruteForceCandidate(value, lo, std::min(lo + block, n) - 1);
      maxima.arg[b] = static_cast<uint32_t>(best.pos);
      maxima.value[b] = best.value;
    }
    return maxima;
  }

  struct PartsTag {};
  BlockRmq(PartsTag, ValueFn value, size_t n, size_t block,
           VecOrView<uint32_t> block_arg)
      : value_(std::move(value)),
        n_(n),
        block_(block),
        block_arg_(std::move(block_arg)) {}

  /// Adapts block-index space to the sparse table: value of block b is the
  /// value at that block's argmax position. Holds only move-stable state
  /// (the vector's heap buffer and a functor copy), so BlockRmq stays
  /// safely movable.
  struct BlockValueFn {
    const uint32_t* block_arg;
    ValueFn value;
    double operator()(size_t b) const { return value(block_arg[b]); }
  };

  ValueFn value_;
  size_t n_;
  size_t block_;
  VecOrView<uint32_t> block_arg_;
  std::optional<SparseTableRmq<BlockValueFn>> top_;
};

}  // namespace pti

#endif  // PTI_RMQ_BLOCK_RMQ_H_
