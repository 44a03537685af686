// SparseTableRmq: the classic O(n log n)-space / O(1)-query RMQ.
//
// Level k stores, for every position i, the leftmost argmax of the window
// [i, i + 2^k). A query [l, r] combines the two (overlapping) windows of size
// 2^floor(log2(len)) that cover it. Used as the correctness baseline and for
// small arrays; the index proper uses BlockRmq / FischerHeunRmq.

#ifndef PTI_RMQ_SPARSE_TABLE_RMQ_H_
#define PTI_RMQ_SPARSE_TABLE_RMQ_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "rmq/rmq.h"
#include "util/serial.h"
#include "util/span.h"
#include "util/status.h"

namespace pti {

/// ValueFn: copyable callable `double(size_t)` giving the array value at a
/// position. It must keep returning the construction-time values for as long
/// as queries are issued.
template <typename ValueFn>
class SparseTableRmq {
 public:
  SparseTableRmq(ValueFn value, size_t n)
      : SparseTableRmq(value, n, EvaluateAll(value, n)) {}

  /// Builds over precomputed values: values[i] must equal value(i). Each
  /// level combines the cached values of the level below, so construction
  /// never calls the accessor; `value` serves queries only.
  SparseTableRmq(ValueFn value, size_t n, std::vector<double> values)
      : value_(std::move(value)), n_(n) {
    assert(values.size() == n_);
    if (n_ == 0) return;
    const uint32_t levels = rmq_internal::FloorLog2(n_) + 1;
    table_.resize(levels);
    std::vector<uint32_t> level0(n_);
    for (size_t i = 0; i < n_; ++i) level0[i] = static_cast<uint32_t>(i);
    table_[0] = VecOrView<uint32_t>(std::move(level0));
    // values[i] tracks the value at table_[k][i]; entry i of level k reads
    // entries i and i + span/2 of level k-1 only, so an ascending in-place
    // update never overwrites a value it still needs.
    for (uint32_t k = 1; k < levels; ++k) {
      const size_t span = size_t{1} << k;
      const auto& below = table_[k - 1];
      std::vector<uint32_t> level(n_ - span + 1);
      for (size_t i = 0; i + span <= n_; ++i) {
        const RmqCandidate best = rmq_internal::Better(
            {below[i], values[i]}, {below[i + span / 2], values[i + span / 2]});
        level[i] = static_cast<uint32_t>(best.pos);
        values[i] = best.value;
      }
      table_[k] = VecOrView<uint32_t>(std::move(level));
    }
  }

  /// Serializes the table (aligned writer: levels become zero-copy views on
  /// v3 load).
  void SaveTo(Writer* w) const {
    w->PutU64(static_cast<uint64_t>(n_));
    w->PutU32(static_cast<uint32_t>(table_.size()));
    for (const auto& level : table_) w->PutSpan(level.span());
  }

  /// Zero-copy inverse of SaveTo; the caller pins the backing Blob. Level
  /// sizes must match n exactly and every entry must lie inside its window
  /// (which bounds it below n), so a forged table can skew answers but
  /// never index out of bounds.
  static Status LoadFrom(Reader* r, ValueFn value,
                         std::optional<SparseTableRmq>* out) {
    uint64_t n = 0;
    uint32_t levels = 0;
    PTI_RETURN_IF_ERROR(r->GetU64(&n));
    PTI_RETURN_IF_ERROR(r->GetU32(&levels));
    const uint32_t expect =
        n == 0 ? 0 : rmq_internal::FloorLog2(static_cast<size_t>(n)) + 1;
    if (levels != expect) {
      return Status::Corruption("sparse table level count mismatch");
    }
    std::vector<VecOrView<uint32_t>> table(levels);
    for (uint32_t k = 0; k < levels; ++k) {
      Span<const uint32_t> level;
      PTI_RETURN_IF_ERROR(r->GetSpan(&level));
      const size_t span = size_t{1} << k;
      if (level.size() != static_cast<size_t>(n) - span + 1) {
        return Status::Corruption("sparse table level size mismatch");
      }
      for (size_t i = 0; i < level.size(); ++i) {
        if (level[i] < i || level[i] >= i + span) {
          return Status::Corruption("sparse table entry outside its window");
        }
      }
      table[k] = VecOrView<uint32_t>::View(level);
    }
    out->emplace(SparseTableRmq(std::move(value), static_cast<size_t>(n),
                                std::move(table)));
    return Status::OK();
  }

  /// Leftmost argmax over the inclusive range [l, r].
  size_t ArgMax(size_t l, size_t r) const {
    return l == r ? l : Candidate(l, r).pos;
  }

  /// Leftmost argmax over [l, r] with its value (at most two accessor
  /// calls).
  RmqCandidate Candidate(size_t l, size_t r) const {
    assert(l <= r && r < n_);
    const uint32_t k = rmq_internal::FloorLog2(r - l + 1);
    const size_t a = table_[k][l];
    const size_t b = table_[k][r - (size_t{1} << k) + 1];
    if (a == b) return {a, value_(a)};
    return rmq_internal::Better({a, value_(a)}, {b, value_(b)});
  }

  size_t size() const { return n_; }

  /// Bytes of auxiliary structure (excludes whatever backs the accessor and
  /// any backing Blob a loaded table views).
  size_t MemoryUsage() const {
    size_t bytes = 0;
    for (const auto& level : table_) bytes += level.OwnedBytes();
    return bytes;
  }

 private:
  static std::vector<double> EvaluateAll(const ValueFn& value, size_t n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = value(i);
    return values;
  }

  SparseTableRmq(ValueFn value, size_t n,
                 std::vector<VecOrView<uint32_t>> table)
      : value_(std::move(value)), n_(n), table_(std::move(table)) {}

  ValueFn value_;
  size_t n_;
  std::vector<VecOrView<uint32_t>> table_;
};

}  // namespace pti

#endif  // PTI_RMQ_SPARSE_TABLE_RMQ_H_
