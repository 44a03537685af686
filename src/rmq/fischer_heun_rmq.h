// FischerHeunRmq: the paper's Lemma 1 structure (Fischer & Heun 2007/2008).
//
// The array is cut into microblocks of b elements. Two microblocks whose
// values build the same Cartesian tree have the same argmax position for
// *every* subrange, so each microblock stores only a 2b-bit tree code
// ("type"); a shared lookup table, filled lazily the first time a type is
// seen, maps (type, i, j) to the in-block argmax offset. Queries spanning
// microblocks use a sparse table over the per-microblock maxima. In-block
// space is 2 bits per element (plus the O(4^b) shared tables), queries are
// O(1) with no scanning.
//
// Tie-breaking matches the library-wide rule (leftmost maximum): the tree
// code is produced with a strict "pop while top < new" rule, under which
// equal values keep the earlier element higher in the tree, so blocks with
// ties still share argmax tables with their type class. The exhaustive
// property tests verify this against BruteForceArgMax.

#ifndef PTI_RMQ_FISCHER_HEUN_RMQ_H_
#define PTI_RMQ_FISCHER_HEUN_RMQ_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rmq/rmq.h"
#include "rmq/sparse_table_rmq.h"

namespace pti {

/// ValueFn: copyable callable `double(size_t)`; must stay valid and stable for
/// the lifetime of the structure.
template <typename ValueFn>
class FischerHeunRmq {
 public:
  /// Microblock size; 8 keeps the type space (4^8) and tables tiny.
  static constexpr size_t kBlock = 8;

  FischerHeunRmq(ValueFn value, size_t n) : value_(std::move(value)), n_(n) {
    if (n_ == 0) return;
    const size_t nblocks = (n_ + kBlock - 1) / kBlock;
    types_.resize(nblocks);
    block_arg_.resize(nblocks);
    std::vector<double> block_val(nblocks);
    double vals[kBlock];
    for (size_t b = 0; b < nblocks; ++b) {
      const size_t lo = b * kBlock;
      const size_t len = std::min(kBlock, n_ - lo);
      for (size_t k = 0; k < len; ++k) vals[k] = value_(lo + k);
      const uint32_t type = CartesianType(vals, len);
      types_[b] = type;
      auto [it, inserted] = tables_.try_emplace(Key(type, len));
      if (inserted) it->second = BuildTable(vals, len);
      const size_t off = it->second[0 * kBlock + (len - 1)];
      block_arg_[b] = static_cast<uint32_t>(lo + off);
      block_val[b] = vals[off];
    }
    // Stable across moves: captures the heap buffer and a functor copy. The
    // top table is built over the values read above, not re-evaluated.
    top_.emplace(BlockValueFn{block_arg_.data(), value_}, nblocks,
                 std::move(block_val));
  }

  /// Leftmost argmax over the inclusive range [l, r].
  size_t ArgMax(size_t l, size_t r) const {
    assert(l <= r && r < n_);
    const size_t bl = l / kBlock;
    const size_t br = r / kBlock;
    if (bl == br) return InBlock(bl, l % kBlock, r % kBlock);
    RmqCandidate best = At(InBlock(bl, l % kBlock, BlockLen(bl) - 1));
    if (bl + 1 <= br - 1) {
      const RmqCandidate mid = top_->Candidate(bl + 1, br - 1);
      best = rmq_internal::Better(best, {block_arg_[mid.pos], mid.value});
    }
    return rmq_internal::Better(best, At(InBlock(br, 0, r % kBlock))).pos;
  }

  size_t size() const { return n_; }

  /// Bytes of auxiliary structure (excludes whatever backs the accessor).
  size_t MemoryUsage() const {
    size_t bytes = types_.size() * sizeof(uint32_t) +
                   block_arg_.size() * sizeof(uint32_t);
    for (const auto& [key, table] : tables_) {
      (void)key;
      bytes += table.size() + sizeof(uint64_t);
    }
    if (top_) bytes += top_->MemoryUsage();
    return bytes;
  }

 private:
  RmqCandidate At(size_t pos) const { return {pos, value_(pos)}; }

  size_t BlockLen(size_t b) const { return std::min(kBlock, n_ - b * kBlock); }

  size_t InBlock(size_t b, size_t i, size_t j) const {
    const auto& table = tables_.at(Key(types_[b], BlockLen(b)));
    return b * kBlock + table[i * kBlock + j];
  }

  /// 2b-bit push/pop encoding of the max-Cartesian tree of vals[0..len).
  /// Strictly-smaller stack entries are popped, so ties keep the leftmost
  /// element as the range answer.
  static uint32_t CartesianType(const double* vals, size_t len) {
    double stack[kBlock];
    size_t depth = 0;
    uint32_t code = 0;
    uint32_t bit = 0;
    for (size_t k = 0; k < len; ++k) {
      while (depth > 0 && stack[depth - 1] < vals[k]) {
        --depth;
        ++bit;  // emit 0 (pop)
      }
      code |= 1u << bit;  // emit 1 (push)
      ++bit;
      stack[depth++] = vals[k];
    }
    return code;
  }

  /// Types of different block lengths live in disjoint key ranges.
  static uint64_t Key(uint32_t type, size_t len) {
    return (static_cast<uint64_t>(len) << 32) | type;
  }

  /// Per-type argmax offsets for all 0 <= i <= j < len.
  static std::vector<uint8_t> BuildTable(const double* vals, size_t len) {
    std::vector<uint8_t> table(kBlock * kBlock, 0);
    for (size_t i = 0; i < len; ++i) {
      size_t best = i;
      table[i * kBlock + i] = static_cast<uint8_t>(i);
      for (size_t j = i + 1; j < len; ++j) {
        if (vals[j] > vals[best]) best = j;
        table[i * kBlock + j] = static_cast<uint8_t>(best);
      }
    }
    return table;
  }

  struct BlockValueFn {
    const uint32_t* block_arg;
    ValueFn value;
    double operator()(size_t b) const { return value(block_arg[b]); }
  };

  ValueFn value_;
  size_t n_ = 0;
  std::vector<uint32_t> types_;
  std::vector<uint32_t> block_arg_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> tables_;
  std::optional<SparseTableRmq<BlockValueFn>> top_;
};

}  // namespace pti

#endif  // PTI_RMQ_FISCHER_HEUN_RMQ_H_
