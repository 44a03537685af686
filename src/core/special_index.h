// SpecialIndex: substring searching over special uncertain strings (§4).
//
// A special uncertain string has exactly one probabilistic character per
// position, so the deterministic text t is just its character sequence and
// every alignment is unique — no factor transformation, no duplicate
// elimination, and no construction-time tau_min: queries accept any tau in
// (0, 1].
//
// Two operating modes reproduce the paper's §4 narrative:
//   * use_rmq = false — the "simple index" (§4.1): locus lookup, then a scan
//     of the whole suffix range validating each entry against C.
//   * use_rmq = true  — the "efficient index" (§4.2): per-depth RMQ
//     structures for m <= K (Algorithms 1-2) and the blocking scheme for
//     longer patterns; O(m + occ) for short patterns.
//
// Correlated characters are supported as described in §4.1 ("Handling
// Correlation"): validation adjusts the prefix-product value by swapping the
// stored probability for the case-1/case-2 resolved one.

#ifndef PTI_CORE_SPECIAL_INDEX_H_
#define PTI_CORE_SPECIAL_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"
#include "core/uncertain_string.h"
#include "rmq/rmq_handle.h"
#include "util/status.h"

namespace pti {

struct SpecialIndexOptions {
  /// Depth limit K for the per-depth RMQ forest; 0 means ceil(log2(n)).
  int32_t max_short_depth = 0;
  RmqEngineKind rmq_engine = RmqEngineKind::kBlock;
  /// false reproduces the §4.1 simple index (always scan the range); true
  /// also builds block levels at K, 2K, 4K, ... for long patterns.
  bool use_rmq = true;
  /// Locus ranges no larger than this are scanned directly.
  size_t scan_cutoff = 64;
};

class SpecialIndex {
 public:
  SpecialIndex();
  ~SpecialIndex();
  SpecialIndex(SpecialIndex&&) noexcept;
  SpecialIndex& operator=(SpecialIndex&&) noexcept;

  /// Builds over a special uncertain string (every position must hold
  /// exactly one option with probability in (0, 1]). Correlation rules on
  /// `s` are honored.
  static StatusOr<SpecialIndex> Build(const UncertainString& s,
                                      const SpecialIndexOptions& options = {});

  /// All positions with occurrence probability >= tau, sorted by position.
  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const;

  struct Stats {
    int64_t length = 0;
    int32_t short_depth_limit = 0;
    size_t num_tree_nodes = 0;
  };
  Stats stats() const;
  size_t MemoryUsage() const;

  /// Serializes the source string and options into the shared container
  /// format (core/serde.h); Load revalidates the inputs and rebuilds the
  /// derived structures (suffix tree, RMQ forest) deterministically.
  Status Save(std::string* out) const;
  /// Same, at an explicit container version (serde::kInterchangeVersion or
  /// serde::kContainerVersion); the payload encoding is identical, only the
  /// framing (alignment, padding) differs.
  Status Save(std::string* out, uint32_t version) const;
  static StatusOr<SpecialIndex> Load(std::string_view data);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pti

#endif  // PTI_CORE_SPECIAL_INDEX_H_
