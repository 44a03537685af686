// Range-maximum query (RMQ) engines.
//
// The paper (Lemma 1, Fischer & Heun) builds a 2n+o(n)-bit structure over each
// probability array C_i and *discards the array*, answering "position of the
// maximum in [l,r]" in O(1). We reproduce that design with a twist that suits
// the index: the C_i values are recomputable in O(1) from the global prefix
// array (C, suffix array A, per-depth active bits), so our engines take a
// *value accessor* instead of owning an array. Construction evaluates every
// value exactly once and carries it alongside its position (RmqCandidate) from
// then on, so combining two candidates never re-evaluates the accessor; a
// caller that already holds the per-block maxima (the indexes' fused forest
// sweep) hands them to BlockRmq directly. Queries call the accessor once
// per position they scan and once per sparse-table candidate they compare.
//
// Engines (all return the LEFTMOST position of the maximum, inclusive range):
//   * SparseTableRmq — classic O(n log n)-space, O(1)-query baseline.
//   * BlockRmq       — production engine: sparse table over fixed-size block
//                      maxima + boundary-block scans; O(n/b log(n/b)) space,
//                      O(b) accessor calls per query (b is a small constant).
//   * FischerHeunRmq — the paper's Lemma 1 structure: microblock Cartesian
//                      codes (2 bits/element class space) + sparse table over
//                      microblock maxima; O(1) query.
//
// All engines agree exactly (including tie-breaking) with BruteForceArgMax
// on NaN-free values; the property tests sweep them against each other. A
// NaN never wins a comparison, so it changes answers only where it is the
// first candidate of a scan or a table window, identically at every build
// path of the same engine.

#ifndef PTI_RMQ_RMQ_H_
#define PTI_RMQ_RMQ_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace pti {

/// A candidate position together with its value, so that combining
/// candidates compares cached values instead of calling the accessor again.
struct RmqCandidate {
  size_t pos = 0;
  double value = 0.0;
};

/// Leftmost maximum of the inclusive range [l, r] with its value; evaluates
/// every value in the range exactly once.
template <typename ValueFn>
RmqCandidate BruteForceCandidate(const ValueFn& value, size_t l, size_t r) {
  assert(l <= r);
  RmqCandidate best{l, value(l)};
  for (size_t i = l + 1; i <= r; ++i) {
    const double v = value(i);
    if (v > best.value) best = {i, v};
  }
  return best;
}

/// Reference semantics for all RMQ engines: leftmost position of the maximum
/// value in the inclusive range [l, r].
template <typename ValueFn>
size_t BruteForceArgMax(const ValueFn& value, size_t l, size_t r) {
  return BruteForceCandidate(value, l, r).pos;
}

namespace rmq_internal {

/// Combines two candidates under the shared tie rule (leftmost wins): the
/// right candidate replaces the left one only when its value is strictly
/// greater, so a NaN on either side keeps the left candidate.
inline RmqCandidate Better(const RmqCandidate& a, const RmqCandidate& b) {
  if (a.pos == b.pos) return a;
  const RmqCandidate& lo = a.pos < b.pos ? a : b;
  const RmqCandidate& hi = a.pos < b.pos ? b : a;
  return hi.value > lo.value ? hi : lo;
}

/// floor(log2(x)) for x >= 1.
inline uint32_t FloorLog2(size_t x) {
  assert(x >= 1);
  return 63u - static_cast<uint32_t>(__builtin_clzll(x));
}

}  // namespace rmq_internal

}  // namespace pti

#endif  // PTI_RMQ_RMQ_H_
