// Type-erased RMQ handle: lets the indexes pick an engine at runtime
// (options-driven) while the engines themselves stay header-only templates.

#ifndef PTI_RMQ_RMQ_HANDLE_H_
#define PTI_RMQ_RMQ_HANDLE_H_

#include <memory>
#include <type_traits>
#include <utility>

#include "rmq/block_rmq.h"
#include "rmq/fischer_heun_rmq.h"
#include "rmq/sparse_table_rmq.h"
#include "util/serial.h"
#include "util/status.h"

namespace pti {

/// Which RMQ engine an index should build over its probability arrays.
enum class RmqEngineKind {
  kBlock = 0,        ///< block maxima + boundary scans (production default)
  kFischerHeun = 1,  ///< the paper's Lemma 1 structure (microblock codes)
  kSparseTable = 2,  ///< O(n log n) space baseline
};

/// Erased interface over the three engines.
class RmqHandle {
 public:
  virtual ~RmqHandle() = default;
  /// Leftmost argmax over the inclusive range [l, r].
  virtual size_t ArgMax(size_t l, size_t r) const = 0;
  virtual size_t MemoryUsage() const = 0;
  /// Serializes the engine into `w` when it supports persistence (block and
  /// sparse-table engines do); returns false — writing nothing — otherwise,
  /// in which case the owner rebuilds the structure on load.
  virtual bool SaveTo(Writer* w) const = 0;
};

namespace rmq_internal {

template <typename Engine, typename = void>
struct HasSaveTo : std::false_type {};
template <typename Engine>
struct HasSaveTo<Engine,
                 std::void_t<decltype(std::declval<const Engine&>().SaveTo(
                     static_cast<Writer*>(nullptr)))>> : std::true_type {};

template <typename Engine>
class RmqHandleImpl final : public RmqHandle {
 public:
  explicit RmqHandleImpl(Engine engine) : engine_(std::move(engine)) {}
  size_t ArgMax(size_t l, size_t r) const override {
    return engine_.ArgMax(l, r);
  }
  size_t MemoryUsage() const override { return engine_.MemoryUsage(); }
  bool SaveTo(Writer* w) const override {
    if constexpr (HasSaveTo<Engine>::value) {
      engine_.SaveTo(w);
      return true;
    } else {
      (void)w;
      return false;
    }
  }

 private:
  Engine engine_;
};

}  // namespace rmq_internal

/// Builds an engine of the requested kind over `value` (n entries).
/// `block` applies to kBlock only.
template <typename ValueFn>
std::unique_ptr<RmqHandle> MakeRmq(RmqEngineKind kind, ValueFn value, size_t n,
                                   size_t block = 64) {
  switch (kind) {
    case RmqEngineKind::kFischerHeun:
      return std::make_unique<
          rmq_internal::RmqHandleImpl<FischerHeunRmq<ValueFn>>>(
          FischerHeunRmq<ValueFn>(std::move(value), n));
    case RmqEngineKind::kSparseTable:
      return std::make_unique<
          rmq_internal::RmqHandleImpl<SparseTableRmq<ValueFn>>>(
          SparseTableRmq<ValueFn>(std::move(value), n));
    case RmqEngineKind::kBlock:
    default:
      return std::make_unique<rmq_internal::RmqHandleImpl<BlockRmq<ValueFn>>>(
          BlockRmq<ValueFn>(std::move(value), n, block));
  }
}

/// Builds a block-engine handle over block maxima the caller already
/// computed (see BlockRmq's BlockMaxima constructor); identical to
/// MakeRmq(kBlock, value, n, block) when the maxima are right.
template <typename ValueFn>
std::unique_ptr<RmqHandle> MakeBlockRmq(ValueFn value, size_t n, size_t block,
                                        BlockMaxima maxima) {
  return std::make_unique<rmq_internal::RmqHandleImpl<BlockRmq<ValueFn>>>(
      BlockRmq<ValueFn>(std::move(value), n, block, std::move(maxima)));
}

/// Deserializes a block-engine handle saved via RmqHandle::SaveTo. The
/// caller supplies the same value accessor the structure was built over,
/// the element count the structure must cover (queries index up to it, so a
/// forged count would be an out-of-bounds hazard, not just a wrong answer),
/// and pins the Blob backing `r` (the loaded tables are zero-copy views).
template <typename ValueFn>
Status LoadBlockRmq(Reader* r, ValueFn value, size_t expected_n,
                    std::unique_ptr<RmqHandle>* out) {
  std::unique_ptr<BlockRmq<ValueFn>> engine;
  PTI_RETURN_IF_ERROR(
      BlockRmq<ValueFn>::LoadFrom(r, std::move(value), &engine));
  if (engine->size() != expected_n) {
    return Status::Corruption("RMQ element count mismatch");
  }
  *out = std::make_unique<rmq_internal::RmqHandleImpl<BlockRmq<ValueFn>>>(
      std::move(*engine));
  return Status::OK();
}

}  // namespace pti

#endif  // PTI_RMQ_RMQ_HANDLE_H_
