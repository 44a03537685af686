// Request: the one client-facing query unit of the serving layer.
//
// Every way of asking the engine something — exact or fuzzy, one-off or
// batched, in-process (ServingEngine::Submit) or over the wire
// (src/net/protocol.h encodes exactly this struct) — is a Request. The
// defaults make the common case the empty case: default-constructed fields
// mean an exact-match interactive query, so `Request{pattern, tau}` is all
// the common case takes.
//
// k == 0 selects the exact path; k in [1, kMaxFuzzyErrors] selects the
// fuzzy path under `metric` (core/fuzzy.h). `priority` picks the admission
// lane (engine/serving_engine.h): interactive traffic is drained first and
// keeps its latency bounded under overload, batch traffic is the first to
// be load-shed with Status::Unavailable when its bounded lane fills.

#ifndef PTI_ENGINE_REQUEST_H_
#define PTI_ENGINE_REQUEST_H_

#include <cstdint>
#include <string>

#include "core/fuzzy.h"

namespace pti {

/// Admission lane of a Request. Lanes are bounded independently; workers
/// always drain interactive work before batch work.
enum class Priority : uint8_t {
  kInteractive = 0,  ///< latency-sensitive; drained first.
  kBatch = 1,        ///< throughput traffic; shed first under overload.
};

/// One probabilistic threshold query, exact or fuzzy. Defaults are an exact
/// interactive query; set k > 0 (and metric) for approximate matching.
struct Request {
  std::string pattern;
  double tau = 0.0;
  FuzzyMetric metric = FuzzyMetric::kMismatch;  ///< used only when k > 0
  int32_t k = 0;                                ///< 0 = exact match
  Priority priority = Priority::kInteractive;
};

}  // namespace pti

#endif  // PTI_ENGINE_REQUEST_H_
