// Fuzz harness for the two surfaces that consume hostile bytes: the
// versioned serde container (every index kind's Load behind PeekKind, the
// same dispatch the CLI uses) and the uncertain-string text parser in both
// strict and special modes. The contract under test is the one serde.h
// promises: arbitrary input may fail with a Status but must never crash,
// over-read, or trip a sanitizer.
//
// The first input byte selects the surface (mod 3): 0 container load,
// 1 strict text parse, 2 special-mode text parse. The rest is the payload.
//
// The entry point links two ways:
//   - with -fsanitize=fuzzer (Clang): libFuzzer provides main() and mutates
//     from tests/fuzz/corpus/.
//   - with replay_main.cc (any compiler, including gcc): every corpus file
//     runs once, so the checked-in corpus — including any past findings
//     added as regression inputs — re-runs under plain ctest and under the
//     sanitizer CI legs.
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/approx_index.h"
#include "core/listing_index.h"
#include "core/serde.h"
#include "core/special_index.h"
#include "core/substring_index.h"
#include "core/usformat.h"
#include "engine/sharded_index.h"

namespace {

void LoadContainer(const std::string& blob) {
  const auto kind = pti::serde::PeekKind(blob);
  if (!kind.ok()) return;
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring:
      (void)pti::SubstringIndex::Load(blob);
      break;
    case pti::serde::IndexKind::kSharded:
      (void)pti::ShardedIndex::Load(blob);
      break;
    case pti::serde::IndexKind::kApprox:
      (void)pti::ApproxIndex::Load(blob);
      break;
    case pti::serde::IndexKind::kSpecial:
      (void)pti::SpecialIndex::Load(blob);
      break;
    case pti::serde::IndexKind::kListing:
      (void)pti::ListingIndex::Load(blob);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);
  switch (data[0] % 3) {
    case 0:
      LoadContainer(payload);
      break;
    case 1:
      (void)pti::ParseUncertainString(payload, /*require_unit_sums=*/true);
      break;
    default:
      (void)pti::ParseUncertainString(payload, /*require_unit_sums=*/false);
      break;
  }
  return 0;
}
