// serde: the shared versioned container format for index persistence.
//
// Every persisted index (`.pti` file) is one container:
//
//   u32  container magic ("PTIC")
//   u32  index kind tag  ("SUBS" / "LIST" / "APRX" / "SPCL")
//   u32  container version
//   u32  section count
//   v2:  per section: u32 tag, u64 payload length, payload bytes
//   v3:  per section: u32 tag, u32 zero, u64 payload length, payload bytes,
//        zero padding to the next multiple of 8 bytes
//   u64  FNV-1a checksum of every preceding byte
//
// Version 3 is the zero-copy layout: the 16-byte file header plus 16-byte
// section headers plus tail padding keep every section payload at an
// absolute offset that is a multiple of 8, and payloads are written by
// aligned Writers (util/serial.h), so large fixed-width arrays (spliced
// text, per-position maps, suffix arrays, rank directories) can be *pointed
// into* — including inside an mmap'd file — rather than decoded. Version 2
// remains the interchange/fallback format and still round-trips.
//
// The framing is validated before any section payload is decoded: magic,
// kind, version, every section length against the remaining buffer, and the
// trailing checksum. Readers within a section are bounds-limited to that
// section's payload, so a corrupt length in one section can never leak reads
// into another. See docs/FORMAT.md for the full layout and the
// compatibility policy.
//
// This header also hosts the shared model encoders (UncertainString,
// FactorSet) used by all four index Save/Load implementations, so there is
// exactly one decoder to harden. Decoders validate everything — option
// counts, probability ranges, position bounds, sentinel structure, and that
// every recorded correlated position resolves to a real rule — and return
// Status::Corruption rather than crash or over-read on hostile input.

#ifndef PTI_CORE_SERDE_H_
#define PTI_CORE_SERDE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/factor_transform.h"
#include "core/uncertain_string.h"
#include "util/serial.h"
#include "util/status.h"

namespace pti {
namespace serde {

/// First four bytes of every persisted index ("PTIC" in a hex dump).
constexpr uint32_t kContainerMagic = 0x43495450;
/// The version this build writes by default, and the highest it reads.
/// Version 2 added the optional suffix-array section ("SARR"); version 3 is
/// the aligned zero-copy layout (and, for compact substring containers, the
/// persisted derived sections DERV/ACTV/FMIX/RMQB). Writers can be pinned
/// to kInterchangeVersion for v2 output; version-1 and version-2 files
/// still load.
constexpr uint32_t kContainerVersion = 3;
/// The portable fallback format (pre-alignment, fully decoded on load).
constexpr uint32_t kInterchangeVersion = 2;

/// Index kind tags (second u32 of the header; four ASCII bytes each).
enum class IndexKind : uint32_t {
  kSubstring = 0x53425553,  // "SUBS"
  kListing = 0x5453494C,    // "LIST"
  kApprox = 0x58525041,     // "APRX"
  kSpecial = 0x4C435053,    // "SPCL"
  kSharded = 0x44524853,    // "SHRD" (engine/sharded_index.h)
};

/// Human-readable kind name for CLI output ("substring", ...).
const char* KindName(IndexKind kind);

/// Section tags shared across index kinds (four ASCII bytes each).
constexpr uint32_t kTagOptions = 0x5354504F;  // "OPTS": build options
constexpr uint32_t kTagSource = 0x53435253;   // "SRCS": source string(s)
constexpr uint32_t kTagFactors = 0x54434146;  // "FACT": factor set (v2)
constexpr uint32_t kTagText = 0x54584554;     // "TEXT": spliced text
constexpr uint32_t kTagMaps = 0x5350414D;     // "MAPS": per-position arrays
constexpr uint32_t kTagShardManifest = 0x4E414D53;  // "SMAN": shard layout
constexpr uint32_t kTagShardBlobs = 0x424C4253;     // "SBLB": shard containers
constexpr uint32_t kTagSuffixArray = 0x52524153;    // "SARR": persisted SA
// v3 derived-structure sections (compact substring containers).
constexpr uint32_t kTagDerived = 0x56524544;   // "DERV": prefix sums et al.
constexpr uint32_t kTagActive = 0x56544341;    // "ACTV": §5.2 active bitsets
constexpr uint32_t kTagFmIndex = 0x58494D46;   // "FMIX": FM-index + wavelet
constexpr uint32_t kTagRmqBlocks = 0x42514D52;  // "RMQB": RMQ forest blocks

/// Owns the bytes behind a loaded index: either an ordinary heap buffer or
/// an mmap'd read-only file (unmapped on destruction). Indexes loaded from
/// a v3 container hold a shared_ptr to their Blob, so the views they took
/// can never dangle — the mapping lives exactly as long as the last index
/// (or in-flight query batch) using it.
class Blob {
 public:
  /// Takes ownership of heap bytes.
  explicit Blob(std::string data);
  /// Adopts an mmap'd region (internal; use MapFile).
  Blob(const void* map_base, size_t map_len);
  ~Blob();
  Blob(const Blob&) = delete;
  Blob& operator=(const Blob&) = delete;

  std::string_view view() const {
    return map_base_ != nullptr
               ? std::string_view(static_cast<const char*>(map_base_),
                                  map_len_)
               : std::string_view(data_);
  }
  bool mapped() const { return map_base_ != nullptr; }

 private:
  std::string data_;
  const void* map_base_ = nullptr;
  size_t map_len_ = 0;
};

using BlobPtr = std::shared_ptr<const Blob>;

/// mmaps `path` read-only (page cache shared across processes; nothing is
/// decoded). IOError with the errno cause on open/stat/map failure.
StatusOr<BlobPtr> MapFile(const std::string& path);

/// Reads `path` into an owned heap blob. IOError with the errno cause.
StatusOr<BlobPtr> ReadFileToBlob(const std::string& path);

/// Accumulates tagged sections, then assembles the framed container.
/// Sections of a version >= 3 container get aligned Writers (their
/// length-prefixed arrays pad to 8 bytes; see util/serial.h). The bytes of
/// a finished container depend only on the sections' contents, never on how
/// or in what order the caller produced them.
class ContainerWriter {
 public:
  explicit ContainerWriter(IndexKind kind,
                           uint32_t version = kContainerVersion)
      : kind_(kind), version_(version) {}

  uint32_t version() const { return version_; }

  /// Starts a new section; bytes written to the returned Writer become the
  /// section payload. Tags must be unique within one container. The
  /// reference stays valid across later AddSection calls (deque storage),
  /// so interleaved writes to earlier sections are safe.
  Writer& AddSection(uint32_t tag);

  /// Adds a section whose payload is `strings`, each length-prefixed
  /// exactly as the section's Writer::PutString would write it (8-byte
  /// aligned in a version >= 3 container). The strings are moved in and
  /// copied once, straight into the finished container: this is how a
  /// sharded index nests its shards' containers without an extra copy.
  void AddStringsSection(uint32_t tag, std::vector<std::string> strings);

  /// Header + section table + payloads + checksum, assembled in one pass
  /// into a buffer allocated once at its exact final size. Every byte is
  /// folded into the checksum as it is copied in, and each section's
  /// memory is released once it has been copied. Consumes the writer.
  std::string Finish() &&;

 private:
  struct Section {
    uint32_t tag = 0;
    Writer payload;
    // Appended after `payload`, framed as payload.PutString would.
    std::vector<std::string> strings;
  };

  IndexKind kind_;
  uint32_t version_;
  std::deque<Section> sections_;
};

/// Parses and fully validates container framing before handing out
/// bounds-limited per-section readers. Holds pointers into the source
/// buffer, which must outlive the reader — and outlive any Span a section
/// Reader handed out (v3 zero-copy loads pin the backing Blob for exactly
/// this reason).
class ContainerReader {
 public:
  /// Validates magic, kind, version, section lengths, v3 payload alignment
  /// and the checksum.
  static Status Open(std::string_view data, IndexKind expected_kind,
                     ContainerReader* out);

  uint32_t version() const { return version_; }

  /// Reader over the payload of a mandatory section; Corruption if absent.
  /// For v3 containers the Reader is in aligned mode (GetSpan works).
  Status Section(uint32_t tag, Reader* out) const;

  bool Has(uint32_t tag) const;

 private:
  struct Entry {
    uint32_t tag = 0;
    const char* data = nullptr;
    uint64_t size = 0;
  };
  uint32_t version_ = 0;
  std::vector<Entry> entries_;
};

/// Index kind of a serialized blob without decoding it (CLI dispatch).
/// Fails on short buffers, bad magic, or an unknown kind tag.
StatusOr<IndexKind> PeekKind(std::string_view data);

/// Container version of a serialized blob without decoding it.
StatusOr<uint32_t> PeekVersion(std::string_view data);

// ---- Shared model encoders ----

/// Positions (option count, then char/prob pairs) followed by correlation
/// rules.
void EncodeUncertainString(const UncertainString& s, Writer* w);

/// Inverse of EncodeUncertainString. Validates option counts, probability
/// ranges (finite, in [0, 1]) and rule bounds; with `require_unit_sums` it
/// additionally enforces the full §3 model invariants
/// (UncertainString::Validate). Special uncertain strings (§4) pass false:
/// their single option deliberately keeps mass below 1 (the "no occurrence"
/// event), and SpecialIndex::Build re-checks that form itself.
Status DecodeUncertainString(Reader* r, UncertainString* out,
                             bool require_unit_sums = true);

/// Text (chars + member starts), pos/logp maps, correlated positions,
/// original length, tau_min — the v2 "FACT" section.
void EncodeFactorSet(const FactorSet& fs, Writer* w);

/// Inverse of EncodeFactorSet, cross-checked against the already-decoded
/// `source` string: array sizes match the text, pos[] entries are sentinel
/// -1 / in-range and contiguous within each factor, logp values are valid
/// log-probabilities, original_length equals source.size(), tau_min is in
/// (0, 1], and every corr_positions entry is sorted, non-sentinel and
/// resolves to a correlation rule of `source` (a dangling entry would throw
/// at query time).
Status DecodeFactorSet(Reader* r, const UncertainString& source,
                       FactorSet* out);

/// v3 split encoding: the text arrays into a "TEXT" section writer and the
/// per-position maps + scalars into a "MAPS" section writer.
void EncodeFactorSetV3(const FactorSet& fs, Writer* text_w, Writer* maps_w);

/// Zero-copy inverse of EncodeFactorSetV3: every array in `out` is a view
/// into the section buffers (which the caller must keep alive via the
/// backing Blob). Runs the same validation sweep as DecodeFactorSet — the
/// scans read the arrays in place but allocate and copy nothing.
Status DecodeFactorSetV3(Reader* text_r, Reader* maps_r,
                         const UncertainString& source, FactorSet* out);

/// The validation sweep shared by both decoders (exposed for tests).
Status ValidateFactorSet(const FactorSet& fs, const UncertainString& source);

/// Shared guard for section decoders: every section must be consumed
/// exactly.
Status ExpectSectionEnd(const Reader& r, const char* what);

}  // namespace serde
}  // namespace pti

#endif  // PTI_CORE_SERDE_H_
