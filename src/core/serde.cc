#include "core/serde.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define PTI_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <cerrno>
#endif

#ifndef PTI_HAVE_MMAP
#include <fstream>
#include <sstream>
#endif

namespace pti {
namespace serde {

namespace {
// magic + kind + version + section count.
constexpr size_t kHeaderBytes = 16;
constexpr size_t kChecksumBytes = 8;
// v2 per-section header: u32 tag, u64 length.
constexpr size_t kV2SectionHeaderBytes = 12;
// v3 per-section header: u32 tag, u32 reserved zero, u64 length.
constexpr size_t kV3SectionHeaderBytes = 16;
// Far above anything an index writes; bounds hostile section counts before
// the per-section loop allocates anything.
constexpr uint32_t kMaxSections = 64;
// A serialized position is at least a u32 count plus one (u8, double)
// option; used to reject absurd element counts before any loop runs.
constexpr uint64_t kMinPositionBytes = 4 + 9;

size_t PadTo8(size_t n) { return (8 - n % 8) % 8; }

// Appends to a buffer reserved at its exact final size and folds each
// appended byte into the FNV-1a checksum while the bytes are still in
// cache, so a container is copied and hashed in one pass.
class ChecksummingWriter {
 public:
  explicit ChecksummingWriter(size_t size) { out_.Reserve(size); }

  void PutU32(uint32_t v) { Put(&v, sizeof(v)); }
  void PutU64(uint64_t v) { Put(&v, sizeof(v)); }
  void PutZeros(size_t n) {
    static constexpr char kZeros[8] = {};
    Put(kZeros, n);  // n < 8: only ever padding to the next multiple of 8
  }

  void Put(const void* p, size_t n) {
    const char* src = static_cast<const char*>(p);
    while (n > 0) {
      const size_t chunk = std::min(n, kChunkBytes);
      out_.PutRaw(src, chunk);
      hash_ = Fnv1a64(src, chunk, hash_);
      src += chunk;
      n -= chunk;
    }
  }

  /// Appends the checksum of everything written so far.
  std::string Finish() && {
    out_.PutU64(hash_);
    return std::move(out_.Take());
  }

 private:
  // Small enough that the hash re-reads what the copy just read from cache.
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  Writer out_;
  uint64_t hash_ = kFnv1a64Basis;
};
}  // namespace

Blob::Blob(std::string data) : data_(std::move(data)) {}

Blob::Blob(const void* map_base, size_t map_len)
    : map_base_(map_base), map_len_(map_len) {}

Blob::~Blob() {
#ifdef PTI_HAVE_MMAP
  if (map_base_ != nullptr && map_len_ > 0) {
    munmap(const_cast<void*>(map_base_), map_len_);
  }
#endif
}

StatusOr<BlobPtr> MapFile(const std::string& path) {
#ifdef PTI_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open '" + path + "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string cause = std::strerror(errno);
    ::close(fd);
    return Status::IOError("stat '" + path + "': " + cause);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    // mmap(0) is EINVAL; an empty file is representable as an empty blob
    // (Open will report it as short, not as an I/O failure).
    return std::make_shared<const Blob>(std::string());
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return Status::IOError("mmap '" + path + "': " + std::strerror(errno));
  }
  return std::make_shared<const Blob>(base, len);
#else
  return ReadFileToBlob(path);
#endif
}

StatusOr<BlobPtr> ReadFileToBlob(const std::string& path) {
#ifdef PTI_HAVE_MMAP
  // One allocation at the file's size and one copy out of the page cache.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open '" + path + "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string cause = std::strerror(errno);
    ::close(fd);
    return Status::IOError("stat '" + path + "': " + cause);
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, &data[done], data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string cause = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read '" + path + "': " + cause);
    }
    if (n == 0) break;  // the file shrank since fstat
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(done);
  // An empty file is an empty blob: short input is the container layer's
  // diagnosis (Corruption), not an I/O failure.
  return std::make_shared<const Blob>(std::move(data));
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("open '" + path + "': " + std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // An empty file legitimately inserts zero characters (failbit on `buf`);
  // only a bad source stream is an I/O failure. Short/empty blobs are the
  // container layer's diagnosis (Corruption), not ours.
  if (in.bad()) {
    return Status::IOError("read '" + path + "': " + std::strerror(errno));
  }
  return std::make_shared<const Blob>(std::move(buf).str());
#endif
}

const char* KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSubstring:
      return "substring";
    case IndexKind::kListing:
      return "listing";
    case IndexKind::kApprox:
      return "approx";
    case IndexKind::kSpecial:
      return "special";
    case IndexKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

Writer& ContainerWriter::AddSection(uint32_t tag) {
  sections_.push_back(Section{tag, Writer(/*aligned=*/version_ >= 3), {}});
  return sections_.back().payload;
}

void ContainerWriter::AddStringsSection(uint32_t tag,
                                        std::vector<std::string> strings) {
  sections_.push_back(Section{tag, Writer(/*aligned=*/version_ >= 3),
                              std::move(strings)});
}

std::string ContainerWriter::Finish() && {
  const bool v3 = version_ >= 3;
  // Exact payload lengths first, so the output is allocated once. A string
  // costs what Writer::PutString spends on it: alignment padding (v3),
  // the u64 length, the bytes.
  std::vector<uint64_t> lengths;
  lengths.reserve(sections_.size());
  size_t total = kHeaderBytes + kChecksumBytes;
  for (const Section& s : sections_) {
    size_t len = s.payload.size();
    for (const std::string& str : s.strings) {
      len += (v3 ? PadTo8(len) : 0) + sizeof(uint64_t) + str.size();
    }
    lengths.push_back(len);
    total += v3 ? kV3SectionHeaderBytes + len + PadTo8(len)
                : kV2SectionHeaderBytes + len;
  }

  ChecksummingWriter out(total);
  out.PutU32(kContainerMagic);
  out.PutU32(static_cast<uint32_t>(kind_));
  out.PutU32(version_);
  out.PutU32(static_cast<uint32_t>(sections_.size()));
  for (size_t k = 0; k < sections_.size(); ++k) {
    Section& s = sections_[k];
    out.PutU32(s.tag);
    // v3: the 16-byte section header + tail padding keep every payload at
    // an absolute offset that is a multiple of 8 (the file header is 16
    // bytes), so section-relative alignment is absolute alignment.
    if (v3) out.PutU32(0);
    out.PutU64(lengths[k]);
    size_t offset = s.payload.size();
    out.Put(s.payload.data().data(), offset);
    s.payload = Writer();
    for (std::string& str : s.strings) {
      const size_t pad = v3 ? PadTo8(offset) : 0;
      out.PutZeros(pad);
      out.PutU64(str.size());
      out.Put(str.data(), str.size());
      offset += pad + sizeof(uint64_t) + str.size();
      std::string().swap(str);
    }
    if (v3) out.PutZeros(PadTo8(offset));
  }
  return std::move(out).Finish();
}

Status ContainerReader::Open(std::string_view data, IndexKind expected_kind,
                             ContainerReader* out) {
  Reader r(data);
  if (data.size() < kHeaderBytes + kChecksumBytes) {
    return Status::Corruption("container shorter than header + checksum");
  }
  uint32_t magic = 0, kind = 0, version = 0, count = 0;
  PTI_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kContainerMagic) {
    return Status::Corruption("bad container magic");
  }
  PTI_RETURN_IF_ERROR(r.GetU32(&kind));
  if (kind != static_cast<uint32_t>(expected_kind)) {
    return Status::Corruption("index kind mismatch");
  }
  PTI_RETURN_IF_ERROR(r.GetU32(&version));
  if (version == 0 || version > kContainerVersion) {
    return Status::Corruption("unsupported container version");
  }
  PTI_RETURN_IF_ERROR(r.GetU32(&count));
  if (count > kMaxSections) {
    return Status::Corruption("unreasonable section count");
  }
  ContainerReader cr;
  cr.version_ = version;
  cr.entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t tag = 0;
    uint64_t len = 0;
    PTI_RETURN_IF_ERROR(r.GetU32(&tag));
    if (version >= 3) {
      uint32_t reserved = ~uint32_t{0};
      PTI_RETURN_IF_ERROR(r.GetU32(&reserved));
      if (reserved != 0) {
        return Status::Corruption("nonzero reserved bytes in section header");
      }
    }
    PTI_RETURN_IF_ERROR(r.GetU64(&len));
    const uint64_t pad = version >= 3 ? PadTo8(len) : 0;
    if (r.remaining() < kChecksumBytes ||
        len > r.remaining() - kChecksumBytes ||
        len + pad > r.remaining() - kChecksumBytes) {
      return Status::Corruption("section length overruns container");
    }
    for (const Entry& e : cr.entries_) {
      if (e.tag == tag) return Status::Corruption("duplicate section tag");
    }
    if (version >= 3 &&
        static_cast<size_t>(r.cursor() - data.data()) % 8 != 0) {
      return Status::Corruption("v3 section payload misaligned");
    }
    cr.entries_.push_back(Entry{tag, r.cursor(), len});
    PTI_RETURN_IF_ERROR(r.Skip(len + pad));
  }
  if (r.remaining() != kChecksumBytes) {
    return Status::Corruption("trailing bytes in container");
  }
  uint64_t stored = 0;
  PTI_RETURN_IF_ERROR(r.GetU64(&stored));
  const uint64_t actual =
      Fnv1a64(data.data(), data.size() - kChecksumBytes);
  if (stored != actual) {
    return Status::Corruption("container checksum mismatch");
  }
  *out = std::move(cr);
  return Status::OK();
}

Status ContainerReader::Section(uint32_t tag, Reader* out) const {
  for (const Entry& e : entries_) {
    if (e.tag == tag) {
      *out = Reader(e.data, e.size, /*aligned=*/version_ >= 3);
      return Status::OK();
    }
  }
  return Status::Corruption("missing container section");
}

bool ContainerReader::Has(uint32_t tag) const {
  for (const Entry& e : entries_) {
    if (e.tag == tag) return true;
  }
  return false;
}

StatusOr<IndexKind> PeekKind(std::string_view data) {
  Reader r(data);
  uint32_t magic = 0, kind = 0;
  PTI_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kContainerMagic) {
    return Status::Corruption("bad container magic");
  }
  PTI_RETURN_IF_ERROR(r.GetU32(&kind));
  switch (static_cast<IndexKind>(kind)) {
    case IndexKind::kSubstring:
    case IndexKind::kListing:
    case IndexKind::kApprox:
    case IndexKind::kSpecial:
    case IndexKind::kSharded:
      return static_cast<IndexKind>(kind);
  }
  return Status::Corruption("unknown index kind tag");
}

StatusOr<uint32_t> PeekVersion(std::string_view data) {
  Reader r(data);
  uint32_t magic = 0, kind = 0, version = 0;
  PTI_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kContainerMagic) {
    return Status::Corruption("bad container magic");
  }
  PTI_RETURN_IF_ERROR(r.GetU32(&kind));
  PTI_RETURN_IF_ERROR(r.GetU32(&version));
  return version;
}

Status ExpectSectionEnd(const Reader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::Corruption(std::string("trailing bytes in ") + what +
                              " section");
  }
  return Status::OK();
}

void EncodeUncertainString(const UncertainString& s, Writer* w) {
  w->PutU64(static_cast<uint64_t>(s.size()));
  for (int64_t p = 0; p < s.size(); ++p) {
    const auto& opts = s.options(p);
    w->PutU32(static_cast<uint32_t>(opts.size()));
    for (const auto& o : opts) {
      w->PutU8(o.ch);
      w->PutDouble(o.prob);
    }
  }
  w->PutU64(s.correlations().size());
  for (const auto& r : s.correlations()) {
    w->PutI64(r.pos);
    w->PutU8(r.ch);
    w->PutI64(r.dep_pos);
    w->PutU8(r.dep_ch);
    w->PutDouble(r.prob_if_present);
    w->PutDouble(r.prob_if_absent);
  }
}

Status DecodeUncertainString(Reader* r, UncertainString* out,
                             bool require_unit_sums) {
  *out = UncertainString();
  uint64_t n = 0;
  PTI_RETURN_IF_ERROR(r->GetU64(&n));
  if (n > r->remaining() / kMinPositionBytes) {
    return Status::Corruption("source length overruns section");
  }
  for (uint64_t p = 0; p < n; ++p) {
    uint32_t count = 0;
    PTI_RETURN_IF_ERROR(r->GetU32(&count));
    if (count == 0 || count > 256) {
      return Status::Corruption("bad option count");
    }
    std::vector<CharOption> opts(count);
    for (auto& o : opts) {
      PTI_RETURN_IF_ERROR(r->GetU8(&o.ch));
      PTI_RETURN_IF_ERROR(r->GetDouble(&o.prob));
      // Validate() also rejects NaN now, but only runs when the caller asks
      // for unit sums; hostile bytes must fail here with the precise
      // Corruption message either way.
      if (!std::isfinite(o.prob) || o.prob < 0.0 || o.prob > 1.0) {
        return Status::Corruption("option probability outside [0, 1]");
      }
    }
    out->AddPosition(std::move(opts));
  }
  uint64_t num_rules = 0;
  PTI_RETURN_IF_ERROR(r->GetU64(&num_rules));
  if (num_rules > r->remaining() / 34) {  // 2*i64 + 2*u8 + 2*double bytes
    return Status::Corruption("correlation count overruns section");
  }
  for (uint64_t k = 0; k < num_rules; ++k) {
    CorrelationRule rule;
    PTI_RETURN_IF_ERROR(r->GetI64(&rule.pos));
    PTI_RETURN_IF_ERROR(r->GetU8(&rule.ch));
    PTI_RETURN_IF_ERROR(r->GetI64(&rule.dep_pos));
    PTI_RETURN_IF_ERROR(r->GetU8(&rule.dep_ch));
    PTI_RETURN_IF_ERROR(r->GetDouble(&rule.prob_if_present));
    PTI_RETURN_IF_ERROR(r->GetDouble(&rule.prob_if_absent));
    if (!std::isfinite(rule.prob_if_present) ||
        !std::isfinite(rule.prob_if_absent)) {
      return Status::Corruption("correlation probability not finite");
    }
    const Status st = out->AddCorrelation(rule);
    if (!st.ok()) {
      return Status::Corruption("bad correlation rule: " + st.message());
    }
  }
  if (require_unit_sums) {
    const Status st = out->Validate();
    if (!st.ok()) {
      return Status::Corruption("source string failed validation: " +
                                st.message());
    }
  }
  return Status::OK();
}

void EncodeFactorSet(const FactorSet& fs, Writer* w) {
  w->PutSpan(fs.text.chars());
  w->PutSpan(fs.text.member_starts());
  w->PutSpan(fs.pos.span());
  w->PutSpan(fs.logp.span());
  w->PutSpan(fs.corr_positions.span());
  w->PutI64(fs.original_length);
  w->PutDouble(fs.tau_min);
}

Status ValidateFactorSet(const FactorSet& fs, const UncertainString& source) {
  const size_t n = fs.text.size();
  if (fs.pos.size() != n || fs.logp.size() != n) {
    return Status::Corruption("factor arrays inconsistent with text");
  }
  if (fs.original_length != source.size()) {
    return Status::Corruption("factor original length mismatches source");
  }
  if (!std::isfinite(fs.tau_min) || !(fs.tau_min > 0.0) || fs.tau_min > 1.0) {
    return Status::Corruption("factor tau_min outside (0, 1]");
  }
  for (size_t q = 0; q < n; ++q) {
    if (fs.text.IsSentinel(q)) {
      if (fs.pos[q] != -1 || fs.logp[q] != 0.0) {
        return Status::Corruption("sentinel position carries factor data");
      }
      continue;
    }
    if (fs.pos[q] < 0 || fs.pos[q] >= fs.original_length) {
      return Status::Corruption("factor position out of range");
    }
    // Window probabilities are prefix-sum differences of logp, and the
    // correlation adjustment assumes text offsets and S offsets advance
    // together inside a factor.
    if (q + 1 < n && !fs.text.IsSentinel(q + 1) &&
        fs.pos[q + 1] != fs.pos[q] + 1) {
      return Status::Corruption("factor positions not contiguous");
    }
    if (std::isnan(fs.logp[q]) || fs.logp[q] > 0.0) {
      return Status::Corruption("factor log-probability above 0");
    }
  }
  // corr_positions must be strictly increasing, point at real characters,
  // and resolve to a rule of the source string — query-time evaluation
  // looks each one up unconditionally, so a dangling entry would otherwise
  // throw out of rules.at().
  for (size_t k = 0; k < fs.corr_positions.size(); ++k) {
    const int64_t z = fs.corr_positions[k];
    if (z < 0 || z >= static_cast<int64_t>(n) || fs.text.IsSentinel(z)) {
      return Status::Corruption("correlated text position out of range");
    }
    if (k > 0 && fs.corr_positions[k - 1] >= z) {
      return Status::Corruption("correlated text positions not sorted");
    }
    const uint8_t ch = static_cast<uint8_t>(fs.text.chars()[z]);
    if (source.FindRule(fs.pos[z], ch) == nullptr) {
      return Status::Corruption(
          "correlated text position has no matching rule");
    }
  }
  return Status::OK();
}

Status DecodeFactorSet(Reader* r, const UncertainString& source,
                       FactorSet* out) {
  *out = FactorSet();
  std::vector<int32_t> chars;
  std::vector<int64_t> starts;
  PTI_RETURN_IF_ERROR(r->GetVector(&chars));
  PTI_RETURN_IF_ERROR(r->GetVector(&starts));
  PTI_ASSIGN_OR_RETURN(out->text,
                       Text::FromRaw(std::move(chars), std::move(starts)));
  std::vector<int64_t> pos;
  std::vector<double> logp;
  std::vector<int64_t> corr;
  PTI_RETURN_IF_ERROR(r->GetVector(&pos));
  PTI_RETURN_IF_ERROR(r->GetVector(&logp));
  PTI_RETURN_IF_ERROR(r->GetVector(&corr));
  out->pos = VecOrView<int64_t>(std::move(pos));
  out->logp = VecOrView<double>(std::move(logp));
  out->corr_positions = VecOrView<int64_t>(std::move(corr));
  PTI_RETURN_IF_ERROR(r->GetI64(&out->original_length));
  PTI_RETURN_IF_ERROR(r->GetDouble(&out->tau_min));
  return ValidateFactorSet(*out, source);
}

void EncodeFactorSetV3(const FactorSet& fs, Writer* text_w, Writer* maps_w) {
  text_w->PutSpan(fs.text.chars());
  text_w->PutSpan(fs.text.member_starts());
  maps_w->PutSpan(fs.pos.span());
  maps_w->PutSpan(fs.logp.span());
  maps_w->PutSpan(fs.corr_positions.span());
  maps_w->PutI64(fs.original_length);
  maps_w->PutDouble(fs.tau_min);
}

Status DecodeFactorSetV3(Reader* text_r, Reader* maps_r,
                         const UncertainString& source, FactorSet* out) {
  *out = FactorSet();
  Span<const int32_t> chars;
  Span<const int64_t> starts;
  PTI_RETURN_IF_ERROR(text_r->GetSpan(&chars));
  PTI_RETURN_IF_ERROR(text_r->GetSpan(&starts));
  PTI_ASSIGN_OR_RETURN(out->text, Text::FromViews(chars, starts));
  Span<const int64_t> pos;
  Span<const double> logp;
  Span<const int64_t> corr;
  PTI_RETURN_IF_ERROR(maps_r->GetSpan(&pos));
  PTI_RETURN_IF_ERROR(maps_r->GetSpan(&logp));
  PTI_RETURN_IF_ERROR(maps_r->GetSpan(&corr));
  out->pos = VecOrView<int64_t>::View(pos);
  out->logp = VecOrView<double>::View(logp);
  out->corr_positions = VecOrView<int64_t>::View(corr);
  PTI_RETURN_IF_ERROR(maps_r->GetI64(&out->original_length));
  PTI_RETURN_IF_ERROR(maps_r->GetDouble(&out->tau_min));
  return ValidateFactorSet(*out, source);
}

}  // namespace serde
}  // namespace pti
