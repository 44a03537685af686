// Binary serialization primitives for index persistence.
//
// Little-endian fixed-width primitives plus length-prefixed containers.
// Top-level framing (magic, kind, version, sections, checksum) lives in
// core/serde.h. Readers are bounds-checked and return Status::Corruption
// instead of reading past the end, so truncated or garbage files fail
// cleanly (exercised by the failure-injection tests).
//
// Aligned mode (container v3): a Writer/Reader pair constructed with
// `aligned = true` pads to an 8-byte boundary before every length-prefixed
// container (vector, span, string), so the u64 count and the payload both
// start at offsets that are multiples of 8 *within the section*. The v3
// container framing keeps every section payload at an absolute offset that
// is a multiple of 8, so section-relative alignment is absolute alignment —
// which is what lets Reader::GetSpan hand out pointers into the buffer
// (including an mmap'd file) instead of copying. Scalar Put/Get never pad;
// padding bytes are zero and are covered by the container checksum.

#ifndef PTI_UTIL_SERIAL_H_
#define PTI_UTIL_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace pti {

/// Appends primitives and containers to a byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(bool aligned) : aligned_(aligned) {}

  bool aligned() const { return aligned_; }

  /// Serialized bytes so far.
  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::string&& Take() { return std::move(buf_); }

  /// Allocates room for `n` bytes in total, so a writer whose final size is
  /// known up front fills one buffer instead of regrowing it.
  void Reserve(size_t n) { buf_.reserve(n); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// Zero-pads to the next multiple of 8 bytes (no-op when already there).
  void Align8() {
    while (buf_.size() % 8 != 0) buf_.push_back('\0');
  }

  /// Length-prefixed byte string.
  void PutString(const std::string& s) {
    if (aligned_) Align8();
    PutU64(s.size());
    buf_.append(s);
  }

  /// Length-prefixed sequence of a trivially copyable element type.
  template <typename T>
  void PutSpan(Span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (aligned_) Align8();
    PutU64(v.size());
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    PutSpan(Span<const T>(v.data(), v.size()));
  }

  /// Raw bytes: no length prefix, no padding.
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }

 private:
  std::string buf_;
  bool aligned_ = false;
};

/// Bounds-checked reader over a byte buffer. All Get* methods return
/// Corruption on underflow and leave the output untouched. Does not own the
/// bytes; the buffer must outlive the Reader (and anything a GetSpan view
/// points into).
class Reader {
 public:
  Reader() : data_(nullptr), size_(0) {}
  explicit Reader(std::string_view data)
      : data_(data.data()), size_(data.size()) {}
  Reader(const char* data, size_t size, bool aligned = false)
      : data_(data), size_(size), aligned_(aligned) {}

  bool aligned() const { return aligned_; }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Pointer to the next unread byte (for sub-range readers).
  const char* cursor() const { return data_ + pos_; }

  /// Advances past n bytes without copying them.
  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("skip past end of buffer");
    pos_ += n;
    return Status::OK();
  }

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetDouble(double* v) { return GetRaw(v, sizeof(*v)); }

  Status GetString(std::string* s) {
    std::string_view v;
    PTI_RETURN_IF_ERROR(GetStringView(&v));
    s->assign(v.data(), v.size());
    return Status::OK();
  }

  /// Like GetString without the copy; the view borrows the buffer.
  Status GetStringView(std::string_view* s) {
    if (aligned_) PTI_RETURN_IF_ERROR(SkipPadding());
    uint64_t n = 0;
    PTI_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining()) {
      return Status::Corruption("string length overruns buffer");
    }
    *s = std::string_view(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status GetVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (aligned_) PTI_RETURN_IF_ERROR(SkipPadding());
    uint64_t n = 0;
    PTI_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining() / sizeof(T)) {
      return Status::Corruption("vector length overruns buffer");
    }
    v->resize(n);
    if (n > 0) return GetRaw(v->data(), n * sizeof(T));
    return Status::OK();
  }

  /// Zero-copy counterpart of GetVector: the returned span points into the
  /// buffer. Requires aligned mode (the writer padded so the payload is
  /// 8-byte aligned); the pointer alignment is still re-checked so a
  /// mis-framed buffer yields Corruption, not unaligned loads.
  template <typename T>
  Status GetSpan(Span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    if (!aligned_) {
      return Status::Corruption("zero-copy read from unaligned container");
    }
    PTI_RETURN_IF_ERROR(SkipPadding());
    uint64_t n = 0;
    PTI_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining() / sizeof(T)) {
      return Status::Corruption("vector length overruns buffer");
    }
    const char* p = data_ + pos_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
      return Status::Corruption("section payload not aligned for zero-copy");
    }
    *out = Span<const T>(reinterpret_cast<const T*>(p), n);
    pos_ += n * sizeof(T);
    return Status::OK();
  }

 private:
  Status SkipPadding() {
    const size_t pad = (8 - pos_ % 8) % 8;
    return Skip(pad);
  }

  Status GetRaw(void* p, size_t n) {
    if (n > remaining()) return Status::Corruption("read past end of buffer");
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool aligned_ = false;
};

/// FNV-1a offset basis: the hash of zero bytes.
constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit hash, the container checksum of core/serde.h. Passing the
/// hash of a prefix as `h` continues it over the next bytes, so a buffer
/// can be hashed piecewise as it is written.
inline uint64_t Fnv1a64(const char* data, size_t n,
                        uint64_t h = kFnv1a64Basis) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace pti

#endif  // PTI_UTIL_SERIAL_H_
