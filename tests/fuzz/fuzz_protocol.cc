// Fuzz harness for the TCP front end's wire decoders (net/protocol.h): the
// frame header and every frame payload type. The contract under test is
// the one protocol.h promises: arbitrary bytes may fail with a Status but
// must never crash, over-read, or trip a sanitizer.
//
// The input is read as a byte stream, the way the server reads a socket:
// headers and payloads alternate until the bytes run out. A header that
// fails to decode ends the stream, and the remaining bytes are then decoded
// as a bare payload so payload decoding stays reachable without a valid
// header; a payload cut short by the end of the input is decoded as is. A
// frame that does decode must re-encode to a frame that decodes again to
// the same encoding (encode . decode is idempotent), which catches
// decoders that accept what the encoders can never produce.
//
// Links like fuzz_serde.cc: against libFuzzer (Clang, -fsanitize=fuzzer)
// or against replay_main.cc, which re-runs tests/fuzz/corpus_protocol/.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "net/protocol.h"

namespace {

// The canonical encoding of a decoded frame, or "" for the one type whose
// encoder cannot carry every decodable frame (kStatsResult accepts
// counters beyond the ones this build knows, but encodes from a Stats).
std::string Reencode(const pti::net::Frame& f) {
  using pti::net::FrameType;
  switch (f.type) {
    case FrameType::kQuery:
      return pti::net::EncodeQuery(f.id, f.request);
    case FrameType::kResult:
      return pti::net::EncodeResult(
          f.id, pti::net::StatusFromWire(f.code, f.message),
          f.matches);
    case FrameType::kReload:
      return pti::net::EncodeReload(f.id, f.path, f.use_mmap);
    case FrameType::kStats:
      return pti::net::EncodeStats(f.id);
    case FrameType::kStatsResult:
      return "";
  }
  return "";
}

// Decodes a complete encoded frame (header + payload) produced by an
// encoder; any failure is a bug, not hostile input.
pti::net::Frame DecodeEncoded(const std::string& wire) {
  uint32_t len = 0;
  pti::net::Frame frame;
  if (wire.size() < pti::net::kFrameHeaderBytes ||
      !pti::net::DecodeHeader(wire.data(), &len).ok() ||
      wire.size() != pti::net::kFrameHeaderBytes + len ||
      !pti::net::DecodeFrame(
           std::string_view(wire).substr(pti::net::kFrameHeaderBytes), &frame)
           .ok()) {
    std::abort();
  }
  return frame;
}

void DecodePayload(std::string_view payload) {
  pti::net::Frame frame;
  if (!pti::net::DecodeFrame(payload, &frame).ok()) return;
  if (!pti::net::ValidateForWire(frame.request).ok()) std::abort();
  const std::string once = Reencode(frame);
  if (once.empty()) return;
  if (Reencode(DecodeEncoded(once)) != once) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view rest(reinterpret_cast<const char*>(data), size);
  while (!rest.empty()) {
    uint32_t len = 0;
    if (rest.size() < pti::net::kFrameHeaderBytes ||
        !pti::net::DecodeHeader(rest.data(), &len).ok()) {
      DecodePayload(rest);
      break;
    }
    rest.remove_prefix(pti::net::kFrameHeaderBytes);
    DecodePayload(rest.substr(0, len));
    if (len > rest.size()) break;
    rest.remove_prefix(len);
  }
  return 0;
}
