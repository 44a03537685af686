// NetClient: a small synchronous client for the pti wire protocol
// (net/protocol.h). One TCP connection, blocking calls; not thread-safe —
// callers that want concurrency open one client per thread (the server is
// built for many connections) or pipeline explicitly with the split
// Send*/Receive surface below.
//
// Two levels of API:
//   * Call-style: Query / Reload / QueryStats — send one frame, block for
//     its response, surface the server's Status verbatim.
//   * Pipelined: SendQuery / Receive — queue many requests on the socket
//     before reading any response (the server answers in FIFO order, each
//     response echoing its request id). This is what the open-loop bench
//     driver uses to model arrival rate independent of response latency.
// SendRaw exists so tests can deliver deliberately hostile bytes.

#ifndef PTI_NET_CLIENT_H_
#define PTI_NET_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/request.h"
#include "net/protocol.h"
#include "util/status.h"

namespace pti {
namespace net {

class NetClient {
 public:
  NetClient() = default;
  /// Closes the connection if still open.
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to an IPv4 host:port. Fails if already connected; a client
  /// may connect again after Close().
  Status Connect(const std::string& host, int32_t port);

  /// Closes the socket; further calls fail with IOError. Idempotent.
  void Close();

  bool connected() const { return fd_ >= 0; }

  // -- Call-style (send one, wait for its reply) --------------------------

  /// Runs one query and fills *matches. The returned Status is the
  /// server's verdict carried over the wire (e.g. Unavailable on load
  /// shed), or a local IOError/Corruption if the connection itself broke.
  Status Query(const Request& request, std::vector<Match>* matches);

  /// Hot-swaps the served index on the server (kReload frame).
  Status Reload(const std::string& path, bool use_mmap);

  /// Fetches the engine counter snapshot, in FlattenStats order.
  Status QueryStats(std::vector<uint64_t>* counters);

  // -- Pipelined ----------------------------------------------------------

  /// Sends a query frame without waiting; *id receives the request id to
  /// match against Receive()d responses.
  Status SendQuery(const Request& request, uint64_t* id);

  /// Blocks for the next response frame (kResult or kStatsResult).
  Status Receive(Frame* frame);

  // -- Test hooks ----------------------------------------------------------

  /// Writes arbitrary bytes to the socket, bypassing the encoder. For
  /// protocol-robustness tests only.
  Status SendRaw(const void* data, size_t n);

 private:
  Status SendFrame(const std::string& frame);
  /// Sends `frame` and blocks until the response whose id matches.
  Status RoundTrip(const std::string& frame, uint64_t id, Frame* response);

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

}  // namespace net
}  // namespace pti

#endif  // PTI_NET_CLIENT_H_
