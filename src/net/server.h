// NetServer: the TCP front end over ServingEngine — the socket-facing layer
// of the serving story (ROADMAP: network serving front end).
//
//   accept loop ──▶ per-connection reader ──decode──▶ engine.Submit(Request)
//                        │                                  │ future
//                        │◀─────────────────────────────────┘
//                        ├─ ready, nothing queued ──encode──▶ socket
//                        │
//                        │ otherwise: bounded outbound queue
//                        ▼
//                   per-connection writer ──wait, encode──▶ socket
//
// One reader + one writer thread per connection. The reader decodes frames
// (net/protocol.h) and submits. A response that is ready when Submit
// returns (a cache hit, an admin or error reply) goes out on the reader
// thread itself, provided nothing is queued ahead of it and the writer is
// not mid-send. Every other response is queued, and the writer resolves
// those futures in FIFO order and streams them back. Either way a client
// may pipeline requests and still receives responses in send order, each
// echoing its request id. The outbound queue is bounded: a client that
// stops reading eventually blocks its own reader (TCP backpressure), never
// the engine or other clients.
//
// Robustness contract (exercised by tests/net_server_test.cc): a hostile
// payload inside an intact frame gets an error kResult and the connection
// keeps serving; a broken frame header (bad magic, oversized length,
// truncation) gets a best-effort error and the connection is closed —
// the stream can no longer be resynced — while every other connection and
// the engine keep running. Overload never crashes: the engine's bounded
// admission lanes shed with Status::Unavailable, which travels back over
// the wire like any other status.
//
// Admin frames: kReload hot-swaps the served index (ServingEngine::Reload
// semantics — in-flight batches finish on their generation) and kStats
// snapshots the engine counters; both can be disabled via options.

#ifndef PTI_NET_SERVER_H_
#define PTI_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "engine/serving_engine.h"
#include "util/status.h"

namespace pti {
namespace net {

struct NetServerOptions {
  /// IPv4 address to bind. Default loopback: exposing the engine beyond
  /// the host is a deployment decision, not a default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int32_t port = 0;
  /// Connection cap: accepts past it are closed immediately (counted in
  /// Stats::connections_rejected). Each connection costs two threads.
  int32_t max_connections = 64;
  /// listen(2) backlog.
  int32_t listen_backlog = 64;
  /// Bound on responses queued per connection before the reader stops
  /// reading (TCP backpressure toward a client that does not drain).
  size_t max_pipeline = 1024;
  /// Admin frames: kReload swaps the served index; kStats reads counters.
  bool allow_reload = true;
  bool allow_stats = true;
};

class NetServer {
 public:
  /// Counter snapshot; cumulative except the labeled gauge.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  ///< over max_connections
    uint64_t connections_active = 0;    ///< gauge
    uint64_t accept_retries = 0;   ///< transient accept() errors retried
                                   ///< (fd/buffer exhaustion, aborted conns)
    uint64_t accept_failures = 0;  ///< accept() errors that permanently
                                   ///< ended the accept loop (should be 0)
    uint64_t frames_received = 0;       ///< well-framed payloads read
    uint64_t frames_sent = 0;
    uint64_t responses_inline = 0;  ///< of frames_sent, sent by the reader
                                    ///< without the writer handoff
    uint64_t protocol_errors = 0;  ///< hostile frames (either severity)
    uint64_t queries = 0;          ///< kQuery frames submitted
    uint64_t reloads = 0;          ///< kReload frames attempted
  };

  /// The engine must outlive the server. The server never owns it: one
  /// engine can stand behind a listener and in-process callers at once.
  explicit NetServer(ServingEngine* engine,
                     const NetServerOptions& options = {});
  /// Stops and joins (Stop()).
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the accept loop. Call once.
  Status Start();

  /// Closes the listener and every connection, then joins all threads.
  /// Idempotent and safe to call concurrently: later callers (including
  /// the destructor) block until the first teardown completes. Pending
  /// futures the engine already accepted still resolve inside the engine;
  /// their responses are simply no longer deliverable.
  void Stop();

  /// The bound port (after Start); useful with options.port == 0.
  int32_t port() const;

  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace pti

#endif  // PTI_NET_SERVER_H_
