#include "net/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string_view>
#include <sys/socket.h>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace pti {
namespace net {

struct NetServer::Impl {
  // One response waiting to be written: either a future still being
  // answered by the engine (kQuery) or an already-encoded frame (admin and
  // error replies). FIFO per connection, so pipelined responses leave in
  // request order.
  struct Outbound {
    uint64_t id = 0;
    std::future<ServingEngine::Result> result;
    std::string raw;
  };

  struct Conn {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Outbound> outbound;  // guarded by mu, bounded by max_pipeline
    bool writer_busy = false;       // guarded by mu: popped, not yet sent
    bool reader_done = false;       // guarded by mu: no more pushes coming
    bool aborted = false;           // guarded by mu: tear down now
    std::atomic<int> live_threads{2};
    std::atomic<bool> finished{false};
  };

  Impl(ServingEngine* eng, const NetServerOptions& opts)
      : engine(eng), options(opts) {
    if (options.max_connections < 1) options.max_connections = 1;
    if (options.listen_backlog < 1) options.listen_backlog = 1;
    if (options.max_pipeline < 1) options.max_pipeline = 1;
  }

  Status Start() {
    if (listen_fd >= 0) {
      return Status::InvalidArgument("server already started");
    }
    PTI_RETURN_IF_ERROR(ListenTcp(options.host, options.port,
                                  options.listen_backlog, &listen_fd,
                                  &bound_port));
    accept_thread = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  void AcceptLoop() {
    for (;;) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (stopping.load(std::memory_order_acquire)) {
        if (cfd >= 0) CloseFd(cfd);
        return;
      }
      if (cfd < 0) {
        const int err = errno;
        if (err == EINTR || err == ECONNABORTED) continue;
        if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
            err == ENOMEM || err == EAGAIN) {
          // Transient resource exhaustion (fd or buffer pressure — likely
          // at two threads and one fd per connection): back off briefly
          // and keep accepting instead of silently ending service for the
          // rest of the process lifetime.
          accept_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        // Listener genuinely unusable (EBADF/EINVAL outside Stop, or an
        // errno no retry can fix): record the exit so stats show that
        // acceptance has died rather than vanishing silently.
        accept_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const int one = 1;
      (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::lock_guard<std::mutex> lock(conns_mu);
      ReapLocked();
      if (conns.size() >= static_cast<size_t>(options.max_connections)) {
        connections_rejected.fetch_add(1, std::memory_order_relaxed);
        CloseFd(cfd);
        continue;
      }
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<Conn>();
      Conn* c = conn.get();
      c->fd = cfd;
      c->reader = std::thread([this, c] { ReaderLoop(c); });
      c->writer = std::thread([this, c] { WriterLoop(c); });
      conns.push_back(std::move(conn));
    }
  }

  // Joins and frees connections whose threads have both exited. Called
  // under conns_mu; join() on an exited thread returns immediately.
  void ReapLocked() {
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = **it;
      if (c.finished.load(std::memory_order_acquire)) {
        if (c.reader.joinable()) c.reader.join();
        if (c.writer.joinable()) c.writer.join();
        CloseFd(c.fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  void MarkThreadDone(Conn* c) {
    if (c->live_threads.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last thread out half-closes the socket so the peer sees EOF; the
      // fd itself is released when the connection is reaped.
      ShutdownFd(c->fd);
      c->finished.store(true, std::memory_order_release);
    }
  }

  void Abort(Conn* c) {
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->aborted = true;
    }
    c->cv.notify_all();
    ShutdownFd(c->fd);
  }

  // Hands one response to the connection, in request order. A response
  // that is already answered (a raw frame, or a future the engine resolved
  // inside Submit, e.g. a cache hit) while nothing is queued or being sent
  // goes out on the reader thread itself: no writer wake-up, no second
  // context switch. Anything else is queued for the writer, blocking when
  // the pipeline is full (backpressure toward a client that is not
  // reading). False when the connection is being torn down.
  bool Enqueue(Conn* c, Outbound item) {
    const bool ready =
        !item.result.valid() ||
        item.result.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready;
    bool writer_idle = false;
    if (ready) {
      std::lock_guard<std::mutex> lock(c->mu);
      writer_idle = !c->aborted && c->outbound.empty() && !c->writer_busy;
    }
    if (writer_idle) {
      // Only this thread pushes, so the queue stays empty and the writer
      // idle until the send below returns: FIFO order holds. The writer has
      // nothing new to see, so cv is not notified.
      if (!Send(c, std::move(item))) return false;
      responses_inline.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    {
      std::unique_lock<std::mutex> lock(c->mu);
      c->cv.wait(lock, [this, c] {
        return c->aborted || c->outbound.size() < options.max_pipeline;
      });
      if (c->aborted) return false;
      c->outbound.push_back(std::move(item));
    }
    c->cv.notify_all();
    return true;
  }

  // Encodes and writes one response, waiting for its future if needed.
  // False (after aborting the connection) when the client is gone.
  bool Send(Conn* c, Outbound item) {
    std::string frame;
    if (item.result.valid()) {
      ServingEngine::Result result = item.result.get();
      frame = EncodeResult(item.id, result.status,
                           Span<const Match>(result.matches));
    } else {
      frame = std::move(item.raw);
    }
    if (!WriteFull(c->fd, frame.data(), frame.size())) {
      Abort(c);  // client is gone; unblock the other thread too
      return false;
    }
    frames_sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool EnqueueRaw(Conn* c, uint64_t id, std::string frame) {
    Outbound item;
    item.id = id;
    item.raw = std::move(frame);
    return Enqueue(c, std::move(item));
  }

  void ReaderLoop(Conn* c) {
    std::string payload;
    for (;;) {
      char header[kFrameHeaderBytes];
      if (!ReadFull(c->fd, header, sizeof(header))) break;
      uint32_t payload_len = 0;
      Status st = DecodeHeader(header, &payload_len);
      if (!st.ok()) {
        // Unframed stream: a best-effort error reply, then close — there
        // is no trustworthy frame boundary left to resync on.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        (void)EnqueueRaw(c, 0, EncodeResult(0, st, {}));
        break;
      }
      payload.resize(payload_len);
      if (!ReadFull(c->fd, payload.data(), payload.size())) break;
      frames_received.fetch_add(1, std::memory_order_relaxed);
      Frame frame;
      st = DecodeFrame(payload, &frame);
      if (!st.ok()) {
        // Hostile payload inside an intact frame: answer with the error
        // and keep serving this connection.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        if (!EnqueueRaw(c, frame.id, EncodeResult(frame.id, st, {}))) break;
        continue;
      }
      if (!Dispatch(c, std::move(frame))) break;
    }
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->reader_done = true;
    }
    c->cv.notify_all();
    MarkThreadDone(c);
  }

  // Routes one well-formed frame; false ends the connection.
  bool Dispatch(Conn* c, Frame frame) {
    switch (frame.type) {
      case FrameType::kQuery: {
        queries.fetch_add(1, std::memory_order_relaxed);
        Outbound item;
        item.id = frame.id;
        item.result = engine->Submit(std::move(frame.request));
        return Enqueue(c, std::move(item));
      }
      case FrameType::kReload: {
        Status st = Status::NotSupported("reload disabled on this listener");
        if (options.allow_reload) {
          reloads.fetch_add(1, std::memory_order_relaxed);
          st = engine->Reload(frame.path, frame.use_mmap);
        }
        return EnqueueRaw(c, frame.id, EncodeResult(frame.id, st, {}));
      }
      case FrameType::kStats: {
        if (!options.allow_stats) {
          const Status st =
              Status::NotSupported("stats disabled on this listener");
          return EnqueueRaw(c, frame.id, EncodeResult(frame.id, st, {}));
        }
        return EnqueueRaw(c, frame.id,
                          EncodeStatsResult(frame.id, engine->stats()));
      }
      case FrameType::kResult:
      case FrameType::kStatsResult: {
        // Valid encodings, but only servers send them; a client pushing
        // one is a protocol error on an otherwise-intact stream.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        const Status st =
            Status::InvalidArgument("server-to-client frame type");
        return EnqueueRaw(c, frame.id, EncodeResult(frame.id, st, {}));
      }
    }
    return false;
  }

  // Resolves the responses the reader could not send itself (futures still
  // pending at Submit, and everything queued behind them), in FIFO order.
  void WriterLoop(Conn* c) {
    for (;;) {
      Outbound item;
      {
        std::unique_lock<std::mutex> lock(c->mu);
        c->writer_busy = false;
        c->cv.wait(lock, [c] {
          return c->aborted || c->reader_done || !c->outbound.empty();
        });
        if (c->aborted) break;
        if (c->outbound.empty()) break;  // reader done and fully drained
        item = std::move(c->outbound.front());
        c->outbound.pop_front();
        c->writer_busy = true;
      }
      c->cv.notify_all();  // reader may be blocked on the pipeline bound
      if (!Send(c, std::move(item))) break;
    }
    MarkThreadDone(c);
  }

  void Stop() {
    // call_once so concurrent Stop() callers (including the destructor's
    // Stop racing an explicit one) block until the first teardown has
    // joined everything, instead of returning while threads are mid-join
    // and letting ~NetServer free this Impl under them.
    std::call_once(stop_once, [this] {
      stopping.store(true, std::memory_order_release);
      ShutdownFd(listen_fd);
      CloseFd(listen_fd);
      if (accept_thread.joinable()) accept_thread.join();
      listen_fd = -1;
      std::lock_guard<std::mutex> lock(conns_mu);
      for (auto& conn : conns) Abort(conn.get());
      for (auto& conn : conns) {
        if (conn->reader.joinable()) conn->reader.join();
        if (conn->writer.joinable()) conn->writer.join();
        CloseFd(conn->fd);
      }
      conns.clear();
    });
  }

  ServingEngine* engine;
  NetServerOptions options;

  int listen_fd = -1;
  int32_t bound_port = 0;
  std::thread accept_thread;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> accept_retries{0};
  std::atomic<uint64_t> accept_failures{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> responses_inline{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> reloads{0};
};

NetServer::NetServer(ServingEngine* engine, const NetServerOptions& options)
    : impl_(new Impl(engine, options)) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() { return impl_->Start(); }

void NetServer::Stop() { impl_->Stop(); }

int32_t NetServer::port() const { return impl_->bound_port; }

NetServer::Stats NetServer::stats() const {
  const Impl& impl = *impl_;
  Stats s;
  s.connections_accepted =
      impl.connections_accepted.load(std::memory_order_relaxed);
  s.connections_rejected =
      impl.connections_rejected.load(std::memory_order_relaxed);
  s.accept_retries = impl.accept_retries.load(std::memory_order_relaxed);
  s.accept_failures = impl.accept_failures.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    uint64_t active = 0;
    for (const auto& conn : impl.conns) {
      if (!conn->finished.load(std::memory_order_acquire)) ++active;
    }
    s.connections_active = active;
  }
  s.frames_received = impl.frames_received.load(std::memory_order_relaxed);
  s.frames_sent = impl.frames_sent.load(std::memory_order_relaxed);
  s.responses_inline = impl.responses_inline.load(std::memory_order_relaxed);
  s.protocol_errors = impl.protocol_errors.load(std::memory_order_relaxed);
  s.queries = impl.queries.load(std::memory_order_relaxed);
  s.reloads = impl.reloads.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace pti
