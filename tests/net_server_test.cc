// net/server.h + net/client.h: a live loopback listener over a real
// ServingEngine. Round-trips must match the synchronous index exactly;
// pipelined responses come back in FIFO order with the right ids; hostile
// bytes (intact frame / broken framing) produce clean errors without
// stopping service to the connection (intact) or the server (broken);
// reload works over the wire under concurrent query traffic; and under
// overload the bounded batch lane sheds with Unavailable while the
// interactive lane keeps completing. Ready responses sent by the reader
// thread itself keep FIFO order with the ones the writer resolves, frames
// survive any split across recv calls on either side, and a reader blocked
// in its own send never stalls Stop() or other connections. The suite is
// in the sanitize and tsan CI regexes.

#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/substring_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "test_util.h"
#include "util/serial.h"

namespace pti {
namespace net {
namespace {

constexpr double kTauMin = 0.05;
constexpr const char* kHost = "127.0.0.1";

UncertainString MakeString(int64_t length, uint64_t seed) {
  test::RandomStringSpec spec;
  spec.length = length;
  spec.alphabet = 4;
  spec.seed = seed;
  return test::RandomUncertain(spec);
}

SubstringIndex BuildMono(const UncertainString& s) {
  IndexOptions options;
  options.transform.tau_min = kTauMin;
  auto index = SubstringIndex::Build(s, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

// A certain string of n 'a's: the pattern "a" matches at every position,
// so its result frame is about 16 * n bytes.
UncertainString MakeUnary(int64_t n) {
  UncertainString s;
  for (int64_t i = 0; i < n; ++i) {
    s.AddPosition({{static_cast<uint8_t>('a'), 1.0}});
  }
  return s;
}

// Engine + started server + the synchronous reference index, torn down in
// the right order (server stops before the engine it borrows).
struct LiveServer {
  explicit LiveServer(const UncertainString& s,
                      ServingOptions engine_options = {},
                      NetServerOptions server_options = {})
      : reference(BuildMono(s)),
        engine(BuildMono(s), engine_options),
        server(&engine, server_options) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~LiveServer() {
    server.Stop();
    engine.Stop();
  }

  SubstringIndex reference;
  ServingEngine engine;
  NetServer server;
};

TEST(NetServerTest, RoundTripMatchesTheSynchronousPath) {
  const UncertainString s = MakeString(300, 11);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    const size_t len = 1 + rng.Uniform(6);
    Request request;
    request.pattern = test::PatternFromString(
        s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
        rng.Next());
    request.tau = (q % 2) ? 0.1 : 0.3;

    std::vector<Match> expected;
    const Status expected_status =
        live.reference.Query(request.pattern, request.tau, &expected);
    std::vector<Match> matches;
    const Status status = client.Query(request, &matches);
    EXPECT_EQ(status.code(), expected_status.code())
        << "query #" << q << ": " << status.ToString();
    // Bit-identical across the wire: doubles travel as their exact bits.
    EXPECT_TRUE(matches == expected) << "query #" << q;
  }
  const auto stats = live.server.stats();
  EXPECT_EQ(stats.queries, 40u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

TEST(NetServerTest, InvalidRequestsComeBackAsStatusesNotDisconnects) {
  const UncertainString s = MakeString(200, 21);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  std::vector<Match> matches;

  // Empty pattern: InvalidArgument from the index, carried over the wire.
  EXPECT_TRUE(client.Query({"", 0.2}, &matches).IsInvalidArgument());
  // k above kMaxFuzzyErrors: answered (NotSupported) without queueing.
  EXPECT_TRUE(client.Query({"ac", 0.2, FuzzyMetric::kMismatch, 7}, &matches)
                  .IsNotSupported());
  // k outside the u8 wire field: rejected client-side before encoding — a
  // masked k=256 would silently go out as an exact-match query.
  EXPECT_TRUE(client.Query({"ac", 0.2, FuzzyMetric::kMismatch, 256}, &matches)
                  .IsInvalidArgument());
  EXPECT_TRUE(client.Query({"ac", 0.2, FuzzyMetric::kMismatch, -1}, &matches)
                  .IsInvalidArgument());
  uint64_t id = 0;
  EXPECT_TRUE(
      client.SendQuery({"ac", 0.2, FuzzyMetric::kMismatch, 256}, &id)
          .IsInvalidArgument());
  // The connection is still serving.
  const std::string pattern = test::PatternFromString(s, 5, 3, 22);
  EXPECT_TRUE(client.Query({pattern, 0.2}, &matches).ok());
}

TEST(NetServerTest, PipelinedResponsesArriveInOrderWithMatchingIds) {
  const UncertainString s = MakeString(250, 31);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());

  constexpr size_t kPipelined = 32;
  Rng rng(32);
  std::vector<uint64_t> ids;
  std::vector<Request> requests;
  for (size_t q = 0; q < kPipelined; ++q) {
    const size_t len = 1 + rng.Uniform(5);
    Request request;
    request.pattern = test::PatternFromString(
        s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
        rng.Next());
    request.tau = 0.2;
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(request, &id).ok());
    ids.push_back(id);
    requests.push_back(std::move(request));
  }
  for (size_t q = 0; q < kPipelined; ++q) {
    Frame frame;
    ASSERT_TRUE(client.Receive(&frame).ok()) << "response #" << q;
    EXPECT_EQ(frame.type, FrameType::kResult);
    // FIFO: response q answers request q, echoing its id.
    EXPECT_EQ(frame.id, ids[q]);
    std::vector<Match> expected;
    const Status expected_status =
        live.reference.Query(requests[q].pattern, requests[q].tau, &expected);
    EXPECT_EQ(frame.code, expected_status.code());
    EXPECT_TRUE(frame.matches == expected) << "response #" << q;
  }
}

TEST(NetServerTest, InlineHitsAndQueuedMissesKeepSendOrder) {
  const UncertainString s = MakeString(300, 36);
  LiveServer live(s);

  // Answer the repeated request once on another connection, so it is a
  // cache hit (ready at Submit) from here on, and the pipelining
  // connection starts with an idle writer: its first response, a hit, is
  // sent by the reader itself.
  const Request hit{test::PatternFromString(s, 10, 4, 37), 0.3};
  std::vector<Match> matches;
  {
    NetClient warm;
    ASSERT_TRUE(warm.Connect(kHost, live.server.port()).ok());
    ASSERT_TRUE(warm.Query(hit, &matches).ok());
  }

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  constexpr size_t kPipelined = 64;
  Rng rng(38);
  std::vector<uint64_t> ids;
  std::vector<Request> requests;
  for (size_t q = 0; q < kPipelined; ++q) {
    Request request = hit;
    if (q % 2 == 1) {
      // A fresh key (the tau alone is new) that misses the cache and
      // waits out the engine's linger window.
      const size_t len = 2 + rng.Uniform(4);
      request.pattern = test::PatternFromString(
          s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
          rng.Next());
      request.tau = 0.1 + 0.005 * static_cast<double>(q);
    }
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(request, &id).ok());
    ids.push_back(id);
    requests.push_back(std::move(request));
  }
  for (size_t q = 0; q < kPipelined; ++q) {
    Frame frame;
    ASSERT_TRUE(client.Receive(&frame).ok()) << "response #" << q;
    EXPECT_EQ(frame.type, FrameType::kResult);
    EXPECT_EQ(frame.id, ids[q]) << "response #" << q;
    std::vector<Match> expected;
    const Status expected_status =
        live.reference.Query(requests[q].pattern, requests[q].tau, &expected);
    EXPECT_EQ(frame.code, expected_status.code()) << "response #" << q;
    EXPECT_TRUE(frame.matches == expected) << "response #" << q;
  }
  // The server counts a frame once its write returns, so the count can
  // trail the client's read of the last frame by a moment.
  auto stats = live.server.stats();
  for (int wait_ms = 0; wait_ms < 2000 && stats.frames_sent < kPipelined + 1;
       ++wait_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = live.server.stats();
  }
  EXPECT_EQ(stats.frames_sent, kPipelined + 1);
  // At least the first hit skipped the writer; the misses cannot.
  EXPECT_GT(stats.responses_inline, 0u);
  EXPECT_LT(stats.responses_inline, stats.frames_sent);
}

TEST(NetServerTest, ReadyResponseWaitsForTheOneTheWriterIsSending) {
  const UncertainString s = MakeString(200, 131);
  ServingOptions engine_options;
  engine_options.linger_us = 200000;  // a lone miss waits this long
  LiveServer live(s, engine_options);

  const Request hit{test::PatternFromString(s, 10, 4, 132), 0.3};
  const Request miss{test::PatternFromString(s, 40, 3, 133), 0.2};
  std::vector<Match> matches;
  {
    NetClient warm;
    ASSERT_TRUE(warm.Connect(kHost, live.server.port()).ok());
    ASSERT_TRUE(warm.Query(hit, &matches).ok());
  }

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  uint64_t miss_id = 0;
  uint64_t hit_id = 0;
  ASSERT_TRUE(client.SendQuery(miss, &miss_id).ok());
  // Long enough for the writer to pop the miss and block on its future:
  // the queue is empty then, but the hit must still not overtake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.SendQuery(hit, &hit_id).ok());
  Frame frame;
  ASSERT_TRUE(client.Receive(&frame).ok());
  EXPECT_EQ(frame.id, miss_id);
  ASSERT_TRUE(client.Receive(&frame).ok());
  EXPECT_EQ(frame.id, hit_id);
  std::vector<Match> expected;
  ASSERT_TRUE(live.reference.Query(hit.pattern, hit.tau, &expected).ok());
  EXPECT_TRUE(frame.matches == expected);
}

TEST(NetServerTest, ServerReadsFramesHoweverTheyAreSplit) {
  const UncertainString s = MakeString(250, 121);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  Rng rng(122);
  uint64_t next_id = 500;
  std::vector<uint64_t> ids;
  std::vector<Request> requests;
  auto next_frame = [&] {
    const size_t len = 1 + rng.Uniform(5);
    Request request;
    request.pattern = test::PatternFromString(
        s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
        rng.Next());
    request.tau = 0.2;
    ids.push_back(next_id);
    requests.push_back(request);
    return EncodeQuery(next_id++, request);
  };

  // Several complete frames in one send.
  std::string batch;
  for (int f = 0; f < 5; ++f) batch += next_frame();
  ASSERT_TRUE(client.SendRaw(batch.data(), batch.size()).ok());
  // One frame a byte at a time (TCP_NODELAY: each byte its own segment).
  const std::string trickle = next_frame();
  for (char byte : trickle) ASSERT_TRUE(client.SendRaw(&byte, 1).ok());
  // Header, then payload.
  const std::string split = next_frame();
  ASSERT_TRUE(client.SendRaw(split.data(), kFrameHeaderBytes).ok());
  ASSERT_TRUE(client
                  .SendRaw(split.data() + kFrameHeaderBytes,
                           split.size() - kFrameHeaderBytes)
                  .ok());

  for (size_t q = 0; q < ids.size(); ++q) {
    Frame frame;
    ASSERT_TRUE(client.Receive(&frame).ok()) << "response #" << q;
    EXPECT_EQ(frame.id, ids[q]);
    std::vector<Match> expected;
    const Status expected_status =
        live.reference.Query(requests[q].pattern, requests[q].tau, &expected);
    EXPECT_EQ(frame.code, expected_status.code());
    EXPECT_TRUE(frame.matches == expected) << "response #" << q;
  }
  EXPECT_EQ(live.server.stats().protocol_errors, 0u);
}

TEST(NetServerTest, ClientReadsAResultFrameSpanningManyRecvs) {
  // 20,000 matches of 16 bytes: a ~320 KB result frame, several times what
  // one recv returns on loopback.
  const UncertainString s = MakeUnary(20000);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  std::vector<Match> expected;
  ASSERT_TRUE(live.reference.Query("a", 0.5, &expected).ok());
  ASSERT_EQ(expected.size(), 20000u);
  // Twice, so the second (a cache hit) follows the first on the stream.
  for (int round = 0; round < 2; ++round) {
    std::vector<Match> matches;
    ASSERT_TRUE(client.Query({"a", 0.5}, &matches).ok());
    EXPECT_TRUE(matches == expected) << "round " << round;
  }
}

TEST(NetServerTest, ClientReconnectReadsOnlyTheNewSocket) {
  // A scripted peer instead of a NetServer, so the bytes left unread on the
  // first connection are known exactly. A client that read ahead (buffered
  // or otherwise) must not hand them out after reconnecting.
  int listen_fd = -1;
  int32_t port = 0;
  ASSERT_TRUE(ListenTcp(kHost, 0, 4, &listen_fd, &port).ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, port).ok());
  int peer = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  // Two frames in one write; Receive hands back only the first.
  const std::string two =
      EncodeResult(1, Status::OK(), {}) + EncodeResult(2, Status::OK(), {});
  ASSERT_TRUE(WriteFull(peer, two.data(), two.size()));
  Frame frame;
  ASSERT_TRUE(client.Receive(&frame).ok());
  EXPECT_EQ(frame.id, 1u);
  client.Close();
  CloseFd(peer);

  ASSERT_TRUE(client.Connect(kHost, port).ok());
  peer = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const std::string third = EncodeResult(3, Status::OK(), {});
  ASSERT_TRUE(WriteFull(peer, third.data(), third.size()));
  ASSERT_TRUE(client.Receive(&frame).ok());
  EXPECT_EQ(frame.id, 3u);  // not the stale frame 2
  client.Close();
  CloseFd(peer);
  CloseFd(listen_fd);
}

TEST(NetServerTest, ReaderBlockedInItsOwnSendStillStopsCleanly) {
  // Each answer to "a" is ~64 KiB; kRequests of them overflow any socket
  // buffer while the requests themselves (~30 bytes each) never fill one.
  const UncertainString s = MakeUnary(4000);
  LiveServer live(s);
  const Request request{"a", 0.5};

  // Make "a" a cache hit, so every pipelined answer is ready at Submit and
  // the reader sends it itself.
  NetClient other;
  ASSERT_TRUE(other.Connect(kHost, live.server.port()).ok());
  std::vector<Match> matches;
  ASSERT_TRUE(other.Query(request, &matches).ok());

  // A client that pipelines and never reads.
  constexpr uint64_t kRequests = 1000;
  NetClient stalled;
  ASSERT_TRUE(stalled.Connect(kHost, live.server.port()).ok());
  for (uint64_t q = 0; q < kRequests; ++q) {
    uint64_t id = 0;
    ASSERT_TRUE(stalled.SendQuery(request, &id).ok());
  }
  // Wait until the server stops making progress on it: its reader is
  // parked inside a send the full socket buffers cannot take.
  uint64_t sent = 0;
  for (int still = 0; still < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now = live.server.stats().frames_sent;
    still = (now == sent) ? still + 1 : 0;
    sent = now;
  }
  EXPECT_LT(sent, kRequests + 1);
  EXPECT_GT(live.server.stats().responses_inline, 0u);

  // Other connections are still served...
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(other.Query(request, &matches).ok());
    EXPECT_EQ(matches.size(), 4000u);
  }
  // ...and Stop() returns: aborting the connection shuts its socket down,
  // which fails the blocked send.
  live.server.Stop();
  EXPECT_FALSE(other.Query(request, &matches).ok());
}

TEST(NetServerTest, HostilePayloadGetsErrorAndConnectionKeepsServing) {
  const UncertainString s = MakeString(200, 41);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());

  // A well-framed payload with a hostile body: bad metric tag behind a
  // valid (type, id) prefix. Build the frame by hand.
  Writer payload;
  payload.PutU8(static_cast<uint8_t>(FrameType::kQuery));
  payload.PutU64(907);
  payload.PutDouble(0.5);
  payload.PutU8(9);  // metric out of range
  payload.PutU8(0);
  payload.PutU8(0);
  payload.PutU8(0);
  payload.PutString("ac");
  const std::string body = payload.Take();
  Writer frame;
  frame.PutU32(kFrameMagic);
  frame.PutU32(static_cast<uint32_t>(body.size()));
  const std::string head = frame.Take();
  ASSERT_TRUE(client.SendRaw(head.data(), head.size()).ok());
  ASSERT_TRUE(client.SendRaw(body.data(), body.size()).ok());

  // The server answers with an addressable error and keeps the connection.
  Frame response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_EQ(response.type, FrameType::kResult);
  EXPECT_EQ(response.id, 907u);
  EXPECT_EQ(response.code, Status::Code::kCorruption);

  const std::string pattern = test::PatternFromString(s, 5, 3, 42);
  std::vector<Match> matches;
  EXPECT_TRUE(client.Query({pattern, 0.2}, &matches).ok());
  EXPECT_EQ(live.server.stats().protocol_errors, 1u);
}

TEST(NetServerTest, BrokenFramingClosesOnlyTheOffendingConnection) {
  const UncertainString s = MakeString(200, 51);
  LiveServer live(s);
  const std::string pattern = test::PatternFromString(s, 5, 3, 52);

  NetClient honest;
  ASSERT_TRUE(honest.Connect(kHost, live.server.port()).ok());

  {
    NetClient hostile;
    ASSERT_TRUE(hostile.Connect(kHost, live.server.port()).ok());
    const char garbage[16] = {'g', 'a', 'r', 'b', 'a', 'g', 'e', '!',
                              'g', 'a', 'r', 'b', 'a', 'g', 'e', '!'};
    ASSERT_TRUE(hostile.SendRaw(garbage, sizeof(garbage)).ok());
    // Best-effort error (id 0, Corruption), then the stream ends: there is
    // no frame boundary left to resync on.
    Frame response;
    const Status received = hostile.Receive(&response);
    if (received.ok()) {
      EXPECT_EQ(response.id, 0u);
      EXPECT_EQ(response.code, Status::Code::kCorruption);
      EXPECT_TRUE(hostile.Receive(&response).IsIOError());
    }
  }

  // The honest connection (and new ones) never noticed.
  std::vector<Match> matches;
  EXPECT_TRUE(honest.Query({pattern, 0.2}, &matches).ok());
  NetClient late;
  ASSERT_TRUE(late.Connect(kHost, live.server.port()).ok());
  EXPECT_TRUE(late.Query({pattern, 0.2}, &matches).ok());
  EXPECT_GE(live.server.stats().protocol_errors, 1u);
}

TEST(NetServerTest, TruncatedFrameMidPayloadIsACleanDisconnect) {
  const UncertainString s = MakeString(200, 61);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  // A valid header promising 100 payload bytes, then EOF after 10.
  Writer w;
  w.PutU32(kFrameMagic);
  w.PutU32(100);
  const std::string head = w.Take();
  ASSERT_TRUE(client.SendRaw(head.data(), head.size()).ok());
  ASSERT_TRUE(client.SendRaw("tenbytes!!", 10).ok());
  client.Close();

  // The server shrugs it off; a fresh connection is served.
  NetClient next;
  ASSERT_TRUE(next.Connect(kHost, live.server.port()).ok());
  const std::string pattern = test::PatternFromString(s, 5, 3, 62);
  std::vector<Match> matches;
  EXPECT_TRUE(next.Query({pattern, 0.2}, &matches).ok());
}

TEST(NetServerTest, StatsFrameReportsEngineCounters) {
  const UncertainString s = MakeString(200, 71);
  LiveServer live(s);

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
  const std::string pattern = test::PatternFromString(s, 5, 3, 72);
  std::vector<Match> matches;
  ASSERT_TRUE(client.Query({pattern, 0.2}, &matches).ok());
  ASSERT_TRUE(client.Query({pattern, 0.2}, &matches).ok());

  std::vector<uint64_t> counters;
  ASSERT_TRUE(client.QueryStats(&counters).ok());
  ASSERT_GE(counters.size(), kStatsFields);
  const std::vector<uint64_t> expected = FlattenStats(live.engine.stats());
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(counters[0], 2u);  // submitted
  EXPECT_EQ(counters[1], 2u);  // completed
  EXPECT_EQ(counters[4], 1u);  // cache_hits: the repeat
}

TEST(NetServerTest, ReloadOverTheWireSwapsUnderConcurrentTraffic) {
  const UncertainString s = MakeString(250, 81);
  LiveServer live(s);

  // Serialize a compact build of the same string to disk: either
  // generation answers identically, so traffic during the swap has one
  // right answer.
  const std::string path = ::testing::TempDir() + "pti_net_reload.pti";
  {
    IndexOptions options;
    options.transform.tau_min = kTauMin;
    options.compact = true;
    auto compact = SubstringIndex::Build(s, options);
    ASSERT_TRUE(compact.ok());
    std::string blob;
    ASSERT_TRUE(compact->Save(&blob).ok());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(out.good());
  }

  // One connection hammers queries while another issues reloads.
  std::atomic<bool> done{false};
  std::thread traffic([&] {
    NetClient client;
    ASSERT_TRUE(client.Connect(kHost, live.server.port()).ok());
    Rng rng(82);
    while (!done.load(std::memory_order_relaxed)) {
      const size_t len = 1 + rng.Uniform(5);
      Request request;
      request.pattern = test::PatternFromString(
          s, static_cast<int64_t>(rng.Uniform(s.size() - len + 1)), len,
          rng.Next());
      request.tau = 0.2;
      std::vector<Match> expected;
      const Status expected_status =
          live.reference.Query(request.pattern, request.tau, &expected);
      std::vector<Match> matches;
      const Status status = client.Query(request, &matches);
      ASSERT_TRUE(client.connected());
      EXPECT_EQ(status.code(), expected_status.code());
      EXPECT_TRUE(matches == expected);
    }
  });

  NetClient admin;
  ASSERT_TRUE(admin.Connect(kHost, live.server.port()).ok());
  for (int r = 0; r < 5; ++r) {
    const Status reloaded = admin.Reload(path, /*use_mmap=*/true);
    EXPECT_TRUE(reloaded.ok()) << reloaded.ToString();
  }
  // A failed reload is an error status, not a dropped connection, and the
  // serving generation survives.
  EXPECT_FALSE(admin.Reload(path + ".absent", true).ok());
  EXPECT_TRUE(admin.connected());

  done.store(true, std::memory_order_relaxed);
  traffic.join();

  const auto stats = live.engine.stats();
  EXPECT_EQ(stats.reloads, 5u);
  EXPECT_EQ(stats.generation, 6u);
  EXPECT_EQ(live.server.stats().reloads, 6u);  // attempts, incl. the failure
  std::remove(path.c_str());
}

TEST(NetServerTest, OverloadShedsBatchWhileInteractiveCompletes) {
  const UncertainString s = MakeString(200, 91);

  // One worker pinned in a long linger window with room for 2 requests per
  // lane: admission outcomes are decided while the lanes provably hold
  // their requests (same recipe as the engine-level admission tests).
  ServingOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 64;
  engine_options.linger_us = 300000;
  engine_options.cache_bytes = 0;
  engine_options.max_pending = 2;
  LiveServer live(s, engine_options);

  NetClient batch_client;
  ASSERT_TRUE(batch_client.Connect(kHost, live.server.port()).ok());
  NetClient interactive_client;
  ASSERT_TRUE(interactive_client.Connect(kHost, live.server.port()).ok());

  // Pipeline 5 distinct batch-lane queries: 2 occupy the lane, 3 shed.
  std::vector<uint64_t> ids;
  for (int q = 0; q < 5; ++q) {
    Request request;
    request.pattern = test::PatternFromString(s, 4 + 7 * q, 3, 92 + q);
    request.tau = 0.2;
    request.priority = Priority::kBatch;
    uint64_t id = 0;
    ASSERT_TRUE(batch_client.SendQuery(request, &id).ok());
    ids.push_back(id);
  }

  // The interactive lane is bounded independently: this request is
  // admitted and answered even though the batch lane is over capacity.
  const std::string pattern = test::PatternFromString(s, 40, 3, 99);
  std::vector<Match> matches;
  const Status interactive = interactive_client.Query({pattern, 0.2}, &matches);
  EXPECT_TRUE(interactive.ok()) << interactive.ToString();

  size_t ok = 0, unavailable = 0;
  for (size_t q = 0; q < ids.size(); ++q) {
    Frame frame;
    ASSERT_TRUE(batch_client.Receive(&frame).ok());
    EXPECT_EQ(frame.id, ids[q]);
    if (frame.code == Status::Code::kOk) {
      ++ok;
    } else {
      // Load shed is a first-class, retryable wire status.
      EXPECT_EQ(frame.code, Status::Code::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(unavailable, 3u);

  const auto stats = live.engine.stats();
  EXPECT_EQ(stats.batch_shed, 3u);
  EXPECT_EQ(stats.interactive_shed, 0u);
  EXPECT_EQ(stats.interactive_completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.rejected);
}

TEST(NetServerTest, OversizedResultIsResourceExhaustedNotADisconnect) {
  // A certain unary string: the single-character pattern matches at every
  // position, overflowing the 1 MiB kResult frame cap by construction.
  const UncertainString s =
      MakeUnary(static_cast<int64_t>(kMaxResultMatches) + 1000);
  ServingEngine engine(BuildMono(s), {});
  NetServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  std::vector<Match> matches;
  const Status overflow = client.Query({"a", 0.5}, &matches);
  // The in-process path returns all n matches; one frame cannot carry
  // them, so the wire degrades to a retryable per-request status...
  EXPECT_TRUE(overflow.IsResourceExhausted()) << overflow.ToString();
  EXPECT_TRUE(matches.empty());
  // ...and the connection (not just the server) keeps serving.
  const Status after = client.Query({"b", 0.5}, &matches);
  EXPECT_TRUE(after.ok()) << after.ToString();
  EXPECT_TRUE(matches.empty());
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(server.stats().protocol_errors, 0u);

  server.Stop();
  engine.Stop();
}

TEST(NetServerTest, ConcurrentStopCallsBlockUntilTeardownCompletes) {
  const UncertainString s = MakeString(150, 111);
  auto live = std::make_unique<LiveServer>(s);
  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live->server.port()).ok());
  const std::string pattern = test::PatternFromString(s, 5, 3, 112);
  std::vector<Match> matches;
  ASSERT_TRUE(client.Query({pattern, 0.2}, &matches).ok());

  // Every Stop() must block until the one that wins has joined all server
  // threads; returning early would let the destructor free the server
  // while another Stop is still mid-join (TSan-checked).
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] { live->server.Stop(); });
  }
  for (std::thread& th : stoppers) th.join();
  live.reset();
}

TEST(NetServerTest, ServerStopLeavesCleanlyWithClientsConnected) {
  const UncertainString s = MakeString(150, 101);
  auto live = std::make_unique<LiveServer>(s);
  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, live->server.port()).ok());
  const std::string pattern = test::PatternFromString(s, 5, 3, 102);
  std::vector<Match> matches;
  ASSERT_TRUE(client.Query({pattern, 0.2}, &matches).ok());

  live->server.Stop();
  // The client sees a closed stream, not a hang.
  const Status gone = client.Query({pattern, 0.2}, &matches);
  EXPECT_FALSE(gone.ok());
  // Stop is idempotent and destruction after Stop is clean.
  live->server.Stop();
  live.reset();
}

}  // namespace
}  // namespace net
}  // namespace pti
