// End-to-end tests of the epoll server + blocking client over a real
// loopback socket, including the abuse cases the protocol contract
// promises to survive: pipelined bursts, malformed frames (connection
// dropped, Db unharmed), CRC-valid-but-undecodable payloads (error
// reply, connection kept), future-version frames (kUnsupportedVersion
// reply, then close), and ResourceExhausted backpressure crossing the
// wire intact.

#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/net/client.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace lsmssd::net {
namespace {

using lsmssd::testing::TinyOptions;

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/net_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

DbOptions TinyDbOptions() {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;
  return dbopts;
}

struct ServerFixture {
  explicit ServerFixture(const char* tag,
                         DbOptions dbopts = TinyDbOptions(),
                         ServerOptions sopts = ServerOptions()) {
    dir = FreshDir(tag);
    auto db_or = Db::Open(dbopts, dir);
    LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
    db = std::move(db_or).value();
    auto server_or = Server::Start(sopts, db.get());
    LSMSSD_CHECK(server_or.ok()) << server_or.status().ToString();
    server = std::move(server_or).value();
  }
  ~ServerFixture() {
    server->Stop();
    db->Close();
    std::filesystem::remove_all(dir);
  }

  std::unique_ptr<Client> Connect() {
    ClientOptions copts;
    copts.port = server->port();
    auto client_or = Client::Connect(copts);
    LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
    return std::move(client_or).value();
  }

  std::string dir;
  std::unique_ptr<Db> db;
  std::unique_ptr<Server> server;
};

/// Raw loopback socket for bytes the Client refuses to send.
struct RawConn {
  /// `rcvbuf` > 0 fixes the receive buffer (and so the TCP window) before
  /// connecting, so kernel autotuning cannot absorb the server's replies.
  explicit RawConn(uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    LSMSSD_CHECK(fd >= 0);
    if (rcvbuf > 0) {
      LSMSSD_CHECK(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                                sizeof(rcvbuf)) == 0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    LSMSSD_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    LSMSSD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      LSMSSD_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until EOF or `max` bytes; returns what arrived.
  std::string ReadUntilEof(size_t max = 1 << 20) {
    std::string got;
    char buf[4096];
    while (got.size() < max) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    return got;
  }

  int fd = -1;
};

std::string HandEncodeFrame(uint8_t version, uint8_t opcode,
                            std::string_view payload) {
  std::string f(kWireMagic, 4);
  f.push_back(static_cast<char>(version));
  f.push_back(static_cast<char>(opcode));
  AppendU16(&f, 0);
  AppendU32(&f, static_cast<uint32_t>(payload.size()));
  uint32_t crc =
      crc32c::Value(reinterpret_cast<const uint8_t*>(f.data()) + 4, 8);
  crc = crc32c::Extend(crc, reinterpret_cast<const uint8_t*>(payload.data()),
                       payload.size());
  AppendU32(&f, crc);
  f.append(payload);
  return f;
}

std::string Payload(const Options& options, Key key) {
  return MakePayload(options, key);
}

/// Polls `done` every millisecond for up to 10 s; returns its last value.
/// Lets a test wait for the server to reach a state instead of sleeping.
bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Reads the next frame from a raw socket into *frame; *in keeps bytes
/// received past it. False on EOF, receive timeout or a malformed frame.
bool ReadFrame(int fd, std::string* in, Frame* frame) {
  while (true) {
    size_t consumed = 0;
    std::string error;
    const FrameDecodeResult r =
        DecodeFrame(*in, kDefaultMaxPayloadBytes, frame, &consumed, &error);
    if (r == FrameDecodeResult::kFrame) {
      in->erase(0, consumed);
      return true;
    }
    if (r == FrameDecodeResult::kMalformed) return false;
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    in->append(buf, static_cast<size_t>(n));
  }
}

/// Checks a full-range SCAN reply over keys 1..`seeded`.
void ExpectFullScan(const Frame& frame, const Options& options, Key seeded,
                    int reply) {
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok()) << reply;
  std::vector<ScanItem> items;
  ASSERT_TRUE(DecodeScanResponseBody(body, &items)) << reply;
  ASSERT_EQ(items.size(), static_cast<size_t>(seeded)) << reply;
  for (Key k = 1; k <= seeded; ++k) {
    ASSERT_EQ(items[k - 1].key, k) << "reply " << reply;
    ASSERT_EQ(items[k - 1].value, Payload(options, k)) << "reply " << reply;
  }
}

TEST(ServerTest, PutGetDeleteScanStatsEndToEnd) {
  ServerFixture fx("e2e");
  auto client = fx.Connect();
  const Options& options = fx.db->options();

  for (Key k = 1; k <= 30; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok()) << k;
  }
  auto got = client->Get(17);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 17));

  ASSERT_TRUE(client->Delete(17).ok());
  EXPECT_TRUE(client->Get(17).status().IsNotFound());

  std::vector<ScanItem> items;
  ASSERT_TRUE(client->Scan(10, 20, 0, &items).ok());
  ASSERT_EQ(items.size(), 10u);  // 10..20 minus deleted 17.
  Key prev = 0;
  for (const ScanItem& item : items) {
    EXPECT_GT(item.key, prev);  // Key order.
    EXPECT_NE(item.key, 17u);
    EXPECT_EQ(item.value, Payload(options, item.key));
    prev = item.key;
  }

  // Limit honored.
  items.clear();
  ASSERT_TRUE(client->Scan(1, 30, 5, &items).ok());
  EXPECT_EQ(items.size(), 5u);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->payload_size, options.payload_size);
  EXPECT_EQ(stats->db.shards, 1u);
  EXPECT_EQ(stats->quarantined_blocks, 0u);
  EXPECT_GT(stats->server.frames_processed, 30u);
  EXPECT_FALSE(stats->text.empty());
}

TEST(ServerTest, WrongPayloadWidthIsInvalidArgument) {
  ServerFixture fx("width");
  auto client = fx.Connect();
  const Status st = client->Put(1, "short");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // The connection survives an application-level error.
  EXPECT_TRUE(client->Put(1, Payload(fx.db->options(), 1)).ok());
}

TEST(ServerTest, PipelinedRequestsAnswerInOrder) {
  ServerFixture fx("pipeline");
  auto client = fx.Connect();
  const Options& options = fx.db->options();
  constexpr Key kCount = 64;
  for (Key k = 1; k <= kCount; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
  }

  // Fire every GET before reading any response; replies must come back
  // in request order, each carrying its own key's payload.
  for (Key k = 1; k <= kCount; ++k) {
    ASSERT_TRUE(
        client
            ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                      EncodeGetRequest(k))
            .ok());
  }
  for (Key k = 1; k <= kCount; ++k) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
    EXPECT_EQ(frame.opcode,
              static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
    std::string_view body;
    ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok());
    EXPECT_EQ(body, Payload(options, k)) << "response out of order at " << k;
  }
}

TEST(ServerTest, MalformedFrameDropsConnectionWithoutPoisoningDb) {
  ServerFixture fx("malformed");
  {
    auto client = fx.Connect();
    ASSERT_TRUE(client->Put(1, Payload(fx.db->options(), 1)).ok());
  }

  {
    // Garbage that can never be a frame header: dropped with no reply.
    RawConn raw(fx.server->port());
    raw.Send("GET / HTTP/1.1\r\nHost: nope\r\n\r\n");
    EXPECT_EQ(raw.ReadUntilEof(), "");
  }
  {
    // A real frame whose CRC is wrong: same treatment (the stream cannot
    // be trusted past a bad CRC).
    std::string f = EncodeFrame(static_cast<uint8_t>(Opcode::kGet),
                                EncodeGetRequest(1));
    f[f.size() - 1] = static_cast<char>(f[f.size() - 1] ^ 0x01);
    RawConn raw(fx.server->port());
    raw.Send(f);
    EXPECT_EQ(raw.ReadUntilEof(), "");
  }

  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 2u);

  // The Db is unharmed: a fresh client reads the old write and makes new
  // ones.
  auto client = fx.Connect();
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(client->Put(2, Payload(fx.db->options(), 2)).ok());
  EXPECT_TRUE(fx.db->tree()->CheckInvariants(true).ok());
}

TEST(ServerTest, UndecodablePayloadGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx("badpayload");
  auto client = fx.Connect();
  // CRC-valid frame, known opcode, truncated payload: the server can
  // trust the stream, so it answers kMalformedRequest instead of
  // dropping.
  ASSERT_TRUE(
      client->SendRaw(static_cast<uint8_t>(Opcode::kGet), "abc").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("malformed"), std::string::npos)
      << st.ToString();

  // Same connection keeps working.
  EXPECT_TRUE(client->Put(5, Payload(fx.db->options(), 5)).ok());
  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 0u);
}

TEST(ServerTest, UnknownOpcodeGetsUnimplemented) {
  ServerFixture fx("badop");
  auto client = fx.Connect();
  ASSERT_TRUE(client->SendRaw(42, "").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st.ToString();
}

TEST(ServerTest, UnsupportedVersionGetsReplyThenClose) {
  ServerFixture fx("version");
  RawConn raw(fx.server->port());
  raw.Send(HandEncodeFrame(9, static_cast<uint8_t>(Opcode::kGet),
                           EncodeGetRequest(1)));
  const std::string reply = raw.ReadUntilEof();
  // Exactly one response frame came back before the close.
  Frame frame;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(reply, kDefaultMaxPayloadBytes, &frame, &consumed,
                        &error),
            FrameDecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, reply.size());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version"), std::string::npos) << st.ToString();
  EXPECT_EQ(fx.server->counters().unsupported_version_frames, 1u);
  EXPECT_EQ(fx.server->counters().connections_dropped_malformed, 0u);
}

TEST(ServerTest, BackpressureCodeTravelsTheWire) {
  // A 6-block device bound makes the first L0 flush abort: the paired
  // satellite requirement is that the client sees *ResourceExhausted* —
  // not Corruption, not a dropped connection — exactly as an embedded
  // caller would.
  DbOptions dbopts = TinyDbOptions();
  dbopts.max_device_blocks = 6;
  ServerFixture fx("backpressure", dbopts);
  auto client = fx.Connect();
  const Options& options = fx.db->options();

  Status first_error = Status::OK();
  for (Key k = 1; k <= 500 && first_error.ok(); ++k) {
    first_error = client->Put(k, Payload(options, k));
  }
  ASSERT_FALSE(first_error.ok()) << "device bound never hit";
  EXPECT_TRUE(first_error.IsResourceExhausted()) << first_error.ToString();

  // Backpressure is not poison: reads still work on the same connection.
  auto got = client->Get(1);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(fx.db->Stats().write_backpressure_events, 0u);
}

TEST(ServerTest, ScanRespectsServerCap) {
  ServerOptions sopts;
  sopts.max_scan_results = 7;
  ServerFixture fx("scancap", TinyDbOptions(), sopts);
  auto client = fx.Connect();
  const Options& options = fx.db->options();
  for (Key k = 1; k <= 30; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
  }
  std::vector<ScanItem> items;
  ASSERT_TRUE(client->Scan(1, 30, 0, &items).ok());
  EXPECT_EQ(items.size(), 7u);  // Unlimited request truncates to the cap.
  items.clear();
  ASSERT_TRUE(client->Scan(1, 30, 100, &items).ok());
  EXPECT_EQ(items.size(), 7u);  // Request above the cap truncates too.
}

TEST(ServerTest, ConcurrentClientsShareOneGroupCommit) {
  DbOptions dbopts = TinyDbOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 8;
  ServerFixture fx("groupcommit", dbopts);
  const Options& options = fx.db->options();

  constexpr int kThreads = 4;
  constexpr Key kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = fx.server->port();
      auto client_or = Client::Connect(copts);
      ASSERT_TRUE(client_or.ok());
      auto& client = *client_or;
      for (Key i = 0; i < kPerThread; ++i) {
        const Key key = static_cast<Key>(t) * 10000 + i + 1;
        ASSERT_TRUE(client->Put(key, Payload(options, key)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // All writes landed; group commit means far fewer syncs than entries.
  const DbStats stats = fx.db->Stats();
  EXPECT_EQ(stats.wal_entries_appended, kThreads * kPerThread);
  EXPECT_LT(stats.wal_syncs, stats.wal_entries_appended);
  auto client = fx.Connect();
  for (int t = 0; t < kThreads; ++t) {
    const Key probe = static_cast<Key>(t) * 10000 + 1;
    EXPECT_TRUE(client->Get(probe).ok()) << "thread " << t;
  }
}

/// A listening loopback socket that accepts but replies only when told —
/// impersonating a stalled server for client-timeout tests.
struct StalledServer {
  StalledServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    LSMSSD_CHECK(listen_fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // Ephemeral.
    LSMSSD_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    LSMSSD_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    LSMSSD_CHECK(::listen(listen_fd, 1) == 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    LSMSSD_CHECK(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0);
    port = ntohs(bound.sin_port);
  }
  ~StalledServer() {
    if (conn_fd >= 0) ::close(conn_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void Accept() {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
    LSMSSD_CHECK(conn_fd >= 0);
  }
  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(conn_fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      LSMSSD_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  int listen_fd = -1;
  int conn_fd = -1;
  uint16_t port = 0;
};

TEST(ServerTest, ReceiveTimeoutIsNonFatalAndResumable) {
  StalledServer stalled;
  ClientOptions copts;
  copts.port = stalled.port;
  copts.io_timeout_ms = 200;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  stalled.Accept();

  // The request goes out, but no reply comes: ReceiveResponse must return
  // TimedOut instead of blocking forever — and must NOT latch the
  // connection dead.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                            EncodeGetRequest(42))
                  .ok());
  Frame frame;
  Status st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.IsTimedOut()) << st.ToString();

  // Feed half a response frame; the next receive still times out (the
  // partial frame stays buffered, the stream stays aligned).
  const std::string reply =
      EncodeFrame(static_cast<uint8_t>(Opcode::kGet) | kResponseBit,
                  EncodeErrorResponse(Status::NotFound("nope")));
  stalled.Send(std::string_view(reply).substr(0, reply.size() / 2));
  st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.IsTimedOut()) << st.ToString();

  // The server wakes up and completes the frame: the owed response now
  // arrives intact on the same connection.
  stalled.Send(std::string_view(reply).substr(reply.size() / 2));
  st = client->ReceiveResponse(&frame);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kGet) | kResponseBit);
  std::string_view body;
  EXPECT_TRUE(DecodeResponseStatus(frame.payload, &body).IsNotFound());
}

TEST(ServerTest, PingIsACheapHealthCheck) {
  ServerFixture fx("ping");
  auto client = fx.Connect();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());

  // PING carries no payload by contract; a stuffed one is malformed —
  // answered as an error, connection kept (the stream is still trusted).
  ASSERT_TRUE(
      client->SendRaw(static_cast<uint8_t>(Opcode::kPing), "x").ok());
  Frame frame;
  ASSERT_TRUE(client->ReceiveResponse(&frame).ok());
  std::string_view body;
  const Status st = DecodeResponseStatus(frame.payload, &body);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("malformed"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(client->Ping().ok()) << "connection must survive";
}

/// Blocks the (single) worker inside the first executed request until
/// Release(); later requests pass straight through.
struct WorkerGate {
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu);
      if (blocked_once) return;
      blocked_once = true;
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  bool blocked_once = false;
  bool entered = false;
  bool released = false;
};

TEST(ServerTest, OverloadShedsInOrderInsteadOfQueueingUnbounded) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_pending_frames = 2;
  sopts.overload_retry_after_ms = 7;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("overload", TinyDbOptions(), sopts);
  auto client = fx.Connect();

  // Frame #1 is swapped into the worker's batch (leaving the pending
  // count at zero) and then parks inside the gate.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                            EncodeGetRequest(1))
                  .ok());
  gate.AwaitEntered();

  // With the worker wedged, frames #2 and #3 fill the pool-wide cap;
  // #4 and #5 must be shed at admission, not queued.
  for (Key k = 2; k <= 5; ++k) {
    ASSERT_TRUE(client
                    ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                              EncodeGetRequest(k))
                    .ok());
  }
  // Release only once #4 and #5 have been admitted (as sheds): released
  // earlier, the worker could drain #2 and #3 first and admit them.
  WaitUntil([&] { return fx.server->counters().frames_shed_overload == 2; });
  gate.Release();

  // Replies still arrive strictly in request order: three real answers
  // (NotFound on an empty store), then two kOverloaded rejections that
  // carry the configured retry-after hint.
  for (Key k = 1; k <= 5; ++k) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok()) << k;
    std::string_view body;
    const Status st = DecodeResponseStatus(frame.payload, &body);
    if (k <= 3) {
      EXPECT_TRUE(st.IsNotFound()) << k << ": " << st.ToString();
    } else {
      EXPECT_TRUE(st.IsUnavailable()) << k << ": " << st.ToString();
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
      uint32_t hint = 0;
      ASSERT_TRUE(ParseRetryAfterMs(st.message(), &hint)) << st.ToString();
      EXPECT_EQ(hint, 7u);
    }
  }
  EXPECT_EQ(fx.server->counters().frames_shed_overload, 2u);
  EXPECT_EQ(fx.server->counters().frames_processed, 3u);

  // The shed counters travel the wire in the stats dump.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->server.frames_shed_overload, 2u);
  EXPECT_EQ(stats->server.frames_rejected_shutdown, 0u);
  EXPECT_EQ(stats->server.connections_dropped_slow, 0u);
}

TEST(ServerTest, HealthProbesAdmittedWhileOverloadShedsWrites) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_pending_frames = 2;
  sopts.overload_retry_after_ms = 7;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("overload_ping", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  auto client = fx.Connect();

  // Frame #1 parks inside the worker; #2 and #3 fill the pool-wide cap.
  for (Key k = 1; k <= 3; ++k) {
    ASSERT_TRUE(client
                    ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                              EncodePutRequest(k, Payload(options, k)))
                    .ok());
    if (k == 1) gate.AwaitEntered();
  }
  // At the cap: a PUT is shed, but PING and STATS must still be
  // admitted — an operator diagnosing the overload needs them.
  ASSERT_TRUE(client
                  ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                            EncodePutRequest(4, Payload(options, 4)))
                  .ok());
  ASSERT_TRUE(client->SendRaw(static_cast<uint8_t>(Opcode::kPing), "").ok());
  ASSERT_TRUE(client->SendRaw(static_cast<uint8_t>(Opcode::kStats), "").ok());
  // Release only once PUT #4 has been admitted (as a shed).
  WaitUntil([&] { return fx.server->counters().frames_shed_overload == 1; });
  gate.Release();

  // In order: three real PUT acks, the shed PUT, then the two probes —
  // both answered for real, not rejected.
  for (int i = 1; i <= 6; ++i) {
    Frame frame;
    ASSERT_TRUE(client->ReceiveResponse(&frame).ok()) << "frame " << i;
    std::string_view body;
    const Status st = DecodeResponseStatus(frame.payload, &body);
    if (i == 4) {
      EXPECT_TRUE(st.IsUnavailable()) << i << ": " << st.ToString();
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
    } else {
      EXPECT_TRUE(st.ok()) << i << ": " << st.ToString();
    }
  }
  EXPECT_EQ(fx.server->counters().frames_shed_overload, 1u);
}

TEST(ServerTest, DrainAnswersEveryInFlightFrameThenRejectsLateOnes) {
  WorkerGate gate;
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.worker_hook_for_testing = gate.Hook();
  ServerFixture fx("drain", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();

  // Four connections each pipeline a burst of PUTs, none of which can
  // complete while the gate holds the worker.
  constexpr int kConns = 4;
  constexpr Key kBurst = 8;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) clients.push_back(fx.Connect());
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      const Key key = static_cast<Key>(c) * 1000 + i;
      ASSERT_TRUE(clients[c]
                      ->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                                EncodePutRequest(key, Payload(options, key)))
                      .ok());
    }
  }
  gate.AwaitEntered();

  // Drain while all 32 frames are in flight.
  std::thread drainer([&] { EXPECT_TRUE(fx.server->Drain(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The listener is gone: new connections are refused...
  {
    ClientOptions copts;
    copts.port = fx.server->port();
    auto refused = Client::Connect(copts);
    EXPECT_FALSE(refused.ok());
  }
  // ...and frames arriving on live connections after drain-begin are
  // rejected, not executed.
  for (int c = 0; c < kConns; ++c) {
    ASSERT_TRUE(clients[c]
                    ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                              EncodeGetRequest(1))
                    .ok());
  }
  // Release only once every late frame has been rejected at admission:
  // released earlier, a connection could finish its burst and close
  // before its late frame is read.
  WaitUntil([&] {
    return fx.server->counters().frames_rejected_shutdown ==
           static_cast<uint64_t>(kConns);
  });
  gate.Release();

  // Every accepted frame is answered before the connection closes: the
  // full burst succeeds, then the late frame gets kShuttingDown.
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      Frame frame;
      ASSERT_TRUE(clients[c]->ReceiveResponse(&frame).ok())
          << "conn " << c << " frame " << i;
      std::string_view body;
      EXPECT_TRUE(DecodeResponseStatus(frame.payload, &body).ok())
          << "conn " << c << " frame " << i;
    }
    Frame late;
    ASSERT_TRUE(clients[c]->ReceiveResponse(&late).ok()) << c;
    std::string_view body;
    const Status st = DecodeResponseStatus(late.payload, &body);
    EXPECT_TRUE(st.IsUnavailable()) << c << ": " << st.ToString();
    EXPECT_NE(st.message().find("shutting down"), std::string::npos);
  }
  drainer.join();

  EXPECT_EQ(fx.server->counters().frames_processed, kConns * kBurst);
  EXPECT_EQ(fx.server->counters().frames_rejected_shutdown,
            static_cast<uint64_t>(kConns));

  // Nothing accepted was lost: the store holds every acked write.
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      const Key key = static_cast<Key>(c) * 1000 + i;
      auto got = fx.db->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, Payload(options, key));
    }
  }
}

TEST(ServerTest, DrainWithIdleConnectionsCompletesImmediately) {
  ServerFixture fx("drainidle");
  auto a = fx.Connect();
  auto b = fx.Connect();
  ASSERT_TRUE(a->Ping().ok());
  ASSERT_TRUE(b->Ping().ok());
  EXPECT_TRUE(fx.server->Drain(2000));
  // Idle connections were simply closed; the next call observes it.
  Frame frame;
  EXPECT_FALSE(a->ReceiveResponse(&frame).ok());
}

TEST(ServerTest, SlowClientIsEvictedByBacklogCapNotBufferedForever) {
  ServerOptions sopts;
  sopts.max_conn_backlog_bytes = 1024;
  ServerFixture fx("slowpoke", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  {
    auto seeder = fx.Connect();
    for (Key k = 1; k <= kSeeded; ++k) {
      ASSERT_TRUE(seeder->Put(k, Payload(options, k)).ok());
    }
  }

  // A reader that requests large scans and never drains its socket. A
  // tiny fixed SO_RCVBUF (set before connect) pins the TCP window so
  // kernel autotuning cannot absorb the responses: they pile up in the
  // server's userspace backlog until the cap evicts the connection.
  // Sends are best-effort: the server may (correctly) reset the
  // connection mid-burst.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string scan = EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                                       EncodeScanRequest(1, kSeeded, 0));
  for (int i = 0; i < 1000; ++i) {
    const ssize_t n = ::send(fd, scan.data(), scan.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // Evicted while we were still pouring requests.
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->counters().connections_dropped_slow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->counters().connections_dropped_slow, 1u);
  ::close(fd);

  // The abuse cost one connection, not the server: a polite client is
  // served as usual.
  auto client = fx.Connect();
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, Payload(options, 1));
}

TEST(ServerTest, KernelSendQueueCountsTowardTheBacklogCap) {
  // A client that never reads, with default socket buffers: the kernel
  // send buffer autotunes to MiBs and takes the replies before the
  // server's own buffer grows, so the cap holds only if the bytes queued
  // in the kernel are counted too.
  ServerOptions sopts;
  sopts.max_conn_backlog_bytes = 256u << 10;
  ServerFixture fx("kernelbacklog", TinyDbOptions(), sopts);
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  constexpr int kScans = 160;   // ~2.5 MiB of replies, never read.
  {
    auto seeder = fx.Connect();
    for (Key k = 1; k <= kSeeded; ++k) {
      ASSERT_TRUE(seeder->Put(k, Payload(options, k)).ok());
    }
  }
  RawConn raw(fx.server->port());
  std::string requests;
  for (int i = 0; i < kScans; ++i) {
    requests += EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                            EncodeScanRequest(1, kSeeded, 0));
  }
  raw.Send(requests);
  EXPECT_TRUE(WaitUntil(
      [&] { return fx.server->counters().connections_dropped_slow == 1; }));
}

/// Records how many requests execute at once: the hook runs on the
/// executing thread before the Db, and holds it there for `hold`.
struct ConcurrencyProbe {
  explicit ConcurrencyProbe(std::chrono::microseconds hold) : hold(hold) {}

  std::function<void()> Hook() {
    return [this] {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(hold);
      running.fetch_sub(1);
    };
  }

  const std::chrono::microseconds hold;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
};

/// Seeds `conns` x `per_conn` keys, then pipelines one GET per key on
/// every connection at once before reading any reply, and checks each
/// connection's replies arrive complete and in its own request order.
void PipelineGetsOnEveryConnection(ServerFixture& fx, int conns,
                                   Key per_conn) {
  const Options& options = fx.db->options();
  auto key_of = [](int c, Key i) { return static_cast<Key>(c) * 1000 + i; };
  {
    auto seeder = fx.Connect();
    for (int c = 0; c < conns; ++c) {
      for (Key i = 1; i <= per_conn; ++i) {
        ASSERT_TRUE(seeder->Put(key_of(c, i), Payload(options, key_of(c, i)))
                        .ok());
      }
    }
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < conns; ++c) clients.push_back(fx.Connect());
  for (int c = 0; c < conns; ++c) {
    for (Key i = 1; i <= per_conn; ++i) {
      ASSERT_TRUE(clients[c]
                      ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                                EncodeGetRequest(key_of(c, i)))
                      .ok());
    }
  }
  for (int c = 0; c < conns; ++c) {
    for (Key i = 1; i <= per_conn; ++i) {
      Frame frame;
      ASSERT_TRUE(clients[c]->ReceiveResponse(&frame).ok()) << c << "/" << i;
      std::string_view body;
      ASSERT_TRUE(DecodeResponseStatus(frame.payload, &body).ok());
      EXPECT_EQ(body, Payload(options, key_of(c, i)))
          << "conn " << c << " out of order at " << i;
    }
  }
}

TEST(ServerTest, OneWorkerExecutesOneRequestAtATime) {
  ConcurrencyProbe probe(std::chrono::microseconds(200));
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.worker_hook_for_testing = probe.Hook();
  ServerFixture fx("onewriter", TinyDbOptions(), sopts);
  PipelineGetsOnEveryConnection(fx, /*conns=*/4, /*per_conn=*/32);
  EXPECT_EQ(probe.peak.load(), 1);
}

TEST(ServerTest, ExecutionsNeverExceedTheWorkerCount) {
  ConcurrencyProbe probe(std::chrono::microseconds(200));
  ServerOptions sopts;
  sopts.workers = 4;
  sopts.worker_hook_for_testing = probe.Hook();
  ServerFixture fx("fourwriters", TinyDbOptions(), sopts);
  PipelineGetsOnEveryConnection(fx, /*conns=*/8, /*per_conn=*/32);
  EXPECT_GE(probe.peak.load(), 1);
  EXPECT_LE(probe.peak.load(), 4);
}

TEST(ServerTest, PipelinedScanBacklogIsFlushedInOrderNotEvicted) {
  // The executing thread sends replies itself until the socket is full;
  // then the I/O role takes over the backlog (EPOLLOUT) and must deliver
  // it whole and in order once the client reads, without counting the
  // client as slow while the backlog stays under the cap.
  ServerFixture fx("scanbacklog");
  const Options& options = fx.db->options();
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  constexpr int kScans = 200;   // ~3.2 MiB in all, under the 8 MiB cap.
  {
    auto seeder = fx.Connect();
    for (Key k = 1; k <= kSeeded; ++k) {
      ASSERT_TRUE(seeder->Put(k, Payload(options, k)).ok());
    }
  }
  // A small fixed receive window makes the server's sends hit EAGAIN
  // early.
  RawConn raw(fx.server->port(), /*rcvbuf=*/4096);
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(raw.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  std::string requests;
  for (int i = 0; i < kScans; ++i) {
    requests += EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                            EncodeScanRequest(1, kSeeded, 0));
  }
  raw.Send(requests);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::string in;
  for (int i = 0; i < kScans; ++i) {
    Frame frame;
    ASSERT_TRUE(ReadFrame(raw.fd, &in, &frame)) << "no reply " << i;
    ExpectFullScan(frame, options, kSeeded, i);
  }
  EXPECT_TRUE(in.empty());  // Nothing beyond the replies owed.
  EXPECT_EQ(fx.server->counters().connections_dropped_slow, 0u);
  EXPECT_EQ(fx.server->counters().frames_processed,
            static_cast<uint64_t>(kSeeded + kScans));
}

TEST(ServerTest, LongPipelinedBatchSendsRepliesAsTheyAreMade) {
  // A client pipelining many large requests must see the first replies
  // while later requests of the same batch still execute, not only once
  // the whole batch is done. The hook parks the 10th SCAN until the
  // client has read the first reply.
  constexpr Key kSeeded = 500;  // ~16 KiB per full-range scan response.
  constexpr int kScans = 20;
  std::mutex mu;
  std::condition_variable cv;
  uint64_t executed = 0;
  bool released = false;
  ServerOptions sopts;
  sopts.worker_hook_for_testing = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (++executed != kSeeded + kScans / 2) return;
    cv.wait(lock, [&] { return released; });
  };
  ServerFixture fx("streaming", TinyDbOptions(), sopts);
  auto release = [&] {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  };
  // Releases the hook on every exit path, before the fixture stops.
  struct Releaser {
    std::function<void()> fn;
    ~Releaser() { fn(); }
  } releaser{release};

  const Options& options = fx.db->options();
  {
    auto seeder = fx.Connect();
    for (Key k = 1; k <= kSeeded; ++k) {
      ASSERT_TRUE(seeder->Put(k, Payload(options, k)).ok());
    }
  }
  // All SCANs leave in one send, so the server takes them as one batch.
  RawConn raw(fx.server->port());
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(raw.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  std::string requests;
  for (int i = 0; i < kScans; ++i) {
    requests += EncodeFrame(static_cast<uint8_t>(Opcode::kScan),
                            EncodeScanRequest(1, kSeeded, 0));
  }
  raw.Send(requests);
  std::string in;
  for (int i = 0; i < kScans; ++i) {
    Frame frame;
    ASSERT_TRUE(ReadFrame(raw.fd, &in, &frame)) << "no reply " << i;
    if (i == 0) release();
    ExpectFullScan(frame, options, kSeeded, i);
  }
}

TEST(ServerTest, StopWithRequestsInFlightOnEveryThreadReturns) {
  // Every executing thread is inside a request and the I/O role is in
  // epoll_wait when Stop() arrives: it must join them all and close every
  // connection (ASan checks nothing leaks).
  ConcurrencyProbe probe(std::chrono::milliseconds(5));
  ServerOptions sopts;
  sopts.workers = 4;
  sopts.worker_hook_for_testing = probe.Hook();
  ServerFixture fx("stopinflight", TinyDbOptions(), sopts);
  constexpr int kConns = 6;
  constexpr Key kBurst = 20;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) clients.push_back(fx.Connect());
  for (int c = 0; c < kConns; ++c) {
    for (Key i = 1; i <= kBurst; ++i) {
      ASSERT_TRUE(clients[c]
                      ->SendRaw(static_cast<uint8_t>(Opcode::kGet),
                                EncodeGetRequest(i))
                      .ok());
    }
  }
  ASSERT_TRUE(WaitUntil([&] { return probe.running.load() == 4; }));

  const auto start = std::chrono::steady_clock::now();
  fx.server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(probe.running.load(), 0);
  // Stopped means stopped: every connection is closed, and the queued
  // requests were dropped rather than executed.
  for (auto& client : clients) {
    Frame frame;
    Status st;
    while ((st = client->ReceiveResponse(&frame)).ok()) {
    }
    EXPECT_FALSE(st.IsTimedOut()) << st.ToString();
  }
  EXPECT_LT(fx.server->counters().frames_processed,
            static_cast<uint64_t>(kConns * kBurst));
}

/// CPU time used by every thread of this process.
std::chrono::nanoseconds ProcessCpuTime() {
  timespec ts{};
  LSMSSD_CHECK(::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

TEST(ServerTest, PacedRequestsAreMostlyCaughtWhilePolling) {
  // PINGs sent every 50 us, well inside the 200 us poll window: the I/O
  // role should find most event batches while polling, not after parking.
  // The window is wall-clock time, so on a CPU-starved host a yielding
  // leader can miss it; the test takes the best of a few bursts. A loop
  // that never polls catches none in any burst.
  ServerFixture fx("pollcatch");
  constexpr int kPings = 400;
  constexpr auto kGap = std::chrono::microseconds(50);
  RawConn raw(fx.server->port());
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(raw.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  const std::string ping = EncodeFrame(static_cast<uint8_t>(Opcode::kPing), "");
  uint64_t caught = 0;
  uint64_t parked = 0;
  for (int burst = 0; burst < 5 && caught <= parked; ++burst) {
    const ServerCounters before = fx.server->counters();
    std::atomic<int> replies{0};
    std::thread reader([&] {
      std::string in;
      Frame frame;
      while (replies.load() < kPings && ReadFrame(raw.fd, &in, &frame)) {
        replies.fetch_add(1);
      }
    });
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPings; ++i) {
      const auto due = start + i * kGap;
      while (std::chrono::steady_clock::now() < due) {
      }
      raw.Send(ping);
    }
    reader.join();
    ASSERT_EQ(replies.load(), kPings);
    const ServerCounters after = fx.server->counters();
    caught = after.polls_caught_spinning - before.polls_caught_spinning;
    parked = after.polls_parked - before.polls_parked;
  }
  EXPECT_GT(caught, parked) << "caught " << caught << ", parked " << parked;

  auto client = fx.Connect();
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServerCounters now = fx.server->counters();
  EXPECT_GE(stats->server.polls_caught_spinning, caught);
  EXPECT_LE(stats->server.polls_caught_spinning, now.polls_caught_spinning);
}

TEST(ServerTest, IdleServerParksAfterItsLastEvent) {
  // Once requests stop, the I/O role parks within its poll window: an
  // idle server burns no CPU.
  ServerFixture fx("idlepark");
  auto client = fx.Connect();
  ASSERT_TRUE(client->Ping().ok());
  const auto cpu_before = ProcessCpuTime();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto cpu_used = ProcessCpuTime() - cpu_before;
  EXPECT_LT(cpu_used, std::chrono::milliseconds(20))
      << std::chrono::duration_cast<std::chrono::microseconds>(cpu_used)
             .count()
      << " us of CPU while idle";
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->server.polls_parked, 1u);
  EXPECT_LE(stats->server.polls_parked, fx.server->counters().polls_parked);
}

TEST(ServerTest, StopWhileTheLeaderPollsReturnsPromptly) {
  // Right after a reply the I/O role is inside its poll window; Stop()
  // must end the poll and join every thread at once. Several servers on
  // one Db, so some Stop() calls land in the window whatever the timing.
  ServerFixture fx("stoppoll");
  for (int round = 0; round < 20; ++round) {
    auto server_or = Server::Start(ServerOptions(), fx.db.get());
    ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
    std::unique_ptr<Server> server = std::move(server_or).value();
    ClientOptions copts;
    copts.port = server->port();
    auto client_or = Client::Connect(copts);
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    ASSERT_TRUE((*client_or)->Ping().ok());
    const auto start = std::chrono::steady_clock::now();
    server->Stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::milliseconds(500)) << "round " << round;
  }
}

TEST(ServerTest, StatsCarriesEveryCounterOfEveryTable) {
  // On a quiesced server, every DbStats scalar, IoStats counter and
  // ServerCounters field read over STATS equals the in-process value.
  DbOptions dbopts = TinyDbOptions();
  dbopts.shards = 2;
  dbopts.background_compaction = true;
  ServerFixture fx("statstables", dbopts);
  const Options& options = fx.db->options();
  auto client = fx.Connect();
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_TRUE(client->Put(k, Payload(options, k)).ok());
  }
  for (Key k = 1; k <= 400; k += 9) ASSERT_TRUE(client->Get(k).ok());
  ASSERT_TRUE(fx.db->WaitForCompaction().ok());
  ASSERT_TRUE(fx.db->Checkpoint().ok());
  ASSERT_TRUE(fx.db->Scrub().ok());

  const ServerCounters before = fx.server->counters();
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ServerCounters after = fx.server->counters();
  const DbStats db = fx.db->Stats();

  for (const DbStats::Field& f : DbStats::Fields()) {
    EXPECT_EQ(stats->db.*f.member, db.*f.member) << f.name;
  }
  for (const IoStats::Field& f : IoStats::Fields()) {
    EXPECT_EQ(stats->db.io.Get(f), db.io.Get(f)) << f.name;
  }
  for (const ServerCounters::Field& f : ServerCounters::Fields()) {
    const std::string name = f.name;
    if (name == "polls_caught_spinning" || name == "polls_parked") {
      // The I/O role keeps polling and parking while the reply is built.
      EXPECT_GE(stats->server.*f.member, before.*f.member) << name;
      EXPECT_LE(stats->server.*f.member, after.*f.member) << name;
    } else {
      EXPECT_EQ(stats->server.*f.member, after.*f.member) << name;
    }
  }
  EXPECT_EQ(stats->payload_size, options.payload_size);
  EXPECT_EQ(stats->quarantined_blocks, db.quarantined_blocks.size());
  // Non-trivial values, so the equalities above compare real counts.
  EXPECT_EQ(db.shards, 2u);
  EXPECT_GT(db.memtables_sealed, 0u);
  EXPECT_GT(db.scrub_blocks_verified, 0u);
  EXPECT_GT(db.io.block_writes(), 0u);
  EXPECT_GT(after.frames_processed, 400u);

  // The parseable section: one line per key, no key twice, and the keys
  // STATS carried before the tables keep their names and meanings.
  std::map<std::string, uint64_t> keys;
  size_t lines = 0;
  std::istringstream in(stats->text);
  for (std::string line; std::getline(in, line) && !line.empty(); ++lines) {
    const size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    keys[line.substr(0, sp)] = std::stoull(line.substr(sp + 1));
  }
  EXPECT_EQ(keys.size(), lines) << "duplicate STATS key";
  EXPECT_EQ(lines, 2 + ServerCounters::Fields().size() +
                       DbStats::Fields().size() + IoStats::Fields().size());
  EXPECT_EQ(keys.at("payload_size"), options.payload_size);
  EXPECT_EQ(keys.at("shards"), db.shards);
  EXPECT_EQ(keys.at("checkpoints"), db.checkpoints);
  EXPECT_EQ(keys.at("memtables_sealed"), db.memtables_sealed);
  EXPECT_EQ(keys.at("stall_events"), db.stall_events);
  EXPECT_EQ(keys.at("quarantined_blocks"), db.quarantined_blocks.size());
  EXPECT_EQ(keys.at("scrub_corruptions"), db.scrub_corruptions_found);
  EXPECT_EQ(keys.at("scrub_blocks_verified"), db.scrub_blocks_verified);
  EXPECT_EQ(keys.at("frames_processed"), after.frames_processed);
  EXPECT_EQ(keys.at("connections_dropped"),
            after.connections_dropped_malformed);
  EXPECT_EQ(keys.at("frames_shed_overload"), after.frames_shed_overload);
  EXPECT_EQ(keys.at("frames_rejected_shutdown"),
            after.frames_rejected_shutdown);
  EXPECT_EQ(keys.at("connections_dropped_slow"),
            after.connections_dropped_slow);
  EXPECT_GE(keys.at("polls_caught_spinning"), before.polls_caught_spinning);
  EXPECT_GE(keys.at("polls_parked"), before.polls_parked);
  // I/O counters travel under the "io_" prefix.
  EXPECT_EQ(keys.at("io_writes"), db.io.block_writes());
}

}  // namespace
}  // namespace lsmssd::net
