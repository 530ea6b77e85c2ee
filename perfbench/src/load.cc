#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <thread>

#include "src/net/wire.h"
#include "util.h"

namespace perfbench {
namespace {

namespace net = lsmssd::net;

/// The last part of each wait before a send is spun rather than slept.
constexpr int64_t kSpinNs = 30'000;

/// Send buffer of the open loop's connections.
constexpr int kSendBufferBytes = 4 << 20;

/// A reply not received within this long fails the phase.
constexpr int kReplyTimeoutSec = 10;

std::string OpName(const Op& op) {
  static const char* const kNames[] = {"GET", "PUT", "DELETE"};
  return std::string(kNames[static_cast<int>(op.type)]) + " key " +
         std::to_string(op.key);
}

std::string EncodeRequest(const Op& op, size_t payload_size) {
  switch (op.type) {
    case OpType::kGet:
      return net::EncodeFrame(static_cast<uint8_t>(net::Opcode::kGet),
                              net::EncodeGetRequest(op.key));
    case OpType::kPut:
      return net::EncodeFrame(
          static_cast<uint8_t>(net::Opcode::kPut),
          net::EncodePutRequest(op.key, EncodePayload(op.key, op.version,
                                                      payload_size)));
    case OpType::kDelete:
      return net::EncodeFrame(static_cast<uint8_t>(net::Opcode::kDelete),
                              net::EncodeDeleteRequest(op.key));
  }
  return {};
}

/// Executes one op on an in-process Db.
ReplyKind DbCall(lsmssd::Db* db, const Op& op, size_t payload_size,
                 std::string* value, lsmssd::Status* status) {
  switch (op.type) {
    case OpType::kGet: {
      auto v = db->Get(op.key);
      *status = v.status();
      if (v.ok()) *value = std::move(v).value();
      break;
    }
    case OpType::kPut:
      *status = db->Put(op.key, EncodePayload(op.key, op.version, payload_size));
      break;
    case OpType::kDelete:
      *status = db->Delete(op.key);
      break;
  }
  return KindOf(*status);
}

/// A pipelined connection speaking the wire protocol directly: unlike
/// net::Client it lets one thread send while another receives.
class WireConn {
 public:
  ~WireConn() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A send must not block while the server works through a backlog, or
    // the sender falls behind its schedule: let the kernel hold seconds of
    // requests.
    int sndbuf = kSendBufferBytes;
    setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    timeval tv{};
    tv.tv_sec = kReplyTimeoutSec;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool Send(const std::string& frame) {
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads the next reply; false on EOF, timeout or a malformed frame.
  bool Receive(net::Frame* frame) {
    while (true) {
      size_t consumed = 0;
      std::string error;
      switch (net::DecodeFrame(std::string_view(in_).substr(pos_),
                               net::kDefaultMaxPayloadBytes, frame, &consumed,
                               &error)) {
        case net::FrameDecodeResult::kFrame:
          pos_ += consumed;
          return true;
        case net::FrameDecodeResult::kMalformed:
          return false;
        case net::FrameDecodeResult::kNeedMore:
          break;
      }
      in_.erase(0, pos_);
      pos_ = 0;
      char buf[64 * 1024];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      in_.append(buf, static_cast<size_t>(n));
    }
  }

  /// Unblocks the other thread of this connection.
  void Shutdown() { shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_ = -1;
  std::string in_;
  size_t pos_ = 0;
};

SpanName ClientSpan(OpType t) {
  return t == OpType::kGet ? kClientGet
                           : (t == OpType::kPut ? kClientPut : kClientDelete);
}

SpanName DbSpan(OpType t) {
  return t == OpType::kGet ? kDbGet : (t == OpType::kPut ? kDbPut : kDbDelete);
}

LaneTimes SizedTimes(size_t n) {
  LaneTimes t;
  t.due.assign(n, 0);
  t.sent.assign(n, 0);
  t.ready.assign(n, 0);
  t.done.assign(n, 0);
  t.failed.assign(n, 0);
  return t;
}

}  // namespace

ReplyKind KindOf(const lsmssd::Status& st) {
  if (st.ok()) return ReplyKind::kValue;
  return st.IsNotFound() ? ReplyKind::kNotFound : ReplyKind::kError;
}

ClosedResult RunClosedServed(uint16_t port, const std::vector<Lane>& lanes,
                             const Model& base, size_t payload_size) {
  ClosedResult r;
  std::vector<Failures> failures(lanes.size());
  std::vector<net::ClientStats> stats(lanes.size());
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      const Lane& lane = lanes[l];
      net::ClientOptions copts;
      copts.port = port;
      auto client_or = net::Client::Connect(copts);
      if (!client_or.ok()) {
        failures[l].Note("connect: " + client_or.status().ToString());
        failures[l].count += lane.ops.size() - 1;
        return;
      }
      net::Client& client = **client_or;
      for (size_t i = 0; i < lane.ops.size(); ++i) {
        const Op& op = lane.ops[i];
        lsmssd::Status st;
        std::string value;
        if (op.type == OpType::kGet) {
          auto v = client.Get(op.key);
          st = v.status();
          if (v.ok()) value = std::move(v).value();
        } else if (op.type == OpType::kPut) {
          st = client.Put(op.key,
                          EncodePayload(op.key, op.version, payload_size));
        } else {
          st = client.Delete(op.key);
        }
        if (!CheckReply(lane, base, i, i, KindOf(st), value, payload_size)) {
          failures[l].Note(OpName(op) + ": " + st.ToString());
        }
      }
      stats[l] = client.stats();
    });
  }
  for (std::thread& t : threads) t.join();
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (size_t l = 0; l < lanes.size(); ++l) {
    r.ops += lanes[l].ops.size();
    r.failures.Merge(failures[l]);
    r.client.retries += stats[l].retries;
    r.client.reconnects += stats[l].reconnects;
    r.client.overloaded_replies += stats[l].overloaded_replies;
  }
  return r;
}

ClosedResult RunClosedDb(lsmssd::Db* db, const std::vector<Lane>& lanes,
                         const Model& base, size_t payload_size) {
  ClosedResult r;
  std::vector<Failures> failures(lanes.size());
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      const Lane& lane = lanes[l];
      for (size_t i = 0; i < lane.ops.size(); ++i) {
        std::string value;
        lsmssd::Status st;
        const ReplyKind kind = DbCall(db, lane.ops[i], payload_size, &value, &st);
        if (!CheckReply(lane, base, i, i, kind, value, payload_size)) {
          failures[l].Note(OpName(lane.ops[i]) + ": " + st.ToString());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (size_t l = 0; l < lanes.size(); ++l) {
    r.ops += lanes[l].ops.size();
    r.failures.Merge(failures[l]);
  }
  return r;
}

OpenResult RunOpenServed(uint16_t port, const std::vector<Lane>& lanes,
                         const Model& base, const OpenOptions& opts) {
  const size_t n_lanes = lanes.size();
  OpenResult r;
  r.spans.resize(n_lanes);
  std::vector<Failures> failures(n_lanes);
  std::vector<std::vector<std::string>> frames(n_lanes);
  std::vector<std::vector<uint32_t>> acked_before(n_lanes);
  for (size_t l = 0; l < n_lanes; ++l) {
    r.lanes.push_back(SizedTimes(lanes[l].ops.size()));
    acked_before[l].assign(lanes[l].ops.size(), 0);
    for (const Op& op : lanes[l].ops) {
      frames[l].push_back(EncodeRequest(op, opts.payload_size));
    }
  }
  // Replies received per lane; the sender reads it to know which writes
  // were acknowledged before each request left.
  std::vector<std::atomic<uint32_t>> acked(n_lanes);
  std::vector<std::atomic<uint32_t>> sent(n_lanes);
  std::vector<size_t> begin(n_lanes, 0), end(n_lanes, 0);
  int64_t seg_to = 0;
  for (size_t seg = 0;; ++seg) {
    const int64_t seg_from = seg_to;
    seg_to = seg_from > std::numeric_limits<int64_t>::max() - opts.segment_ns
                 ? std::numeric_limits<int64_t>::max()
                 : seg_from + opts.segment_ns;
    bool any = false;
    for (size_t l = 0; l < n_lanes; ++l) {
      begin[l] = end[l];
      while (end[l] < lanes[l].ops.size() &&
             lanes[l].due_ns[end[l]] < seg_to) {
        ++end[l];
      }
      any = any || end[l] > begin[l];
      acked[l].store(static_cast<uint32_t>(begin[l]));
      sent[l].store(static_cast<uint32_t>(begin[l]));
    }
    if (!any) break;
    // Fresh connections and threads per segment: where they run decides
    // much of the latency, so each segment samples another placement.
    std::vector<std::unique_ptr<WireConn>> conns;
    for (size_t l = 0; l < n_lanes; ++l) {
      conns.push_back(std::make_unique<WireConn>());
      if (!conns[l]->Connect(port)) {
        // Every op not yet sent fails.
        r.failures.Note("connect to 127.0.0.1:" + std::to_string(port) +
                        " failed");
        r.failures.count -= 1;
        for (size_t m = 0; m < n_lanes; ++m) {
          for (size_t i = begin[m]; i < lanes[m].ops.size(); ++i) {
            r.lanes[m].failed[i] = 1;
            r.failures.count += 1;
          }
        }
        return r;
      }
    }
    // Let every thread reach its first wait before the segment starts.
    const int64_t start = NowNs() + 20'000'000 - seg_from;
    if (seg == 0) r.start_ns = start;
    std::vector<std::thread> threads;
    for (size_t l = 0; l < n_lanes; ++l) {
      threads.emplace_back([&, l] {  // sender
        PrepareGeneratorThread();
        const Lane& lane = lanes[l];
        LaneTimes& t = r.lanes[l];
        int64_t free_at = 0;
        for (size_t i = begin[l]; i < end[l]; ++i) {
          t.due[i] = start + lane.due_ns[i];
          t.ready[i] = std::max(t.due[i], free_at);
          SleepUntil(t.due[i], kSpinNs);
          t.sent[i] = NowNs();
          acked_before[l][i] = acked[l].load(std::memory_order_acquire);
          sent[l].store(static_cast<uint32_t>(i + 1),
                        std::memory_order_release);
          if (!conns[l]->Send(frames[l][i])) {
            conns[l]->Shutdown();
            return;
          }
          free_at = NowNs();
        }
      });
      threads.emplace_back([&, l] {  // receiver
        PrepareGeneratorThread();
        const Lane& lane = lanes[l];
        LaneTimes& t = r.lanes[l];
        net::Frame frame;
        for (size_t i = begin[l]; i < end[l]; ++i) {
          if (!conns[l]->Receive(&frame)) {
            failures[l].Note(OpName(lane.ops[i]) + ": no reply");
            failures[l].count += end[l] - i - 1;
            for (size_t j = i; j < end[l]; ++j) t.failed[j] = 1;
            conns[l]->Shutdown();
            return;
          }
          t.done[i] = NowNs();
          // The reply follows the send, so the sender's entries for op i
          // are published; the acquire makes them visible here.
          while (sent[l].load(std::memory_order_acquire) <= i) {
          }
          std::string_view body;
          const lsmssd::Status st =
              net::DecodeResponseStatus(frame.payload, &body);
          if (!CheckReply(lane, base, i, acked_before[l][i], KindOf(st), body,
                          opts.payload_size)) {
            failures[l].Note(OpName(lane.ops[i]) + ": " + st.ToString());
            t.failed[i] = 1;
          }
          acked[l].store(static_cast<uint32_t>(i + 1),
                         std::memory_order_release);
          if (lane.due_ns[i] >= opts.trace_from_ns) {
            Span s;
            s.name = ClientSpan(lane.ops[i].type);
            s.request = lane.ops[i].version;
            s.start_ns = t.due[i];
            s.sent_ns = t.sent[i];
            s.end_ns = t.done[i];
            r.spans[l].Add(s);
          }
        }
      });
    }
    if (opts.during) opts.during(start);
    for (std::thread& t : threads) t.join();
  }
  for (const Failures& f : failures) r.failures.Merge(f);
  return r;
}

OpenResult RunOpenDb(lsmssd::Db* db, const std::vector<Lane>& lanes,
                     const Model& base, const OpenOptions& opts) {
  OpenResult r;
  r.spans.resize(lanes.size());
  std::vector<Failures> failures(lanes.size());
  for (const Lane& lane : lanes) r.lanes.push_back(SizedTimes(lane.ops.size()));
  r.start_ns = NowNs() + 20'000'000;
  const int64_t start = r.start_ns;
  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      PrepareGeneratorThread();
      const Lane& lane = lanes[l];
      LaneTimes& t = r.lanes[l];
      for (size_t i = 0; i < lane.ops.size(); ++i) {
        t.due[i] = start + lane.due_ns[i];
        t.ready[i] = std::max(t.due[i], i > 0 ? t.done[i - 1] : 0);
        SleepUntil(t.due[i], kSpinNs);
        t.sent[i] = NowNs();
        std::string value;
        lsmssd::Status st;
        const ReplyKind kind =
            DbCall(db, lane.ops[i], opts.payload_size, &value, &st);
        t.done[i] = NowNs();
        if (!CheckReply(lane, base, i, i, kind, value, opts.payload_size)) {
          failures[l].Note(OpName(lane.ops[i]) + ": " + st.ToString());
          t.failed[i] = 1;
        }
        if (lane.due_ns[i] >= opts.trace_from_ns) {
          Span s;
          s.name = DbSpan(lane.ops[i].type);
          s.request = lane.ops[i].version;
          s.start_ns = t.due[i];
          s.sent_ns = t.sent[i];
          s.end_ns = t.done[i];
          r.spans[l].Add(s);
        }
      }
    });
  }
  if (opts.during) opts.during(start);
  for (std::thread& t : threads) t.join();
  for (const Failures& f : failures) r.failures.Merge(f);
  return r;
}

}  // namespace perfbench
