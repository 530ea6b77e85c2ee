#ifndef LSMSSD_NET_SERVER_H_
#define LSMSSD_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/db/db.h"
#include "src/net/wire.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd::net {

/// Configuration of a Server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = pick an ephemeral port (see Server::port()).
  /// How many decoded requests execute against the Db at once. The server
  /// runs workers + 1 threads, so one is always free to take the I/O role
  /// (see Server). Requests on different connections commit concurrently,
  /// so their WAL syncs batch through the Db's existing cross-thread group
  /// commit — the server adds no commit path of its own.
  size_t workers = 4;
  size_t max_frame_payload_bytes = kDefaultMaxPayloadBytes;
  /// Hard cap on one SCAN response (requests asking for more are
  /// truncated to this many items).
  uint32_t max_scan_results = 65536;
  /// Per-connection cap on decoded-but-unexecuted pipelined requests;
  /// past it the server stops reading that socket until the executing
  /// thread drains below (TCP backpressure, bounded memory).
  size_t max_pipelined_requests = 1024;
  /// Pool-wide cap on decoded-but-unexecuted requests across all
  /// connections. Past it the server *sheds*: each excess request is
  /// answered kOverloaded (with a retry-after hint) without touching the
  /// Db or keeping its payload, instead of queueing without bound. The
  /// rejection still flows through the connection's in-order response
  /// stream. 0 disables shedding.
  size_t max_pending_frames = 4096;
  /// Retry-after hint embedded in kOverloaded responses.
  uint32_t overload_retry_after_ms = 10;
  /// Slow-client eviction: a connection whose unsent response backlog
  /// exceeds this many bytes after a flush attempt by the I/O role is
  /// dropped (counted in connections_dropped_slow). The backlog is the
  /// server's buffered output plus the bytes still queued in the socket's
  /// kernel send buffer (SIOCOUTQ), which autotunes up to tcp_wmem's
  /// maximum. Protects server memory from clients that pipeline requests
  /// but never read responses. 0 disables.
  size_t max_conn_backlog_bytes = 8u << 20;
  int listen_backlog = 128;
  /// Test seam: when set, the executing thread calls this once per executed
  /// request, before touching the Db. Lets tests hold the pool busy at a
  /// barrier.
  std::function<void()> worker_hook_for_testing;
};

/// Pipelined binary-protocol server over one Db.
///
/// Architecture: a leader/follower pool of `workers + 1` identical
/// threads. At most one thread at a time holds the *I/O role*: it waits
/// in epoll_wait and does all socket-state work — accept, recv, frame
/// decode, admission and shedding, drain housekeeping, EPOLLOUT flushes,
/// slow-client eviction and close. The role passes between threads under
/// `work_mu_`, so the connection table, each input buffer and the epoll
/// flags have exactly one owner at any moment. When an event batch leaves
/// connections with requests to run and fewer than `workers` threads are
/// executing, the leader keeps one connection for itself, hands the I/O
/// role to an idle thread, and executes that connection's requests; any
/// other runnable connections queue for the remaining threads. A request
/// is thus read, executed and answered by one thread.
///
/// Poll before parking: the thread holding the I/O role polls epoll
/// without blocking, yielding the CPU between polls, and blocks in
/// epoll_wait only once 200 us pass with no event. Likewise one idle
/// thread watches for the I/O role for up to 200 us before it sleeps, so
/// the leader hands the role over without waking a thread. Under load the
/// next request is picked up by a running thread, not by a wake-up; an
/// idle server parks within 200 us of its last event.
///
/// Replies: the executing thread appends to the connection's output
/// buffer and sends it itself, under the connection's mutex, with
/// MSG_DONTWAIT — at the end of each batch, or as soon as 64 KiB of a
/// long batch's replies are ready. A connection's fd is closed only
/// after `aborted` is set under that same mutex, so such a send never
/// reaches a closed (or reused) descriptor. The reply goes through the
/// I/O role instead (an eventfd wake-up, then a flush there) when the
/// send would block or is short, and whenever the I/O side has flagged
/// the connection: closing, peer EOF, reading paused by the pipelining
/// cap, or EPOLLOUT armed.
/// Slow-client eviction, the close of a draining connection and the
/// re-arming of a paused reader all happen in that flush.
///
/// A connection's requests execute strictly in receive order (one thread
/// per connection at a time), so clients may pipeline freely; different
/// connections execute concurrently, which is what batches their writes
/// into one group-commit fsync.
///
/// Protocol errors are two-tier (see wire.h): a CRC-valid frame with an
/// undecodable payload gets a kMalformedRequest error response; a frame
/// that fails magic/reserved/CRC/size validation proves the byte stream
/// is desynced, and the connection is dropped without a reply — the Db
/// itself is never poisoned by anything a client sends.
class Server {
 public:
  /// Binds and listens on opts.host:opts.port, then starts the
  /// `workers + 1` pool threads. `db` must outlive the server and be
  /// open; the server never Close()s it.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& opts,
                                                 Db* db);
  ~Server();  ///< Stop()s if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 at Start).
  uint16_t port() const { return port_; }

  /// Abrupt shutdown: joins all threads, then closes the listener and
  /// every connection. A request already executing finishes against the
  /// Db; every other queued request is dropped unexecuted, and responses
  /// are not guaranteed to be delivered. Idempotent.
  void Stop();

  /// Graceful drain (the SIGTERM path): stop accepting, answer every
  /// already-accepted frame — executed requests with their real response,
  /// requests arriving after the drain begins with kShuttingDown — flush
  /// all responses, and close each connection as it goes idle. Once every
  /// connection has drained, or `deadline_ms` elapses, falls through to
  /// Stop(). Returns true when the drain completed before the deadline
  /// (no connection was cut with undelivered output). Idempotent;
  /// callers checkpoint the Db afterwards.
  bool Drain(int deadline_ms);

  ServerCounters counters() const;

 private:
  struct Connection;

  Server(const ServerOptions& opts, Db* db) : opts_(opts), db_(db) {}

  Status Listen();
  /// Body of every pool thread: executes a queued connection when fewer
  /// than `workers` threads are executing, else takes the I/O role when it
  /// is free, else waits (the first idle thread watches for the role
  /// before it sleeps).
  void ServeLoop();
  /// I/O role: waits for one event batch and handles it; connections it
  /// makes runnable are collected in `ready_`. The wait polls epoll
  /// (yielding between polls) for up to 200 us before it blocks, and ends
  /// early on Stop(). Returns false when epoll itself broke (the caller
  /// keeps the role and leaves, as no thread can poll).
  bool PollOnce();

  // ---- I/O role only: connection management ---------------------------
  void BeginDrain();
  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Parses every complete frame in conn->inbuf, queueing work.
  void ParseFrames(const std::shared_ptr<Connection>& conn);
  /// Writes as much buffered output as the socket accepts; arms/disarms
  /// EPOLLOUT; closes the connection when it is finished or broken.
  void TryFlush(const std::shared_ptr<Connection>& conn);
  void UpdateEpollInterest(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  /// Drains the executor->I/O flush queue (eventfd handler).
  void DrainFlushQueue();

  // ---- Executing side -------------------------------------------------
  /// Executes `conn`'s queued requests in order until none are left,
  /// sending each batch's replies.
  void RunConnection(const std::shared_ptr<Connection>& conn);
  /// Executes one decoded request, returning the encoded response frame.
  std::string HandleRequest(const Frame& frame);
  std::string BuildStatsText();
  void Count(uint64_t ServerCounters::*counter) {
    std::atomic_ref<uint64_t>(counts_.*counter)
        .fetch_add(1, std::memory_order_relaxed);
  }
  /// Asks the I/O role to flush `conn` (eventfd wake-up).
  void SignalFlush(const std::shared_ptr<Connection>& conn);

  ServerOptions opts_;
  Db* db_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: a reply needs the I/O role, or Stop().
  uint16_t port_ = 0;

  std::vector<std::thread> threads_;  ///< The workers + 1 pool threads.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  /// I/O role: drain housekeeping done; frames parsed from now on are
  /// answered kShuttingDown.
  bool drain_begun_ = false;

  /// Decoded-but-unexecuted requests across all connections (shed markers
  /// excluded) — the quantity max_pending_frames caps.
  std::atomic<int64_t> pending_frames_{0};
  /// Open connections; Drain() waits for this to reach zero.
  std::atomic<int64_t> live_conns_{0};

  /// Live connections, keyed by fd. I/O role only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  /// Connections the current event batch made runnable. I/O role only.
  std::vector<std::shared_ptr<Connection>> ready_;

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  /// Runnable connections waiting for a thread (work_mu_).
  std::deque<std::shared_ptr<Connection>> work_q_;
  /// A thread holds the I/O role. Written under work_mu_; read without
  /// it by the thread watching for the role.
  std::atomic<bool> leader_active_{false};
  bool role_watched_ = false;   ///< work_mu_: a thread watches for the role.
  size_t executing_ = 0;        ///< work_mu_: threads running a connection.

  std::mutex flush_mu_;
  std::vector<std::shared_ptr<Connection>> flush_q_;

  /// Touched only through std::atomic_ref (Count(), counters()).
  mutable ServerCounters counts_;
};

}  // namespace lsmssd::net

#endif  // LSMSSD_NET_SERVER_H_
