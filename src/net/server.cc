#include "src/net/server.h"

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/lsm/iterator.h"

namespace lsmssd::net {

namespace {
/// Replies of one batch are sent once this many bytes have accumulated.
constexpr size_t kReplyChunkBytes = 64 * 1024;

/// How long a thread polls before it blocks — the I/O role on epoll, an
/// idle thread on the I/O role: the default of KVM's halt_poll_ns, the
/// window in which a halted vCPU is still cheap to wake.
constexpr std::chrono::microseconds kPollWindow(200);

/// Calls `ready` until it returns true or kPollWindow passes, yielding
/// the CPU between calls to any runnable thread (compaction, executing
/// threads, clients).
template <typename Ready>
void PollForWindow(Ready ready) {
  const auto park_at = std::chrono::steady_clock::now() + kPollWindow;
  while (!ready() && std::chrono::steady_clock::now() < park_at) {
    sched_yield();
  }
}

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IoError(what + ": " + std::strerror(err));
}
}  // namespace

/// Per-connection state. The epoll interest, the input buffer, and the
/// lifecycle flags belong to the thread holding the I/O role; `mu` guards
/// what an executing thread also touches (pending requests, the busy
/// flag, buffered output, and the send side of the socket).
struct Server::Connection {
  int fd = -1;
  bool dead = false;           ///< Closed and deregistered.
  bool eof = false;            ///< Peer half-closed; finish then close.
  bool closing = false;        ///< Close once output drains and idle.
  bool epollin_armed = true;
  bool epollout_armed = false;
  std::string inbuf;

  /// One queued unit of a connection's in-order response stream. Shed
  /// markers (overload / drain rejections) ride the same queue as real
  /// requests so their error responses interleave in receive order; their
  /// payload bytes are dropped at parse time, so a marker costs a few
  /// dozen bytes and zero Db work.
  struct WorkItem {
    enum class Kind : uint8_t { kExecute, kShedOverload, kShedShutdown };
    Frame frame;
    Kind kind = Kind::kExecute;
  };

  enum class SendResult { kDrained, kBlocked, kBroken };

  /// Sends buffered output until it is gone or the socket would block.
  /// Caller holds `mu`, and `aborted` is false (the fd is open).
  SendResult SendLocked() {
    while (out_off < outbuf.size()) {
      const ssize_t n = send(fd, outbuf.data() + out_off,
                             outbuf.size() - out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return SendResult::kBlocked;
        }
        return SendResult::kBroken;
      }
      out_off += static_cast<size_t>(n);
      sent_unchecked += static_cast<size_t>(n);
    }
    outbuf.clear();
    out_off = 0;
    return SendResult::kDrained;
  }

  std::mutex mu;
  std::deque<WorkItem> pending;  ///< Decoded requests awaiting execution.
  bool busy = false;           ///< A thread owns the pending queue.
  bool aborted = false;        ///< mu-side mirror of `dead`, set before the
                               ///< fd is closed: the peer is gone; skip the
                               ///< queued Db work and send nothing.
  /// Set by the I/O side while it has an interest in this connection's
  /// output: closing, peer EOF, reading paused, or EPOLLOUT armed. Then
  /// the executing thread leaves replies (and its final idle check) to
  /// the I/O role's TryFlush instead of sending them itself.
  bool via_io = false;
  std::string outbuf;          ///< Encoded responses awaiting the socket.
  size_t out_off = 0;
  /// Bytes sent since the I/O role last measured the backlog (TryFlush).
  size_t sent_unchecked = 0;
};

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& opts,
                                                Db* db) {
  if (db == nullptr) return Status::InvalidArgument("Server needs a Db");
  if (opts.workers == 0) {
    return Status::InvalidArgument("ServerOptions::workers must be >= 1");
  }
  auto server = std::unique_ptr<Server>(new Server(opts, db));
  LSMSSD_RETURN_IF_ERROR(server->Listen());
  server->started_ = true;
  // One thread more than may execute at once, so a thread is always free
  // to hold the I/O role.
  server->threads_.reserve(opts.workers + 1);
  for (size_t i = 0; i <= opts.workers; ++i) {
    server->threads_.emplace_back([s = server.get()] { s->ServeLoop(); });
  }
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + opts_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind " + opts_.host + ":" +
                           std::to_string(opts_.port),
                       errno);
  }
  if (listen(listen_fd_, opts_.listen_backlog) != 0) {
    return ErrnoStatus("listen", errno);
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname", errno);
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1", errno);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return ErrnoStatus("eventfd", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    // Start() failed before threads existed; release any fds Listen made.
    if (listen_fd_ >= 0) close(listen_fd_), listen_fd_ = -1;
    if (epoll_fd_ >= 0) close(epoll_fd_), epoll_fd_ = -1;
    if (wake_fd_ >= 0) close(wake_fd_), wake_fd_ = -1;
    return;
  }
  {
    std::lock_guard<std::mutex> l(work_mu_);
    if (stopping_.exchange(true)) return;  // Already stopped.
  }
  work_cv_.notify_all();
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Every thread has joined, so nothing else can touch a connection now.
  for (auto& [fd, conn] : conns_) {
    close(fd);
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
  ready_.clear();
  work_q_.clear();
  flush_q_.clear();
  if (listen_fd_ >= 0) close(listen_fd_), listen_fd_ = -1;
  if (epoll_fd_ >= 0) close(epoll_fd_), epoll_fd_ = -1;
  if (wake_fd_ >= 0) close(wake_fd_), wake_fd_ = -1;
}

bool Server::Drain(int deadline_ms) {
  if (!started_ || stopping_.load(std::memory_order_acquire)) {
    Stop();
    return true;
  }
  draining_.store(true, std::memory_order_release);
  // Wake the I/O role: it closes the listener, marks every connection
  // closing, and flushes — all fd work stays with that role.
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(deadline_ms < 0 ? 0 : deadline_ms);
  bool clean = false;
  while (true) {
    if (live_conns_.load(std::memory_order_relaxed) == 0 &&
        pending_frames_.load(std::memory_order_relaxed) == 0) {
      clean = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  return clean;
}

ServerCounters Server::counters() const {
  static_assert(std::atomic_ref<uint64_t>::required_alignment ==
                alignof(uint64_t));
  ServerCounters c;
  for (const auto& f : ServerCounters::Fields()) {
    c.*f.member = std::atomic_ref<uint64_t>(counts_.*f.member).load();
  }
  return c;
}

// ---- Thread pool ----------------------------------------------------------

void Server::ServeLoop() {
  std::unique_lock<std::mutex> lk(work_mu_);
  auto runnable = [this] {
    return stopping_.load(std::memory_order_relaxed) ||
           !leader_active_.load(std::memory_order_relaxed) ||
           (!work_q_.empty() && executing_ < opts_.workers);
  };
  while (true) {
    if (!runnable() && !role_watched_) {
      // Poll before parking, for the I/O role: one idle thread watches
      // for it for up to kPollWindow, so the leader can hand it over
      // without waking a sleeping thread.
      role_watched_ = true;
      lk.unlock();
      PollForWindow([this] {
        return !leader_active_.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed);
      });
      lk.lock();
      role_watched_ = false;
    }
    work_cv_.wait(lk, runnable);
    if (stopping_.load(std::memory_order_relaxed)) return;
    std::shared_ptr<Connection> conn;
    bool handed_off = false;
    if (!work_q_.empty() && executing_ < opts_.workers) {
      conn = std::move(work_q_.front());
      work_q_.pop_front();
    } else {
      // Take the I/O role and hold it until an event batch leaves a
      // connection this thread may execute.
      leader_active_ = true;
      while (conn == nullptr) {
        lk.unlock();
        const bool polled = PollOnce();
        lk.lock();
        if (!polled || stopping_.load(std::memory_order_relaxed)) return;
        if (ready_.empty()) continue;
        size_t first = 0;
        if (executing_ < opts_.workers) conn = std::move(ready_[first++]);
        for (size_t i = first; i < ready_.size(); ++i) {
          work_q_.push_back(std::move(ready_[i]));
        }
        ready_.clear();
      }
      leader_active_ = false;
      handed_off = true;
    }
    ++executing_;
    const bool wake_all = !work_q_.empty();
    const bool watched = role_watched_;
    lk.unlock();
    if (handed_off) {
      // Pass the I/O role on (and any queued connections). A watching
      // thread takes the role without a wake-up; it re-checks under
      // work_mu_ before it parks, so skipping the notify loses nothing.
      if (wake_all) {
        work_cv_.notify_all();
      } else if (!watched) {
        work_cv_.notify_one();
      }
    }
    RunConnection(conn);
    conn.reset();
    lk.lock();
    --executing_;
  }
}

bool Server::PollOnce() {
  epoll_event events[128];
  // Poll before parking: a request that arrives within the window is
  // picked up by a running thread, so neither side waits for a wake-up.
  int n = 0;
  PollForWindow([&] {
    n = epoll_wait(epoll_fd_, events, 128, 0);
    return n != 0 || stopping_.load(std::memory_order_relaxed);
  });
  if (n > 0) {
    Count(&ServerCounters::polls_caught_spinning);
  } else if (n == 0) {
    if (stopping_.load(std::memory_order_relaxed)) return true;
    Count(&ServerCounters::polls_parked);
    n = epoll_wait(epoll_fd_, events, 128, -1);
  }
  if (n < 0) return errno == EINTR;  // Any other error: epoll itself broke.
  if (draining_.load(std::memory_order_acquire) && !drain_begun_) {
    BeginDrain();
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const uint32_t ev = events[i].events;
    if (fd == listen_fd_) {
      AcceptNew();
      continue;
    }
    if (fd == wake_fd_) {
      uint64_t drain = 0;
      while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      DrainFlushQueue();
      continue;
    }
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // Closed earlier this batch.
    std::shared_ptr<Connection> conn = it->second;
    if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConn(conn);
      continue;
    }
    if ((ev & EPOLLIN) != 0) HandleReadable(conn);
    if (!conn->dead && (ev & EPOLLOUT) != 0) TryFlush(conn);
  }
  return true;
}

void Server::BeginDrain() {
  // Drain housekeeping, once: retire the listener (no new connections),
  // take in the frames each socket already holds (they reached the server
  // before the drain began, so they execute), then put every live
  // connection on the close-when-idle path. Frames arriving from here on
  // are answered kShuttingDown before the close.
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Connection>> live;
  live.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) live.push_back(conn);
  for (const auto& conn : live) HandleReadable(conn);
  drain_begun_ = true;
  for (const auto& conn : live) {
    if (conn->dead) continue;
    conn->closing = true;
    TryFlush(conn);  // Closes immediately when already idle.
  }
}

void Server::AcceptNew() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error: wait for the next event.
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Count(&ServerCounters::connections_accepted);
    live_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (!conn->dead && conn->epollin_armed) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      ParseFrames(conn);
      continue;
    }
    if (n == 0) {
      conn->eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  if (conn->dead) return;
  if (conn->eof) {
    bool idle;
    {
      // Flagged in the same critical section as the idle check: a thread
      // still executing this connection will leave its final idle check
      // to TryFlush, which then closes.
      std::lock_guard<std::mutex> l(conn->mu);
      conn->via_io = true;
      idle = !conn->busy && conn->pending.empty() && conn->outbuf.empty();
    }
    if (idle) {
      CloseConn(conn);
    } else {
      conn->closing = true;  // Deliver what is in flight, then close.
    }
  }
}

void Server::ParseFrames(const std::shared_ptr<Connection>& conn) {
  size_t pos = 0;
  bool paused = false;
  while (!conn->dead && !paused) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const std::string_view rest = std::string_view(conn->inbuf).substr(pos);
    const FrameDecodeResult r = DecodeFrame(
        rest, opts_.max_frame_payload_bytes, &frame, &consumed, &error);
    if (r == FrameDecodeResult::kNeedMore) break;
    if (r == FrameDecodeResult::kMalformed) {
      // The byte stream is not trustworthy past this point: there is no
      // reliable opcode to reply to, so drop the connection. The Db never
      // saw the bytes — nothing to poison.
      Count(&ServerCounters::connections_dropped_malformed);
      CloseConn(conn);
      return;
    }
    pos += consumed;
    if (frame.version != kWireVersion) {
      Count(&ServerCounters::unsupported_version_frames);
      const std::string reply = EncodeFrame(
          static_cast<uint8_t>(frame.opcode | kResponseBit),
          EncodeProtocolErrorResponse(
              WireError::kUnsupportedVersion,
              "server speaks wire version " + std::to_string(kWireVersion)));
      {
        std::lock_guard<std::mutex> l(conn->mu);
        conn->outbuf.append(reply);
        conn->via_io = true;
      }
      conn->closing = true;
      conn->inbuf.clear();
      conn->epollin_armed = false;
      UpdateEpollInterest(conn);
      TryFlush(conn);
      return;
    }
    // Admission decision, made before any Db work: drain rejections and
    // overload sheds become lightweight markers on the same in-order
    // queue (their payload bytes are released here), so a client that
    // pipelined N frames still receives exactly N responses in order.
    using Kind = Connection::WorkItem::Kind;
    Kind kind = Kind::kExecute;
    if (drain_begun_) {
      kind = Kind::kShedShutdown;
      Count(&ServerCounters::frames_rejected_shutdown);
    } else if (opts_.max_pending_frames > 0 &&
               pending_frames_.load(std::memory_order_relaxed) >=
                   static_cast<int64_t>(opts_.max_pending_frames) &&
               frame.opcode != static_cast<uint8_t>(Opcode::kPing) &&
               frame.opcode != static_cast<uint8_t>(Opcode::kStats)) {
      // Health probes are always admitted: an operator diagnosing an
      // overloaded server must still get PING/STATS answers — they do
      // no Db work, so admitting them cannot deepen the overload.
      kind = Kind::kShedOverload;
      Count(&ServerCounters::frames_shed_overload);
    } else {
      pending_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    if (kind != Kind::kExecute) frame.payload = std::string();
    bool enqueue = false;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      conn->pending.push_back(Connection::WorkItem{std::move(frame), kind});
      if (!conn->busy) {
        conn->busy = true;
        enqueue = true;
      }
      paused = conn->pending.size() >= opts_.max_pipelined_requests;
      // Set with the push that crosses the cap: the executing thread
      // either sees it or has already gone idle and is re-queued here.
      if (paused) conn->via_io = true;
    }
    if (enqueue) ready_.push_back(conn);  // Handed out after the batch.
  }
  if (!conn->dead && pos > 0) conn->inbuf.erase(0, pos);
  if (paused && conn->epollin_armed) {
    // Pipelining backpressure: stop reading this socket until the
    // executing thread drains the queue (TryFlush re-arms and re-parses).
    conn->epollin_armed = false;
    UpdateEpollInterest(conn);
  }
}

void Server::TryFlush(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  Connection::SendResult sent;
  bool idle = false;
  size_t backlog_bytes = 0;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    sent = conn->SendLocked();
    conn->sent_unchecked = 0;
    backlog_bytes = conn->outbuf.size() - conn->out_off;
    idle = !conn->busy && conn->pending.empty() && conn->outbuf.empty();
    conn->via_io = sent == Connection::SendResult::kBlocked ||
                   conn->closing || conn->eof || !conn->epollin_armed;
  }
  if (sent == Connection::SendResult::kBroken) {
    CloseConn(conn);
    return;
  }
  if (opts_.max_conn_backlog_bytes > 0) {
    // The kernel's send queue counts too: it autotunes up to tcp_wmem's
    // maximum (MiBs), all of it held for a peer that does not read.
    int queued = 0;
    if (ioctl(conn->fd, SIOCOUTQ, &queued) == 0 && queued > 0) {
      backlog_bytes += static_cast<size_t>(queued);
    }
    if (backlog_bytes > opts_.max_conn_backlog_bytes) {
      // Slow-client eviction: the peer pipelines requests but does not
      // read responses; its backlog, not the thread pool, is the memory
      // it is consuming. Dropping the connection frees it — the client
      // observes a reset (Unavailable) and may reconnect with backoff.
      Count(&ServerCounters::connections_dropped_slow);
      CloseConn(conn);
      return;
    }
  }
  if (sent == Connection::SendResult::kBlocked) {
    if (!conn->epollout_armed) {
      conn->epollout_armed = true;
      UpdateEpollInterest(conn);
    }
    return;
  }
  if (conn->epollout_armed) {
    conn->epollout_armed = false;
    UpdateEpollInterest(conn);
  }
  if ((conn->closing || conn->eof) && idle) {
    CloseConn(conn);
    return;
  }
  // Resume reading once the pipeline backlog has drained.
  if (!conn->epollin_armed && !conn->closing && !conn->eof) {
    bool resume;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      resume = conn->pending.size() < opts_.max_pipelined_requests / 2 + 1;
      if (resume) conn->via_io = false;
    }
    if (resume) {
      conn->epollin_armed = true;
      UpdateEpollInterest(conn);
      ParseFrames(conn);  // Frames may already be buffered past the pause.
    }
  }
}

void Server::UpdateEpollInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  epoll_event ev{};
  ev.events = (conn->epollin_armed ? EPOLLIN : 0u) |
              (conn->epollout_armed ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    conn->aborted = true;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  close(conn->fd);
  live_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::DrainFlushQueue() {
  std::vector<std::shared_ptr<Connection>> ready;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    ready.swap(flush_q_);
  }
  for (const auto& conn : ready) {
    if (!conn->dead) TryFlush(conn);
  }
}

// ---- Executing side -------------------------------------------------------

void Server::SignalFlush(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    flush_q_.push_back(conn);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Server::RunConnection(const std::shared_ptr<Connection>& conn) {
  // Drain this connection until its pipeline is empty. Only one thread
  // holds a given connection at a time (the busy flag), so requests
  // execute — and respond — strictly in receive order.
  bool final_check = false;
  while (true) {
    std::deque<Connection::WorkItem> batch;
    bool skip = false;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (conn->pending.empty()) {
        conn->busy = false;
        // The I/O side waits on this connection going idle (to close it
        // or to resume reading): let TryFlush see it.
        final_check = conn->via_io && !conn->aborted;
        break;
      }
      batch.swap(conn->pending);
      skip = conn->aborted;
    }
    int64_t executes = 0;
    for (const Connection::WorkItem& item : batch) {
      if (item.kind == Connection::WorkItem::Kind::kExecute) ++executes;
    }
    if (executes > 0) {
      pending_frames_.fetch_sub(executes, std::memory_order_relaxed);
    }
    // Peer gone, or the server stopping: nobody will read the responses,
    // so skip the Db work (and any duplicate application a retrying
    // client would risk).
    if (skip || stopping_.load(std::memory_order_relaxed)) continue;
    std::string out;
    // Hands `out` to the socket; false once the peer is gone. Send the
    // reply from this thread unless the I/O side has an interest in the
    // output or the socket cannot take it all now. After every half cap
    // of bytes sent here, the I/O role's flush re-measures the backlog:
    // a kernel send buffer that absorbs every send still counts.
    auto deliver = [&] {
      bool needs_io = false;
      {
        std::lock_guard<std::mutex> l(conn->mu);
        if (conn->aborted) return false;
        conn->outbuf.append(out);
        needs_io = conn->via_io ||
                   conn->SendLocked() != Connection::SendResult::kDrained ||
                   (opts_.max_conn_backlog_bytes > 0 &&
                    conn->sent_unchecked > opts_.max_conn_backlog_bytes / 2);
      }
      out.clear();
      if (needs_io) SignalFlush(conn);
      return true;
    };
    for (const Connection::WorkItem& item : batch) {
      // Stop() waits for this thread: leave the rest of a long pipelined
      // batch unexecuted.
      if (stopping_.load(std::memory_order_relaxed)) break;
      const uint8_t response_op =
          static_cast<uint8_t>(item.frame.opcode | kResponseBit);
      switch (item.kind) {
        case Connection::WorkItem::Kind::kExecute:
          out.append(HandleRequest(item.frame));
          break;
        case Connection::WorkItem::Kind::kShedOverload:
          out.append(EncodeFrame(
              response_op,
              EncodeOverloadedResponse(opts_.overload_retry_after_ms)));
          break;
        case Connection::WorkItem::Kind::kShedShutdown:
          out.append(EncodeFrame(
              response_op,
              EncodeProtocolErrorResponse(WireError::kShuttingDown,
                                          "server draining")));
          break;
      }
      // Large replies leave as they are made, so the first reply of a
      // long batch does not wait for the last request to execute.
      if (out.size() >= kReplyChunkBytes && !deliver()) break;
    }
    if (!out.empty()) deliver();
  }
  if (final_check) SignalFlush(conn);
}

std::string Server::HandleRequest(const Frame& frame) {
  if (opts_.worker_hook_for_testing) opts_.worker_hook_for_testing();
  Count(&ServerCounters::frames_processed);
  const uint8_t response_op =
      static_cast<uint8_t>(frame.opcode | kResponseBit);
  auto malformed = [&](const char* what) {
    return EncodeFrame(response_op, EncodeProtocolErrorResponse(
                                        WireError::kMalformedRequest, what));
  };
  std::string body;
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kGet: {
      Key key = 0;
      if (!DecodeGetRequest(frame.payload, &key)) {
        return malformed("undecodable GET payload");
      }
      StatusOr<std::string> value = db_->Get(key);
      body = value.ok() ? EncodeGetResponse(value.value())
                        : EncodeErrorResponse(value.status());
      break;
    }
    case Opcode::kPut: {
      Key key = 0;
      std::string_view value;
      if (!DecodePutRequest(frame.payload, &key, &value)) {
        return malformed("undecodable PUT payload");
      }
      if (value.size() != db_->options().payload_size) {
        body = EncodeErrorResponse(Status::InvalidArgument(
            "payload must be exactly " +
            std::to_string(db_->options().payload_size) + " bytes, got " +
            std::to_string(value.size())));
        break;
      }
      const Status st = db_->Put(key, value);
      body = st.ok() ? EncodeEmptyOkResponse() : EncodeErrorResponse(st);
      break;
    }
    case Opcode::kDelete: {
      Key key = 0;
      if (!DecodeDeleteRequest(frame.payload, &key)) {
        return malformed("undecodable DELETE payload");
      }
      const Status st = db_->Delete(key);
      body = st.ok() ? EncodeEmptyOkResponse() : EncodeErrorResponse(st);
      break;
    }
    case Opcode::kScan: {
      Key lo = 0;
      Key hi = 0;
      uint32_t limit = 0;
      if (!DecodeScanRequest(frame.payload, &lo, &hi, &limit)) {
        return malformed("undecodable SCAN payload");
      }
      uint32_t cap = opts_.max_scan_results;
      if (limit != 0 && limit < cap) cap = limit;
      std::unique_ptr<Iterator> it = db_->NewIterator();
      if (it == nullptr) {
        body = EncodeErrorResponse(
            Status::FailedPrecondition("db is in a failed state"));
        break;
      }
      std::vector<ScanItem> items;
      for (it->Seek(lo);
           it->Valid() && it->key() <= hi && items.size() < cap;
           it->Next()) {
        items.push_back(ScanItem{it->key(), it->value()});
      }
      body = it->status().ok() ? EncodeScanResponse(items)
                               : EncodeErrorResponse(it->status());
      break;
    }
    case Opcode::kStats:
      body = EncodeStatsResponse(BuildStatsText());
      break;
    case Opcode::kPing:
      if (!frame.payload.empty()) {
        return malformed("PING carries no payload");
      }
      body = EncodeEmptyOkResponse();
      break;
    default:
      body = EncodeErrorResponse(Status::Unimplemented(
          "unknown opcode " + std::to_string(frame.opcode)));
      break;
  }
  return EncodeFrame(response_op, body);
}

std::string Server::BuildStatsText() {
  const DbStats s = db_->Stats();
  std::string t;
  auto line = [&t](std::string_view key, uint64_t value) {
    t.append(key).append(" ").append(std::to_string(value)).append("\n");
  };
  line(kStatsPayloadSize, db_->options().payload_size);
  line(kStatsQuarantinedBlocks, s.quarantined_blocks.size());
  const ServerCounters c = counters();
  for (const auto& f : ServerCounters::Fields()) line(f.name, c.*f.member);
  for (const auto& f : DbStats::Fields()) line(f.name, s.*f.member);
  for (const auto& f : IoStats::Fields()) {
    line(std::string(kStatsIoPrefix) + f.name, s.io.Get(f));
  }
  t += '\n';
  t += s.ToString();
  return t;
}

}  // namespace lsmssd::net
