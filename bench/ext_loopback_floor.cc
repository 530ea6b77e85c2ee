// Extension experiment: the latency floor of one request/response over
// loopback TCP on this host, with no storage engine behind it.
//
// A served GET pays for two socket hops and for waking the thread that
// waits on each of them, whatever the server does in between. This bench
// measures that floor with the same shape of traffic as perfbench's
// open-loop phase: the client sends a 24-byte request every 200 us (it
// sleeps until 30 us before the due time and spins the rest), blocks in
// recv() for the 64-byte reply, and times it from the due time. The server
// answers from one thread in two modes:
//   spinning  busy-polls recv(MSG_DONTWAIT) with sched_yield() between
//             polls, as the lsmssd server's I/O leader does under load;
//   blocking  sleeps in recv() and is woken by the kernel per request.
// Prints p50/p75/p99 per mode with host_cpus and the source commit; it
// writes no file and gates nothing. Runs in about 10 s.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness/source_commit.h"
#include "src/util/logging.h"

namespace {

constexpr size_t kRequestBytes = 24;
constexpr size_t kReplyBytes = 64;
constexpr int64_t kIntervalNs = 200'000;
constexpr int64_t kSpinNs = 30'000;
constexpr int kWarmup = 1'000;
constexpr int kRequests = 20'000;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntil(int64_t due_ns) {
  const int64_t wake_ns = due_ns - kSpinNs;
  if (NowNs() < wake_ns) {
    timespec ts;
    ts.tv_sec = wake_ns / 1'000'000'000;
    ts.tv_nsec = wake_ns % 1'000'000'000;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) !=
           0) {
    }
  }
  while (NowNs() < due_ns) {
  }
}

void SetNoDelay(int fd) {
  const int one = 1;
  LSMSSD_CHECK(setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) ==
               0);
}

// Reads exactly `n` bytes; false on EOF or error. With `spin`, polls
// without blocking and yields the CPU between empty polls.
bool RecvAll(int fd, uint8_t* buf, size_t n, bool spin) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, buf + got, n - got, spin ? MSG_DONTWAIT : 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      sched_yield();
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool SendAll(int fd, const uint8_t* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    sent += static_cast<size_t>(r);
  }
  return true;
}

struct Percentiles {
  double p50_us, p75_us, p99_us;
};

// One connection, one server thread in the given mode; returns the
// client-observed latency percentiles over kRequests timed requests.
Percentiles Measure(bool spinning_server) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  LSMSSD_CHECK(listener >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  LSMSSD_CHECK(bind(listener, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0);
  LSMSSD_CHECK(listen(listener, 1) == 0);
  socklen_t len = sizeof(addr);
  LSMSSD_CHECK(getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0);

  std::thread server([listener, spinning_server] {
    const int fd = accept(listener, nullptr, nullptr);
    LSMSSD_CHECK(fd >= 0);
    SetNoDelay(fd);
    uint8_t request[kRequestBytes];
    uint8_t reply[kReplyBytes] = {};
    while (RecvAll(fd, request, sizeof(request), spinning_server)) {
      reply[0] = request[0];
      if (!SendAll(fd, reply, sizeof(reply))) break;
    }
    close(fd);
  });

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  LSMSSD_CHECK(fd >= 0);
  LSMSSD_CHECK(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
               0);
  SetNoDelay(fd);

  std::vector<double> latencies_us;
  latencies_us.reserve(kRequests);
  uint8_t request[kRequestBytes] = {};
  uint8_t reply[kReplyBytes];
  int64_t due = NowNs() + kIntervalNs;
  for (int i = 0; i < kWarmup + kRequests; ++i, due += kIntervalNs) {
    SleepUntil(due);
    request[0] = static_cast<uint8_t>(i);
    LSMSSD_CHECK(SendAll(fd, request, sizeof(request)));
    LSMSSD_CHECK(RecvAll(fd, reply, sizeof(reply), /*spin=*/false));
    LSMSSD_CHECK(reply[0] == request[0]);
    const int64_t done = NowNs();
    if (i >= kWarmup) latencies_us.push_back((done - due) / 1000.0);
  }
  close(fd);
  server.join();
  close(listener);

  std::sort(latencies_us.begin(), latencies_us.end());
  auto at = [&](double q) {
    return latencies_us[static_cast<size_t>(q * (latencies_us.size() - 1))];
  };
  return {at(0.50), at(0.75), at(0.99)};
}

}  // namespace

int main() {
  // As perfbench's generator does: without this the client's sleeps
  // overshoot by the default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::printf("loopback floor: host_cpus=%u commit=%s\n",
              std::thread::hardware_concurrency(),
              lsmssd::bench::SourceCommit().c_str());
  std::printf("%d requests of %zu B, replies of %zu B, one every %lld us\n",
              kRequests, kRequestBytes, kReplyBytes,
              static_cast<long long>(kIntervalNs / 1000));
  std::printf("%-10s %9s %9s %9s\n", "server", "p50_us", "p75_us", "p99_us");
  for (const bool spinning : {true, false}) {
    const Percentiles p = Measure(spinning);
    std::printf("%-10s %9.2f %9.2f %9.2f\n",
                spinning ? "spinning" : "blocking", p.p50_us, p.p75_us,
                p.p99_us);
  }
  return 0;
}
