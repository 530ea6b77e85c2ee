#include "util.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

void SleepUntil(int64_t due_ns, int64_t spin_ns) {
  const int64_t wake_ns = due_ns - spin_ns;
  if (NowNs() < wake_ns) {
    timespec ts;
    ts.tv_sec = wake_ns / 1'000'000'000;
    ts.tv_nsec = wake_ns % 1'000'000'000;
    // steady_clock is CLOCK_MONOTONIC on Linux.
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (NowNs() < due_ns) {
  }
}

void PrepareGeneratorThread() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Best effort: without CAP_SYS_NICE the thread keeps the default weight.
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
              kGeneratorNice);
}

uint64_t StealTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0;
  for (uint64_t& x : v) {
    if (!(f >> x)) return 0;
  }
  return v[7];  // user nice system idle iowait irq softirq steal
}

double CpuTicksPerSecond() {
  return static_cast<double>(sysconf(_SC_CLK_TCK)) *
         static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
}

Percentile TailPercentile(const std::vector<double>& sorted, double pct,
                          uint64_t min_beyond) {
  Percentile p;
  const uint64_t n = sorted.size();
  p.samples = n;
  if (n == 0 || n <= min_beyond) return p;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);  // 1-based nearest rank
  if (n - rank < min_beyond) rank = n - min_beyond;
  p.pct = std::min(pct, 100.0 * static_cast<double>(rank) /
                            static_cast<double>(n));
  p.value = sorted[rank - 1];
  p.beyond = n - rank;
  p.valid = true;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
