// Clock, open-loop schedule and percentile helpers shared by the benchmark
// and its self-tests.
#ifndef PERFBENCH_SRC_UTIL_H_
#define PERFBENCH_SRC_UTIL_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Open-loop schedule: request `index` of a stream offered at `rate_per_s`
/// is due `index / rate` seconds after the phase starts, whatever happened
/// to the requests before it.
inline int64_t DueOffsetNs(uint64_t index, double rate_per_s) {
  return static_cast<int64_t>(static_cast<double>(index) * 1e9 / rate_per_s);
}

/// How late a request left against its due time. The sender never sends
/// early, so a negative difference can only be clock granularity.
inline int64_t LatenessNs(int64_t due_ns, int64_t sent_ns) {
  return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

/// Sleeps until `due_ns` on the steady clock: a timed sleep that ends
/// `spin_ns` early, then a busy wait, so wake-up jitter does not make a
/// send late.
void SleepUntil(int64_t due_ns, int64_t spin_ns);

/// Nice value of the load generator's threads.
inline constexpr int kGeneratorNice = -10;

/// Lowers the calling thread's timer slack to 1 ns and raises its CPU
/// weight (kGeneratorNice), so the schedule is kept even when the server
/// and its compaction keep every CPU busy. Only the generator's own threads
/// call it; the server threads in the same process keep the defaults.
void PrepareGeneratorThread();

/// Host interference: CPU time the hypervisor took from this machine's
/// CPUs (the "steal" column of /proc/stat), in clock ticks since boot; 0
/// where unavailable.
uint64_t StealTicks();

/// Clock ticks all CPUs together have per second.
double CpuTicksPerSecond();

/// A measured interval is quiet when steal took at most this share of the
/// machine's CPU time in it.
inline constexpr double kMaxStealShare = 0.02;

/// Samples beyond a reported tail percentile that make it trustworthy.
inline constexpr uint64_t kMinSamplesBeyond = 10;

struct Percentile {
  double pct = 0;        ///< The percentile reported (99, or lower; see below).
  double value = 0;      ///< Sample at that rank.
  uint64_t samples = 0;  ///< Samples behind it.
  uint64_t beyond = 0;   ///< Samples ranked above it.
  bool valid = false;    ///< False when too few samples for any percentile.
};

/// Nearest-rank percentile `pct` of `sorted` (ascending). At least
/// `min_beyond` samples must rank above the reported one; when fewer do,
/// the highest percentile that has that many is reported instead.
Percentile TailPercentile(const std::vector<double>& sorted, double pct,
                          uint64_t min_beyond = kMinSamplesBeyond);

/// Median of an unsorted copy; 0 for an empty input.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_UTIL_H_
