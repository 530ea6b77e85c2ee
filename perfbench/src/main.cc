// Served open-loop benchmark of lsmssd: one workload per invocation, run
// against an in-process Db behind a net::Server on loopback.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//
// --trace 0 measures the end-to-end metrics: median set-up time over
// several set-ups, a closed-loop peak phase, then an open-loop phase at the
// workload's fixed offered rate, with every reply checked as it arrives and
// a full audit, scrub and leak check at the end.
// --trace 1 runs the same served phases, then replays the same request
// stream against an in-process Db (db layer) and against a bare LsmTree
// over timing decorators (lsm, storage, policy layers), and reports the
// per-layer metrics. Spans are written to DIR/spans-<workload>.csv.
//
// Human-readable lines come first; the last line is "RESULT " + one JSON
// object with correct, attempted, failed and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "load.h"
#include "model.h"
#include "src/db/db.h"
#include "src/lsm/lsm_tree.h"
#include "src/net/server.h"
#include "src/policy/policy_factory.h"
#include "src/storage/file_block_device.h"
#include "timing.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = lsmssd::net;
using lsmssd::Status;

constexpr size_t kPeakLanes = 4;  ///< Closed loop: 4 connections, 1 in flight.
constexpr size_t kOpenLanes = 2;  ///< Open loop: 2 pipelined connections.
constexpr size_t kPeakRounds = 7;
constexpr size_t kMinQuietRounds = 3;
/// Set-up is repeated until kMinSetups quiet set-ups took kMinSetupSeconds
/// together, so a short set-up is timed often enough to be steady.
constexpr size_t kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kMinSetupSeconds = 2.0;
constexpr double kMaxSetupSeconds = 20.0;
/// The generator must keep its schedule: an open-loop attempt whose sends
/// left later than this at the 99th percentile is discarded, not data; a
/// run that gathers no quiet window otherwise is invalid.
constexpr double kMaxLateP99Us = 250;
constexpr int kMaxOpenAttempts = 4;
/// Quiet 1 s windows the open-loop statistics need.
constexpr size_t kMinQuietWindows = 3;
/// write-steady is in steady state only when blocks_written_per_mb of the
/// two halves of the open-loop phase agree within this share, the bound
/// BENCHMARK.json gives device_blocks_per_mb, and the tree has at least
/// kMinSsdLevels on-SSD levels when the phase starts.
constexpr double kSteadyHalvesBound = 0.15;
constexpr size_t kMinSsdLevels = 3;

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->dir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

size_t PayloadSize() { return TreeOptions().payload_size; }

/// Bytes of one record as the paper counts requests: type + key + payload.
double RecordBytes() {
  const lsmssd::Options o = TreeOptions();
  return static_cast<double>(1 + o.key_size + o.payload_size);
}

lsmssd::Key MaxKey() { return (lsmssd::Key{1} << (8 * TreeOptions().key_size)) - 1; }

/// True when steal took at most kMaxStealShare of the CPUs over an interval
/// of `seconds` in which it advanced by `steal_ticks`.
bool Quiet(uint64_t steal_ticks, double seconds) {
  return static_cast<double>(steal_ticks) <=
         kMaxStealShare * CpuTicksPerSecond() * seconds;
}

// ---- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 1e12;  // a failed request's latency
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %14.4f %-10s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  }
  /// A tail percentile, with the rank actually reported and its samples.
  void AddTail(const std::string& name, const Percentile& p) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%.2f of %llu samples (%llu beyond)",
                  p.pct, static_cast<unsigned long long>(p.samples),
                  static_cast<unsigned long long>(p.beyond));
    Add(name, p.valid ? p.value : 0, "us", p.valid ? note : "n/a");
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string j = "{\"correct\": ";
    j += correct ? "true" : "false";
    j += ", \"attempted\": " + std::to_string(attempted);
    j += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char v[64];
      std::snprintf(v, sizeof(v), "%.10g", metrics_[i].value);
      if (i > 0) j += ", ";
      j += "\"" + metrics_[i].name + "\": {\"value\": " + v +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return j + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---- Set-up and checks ------------------------------------------------------

struct Streams {
  std::unique_ptr<OpSource> src;  ///< Continues the stream for retries.
  std::vector<Op> preload, peak, open;
};

Streams MakeStreams(const WorkloadSpec& w, const Args& a) {
  Streams s;
  s.src = std::make_unique<OpSource>(w, a.seed);
  s.preload = s.src->Preload();
  s.peak = s.src->Next(w.peak_ops);
  s.open = s.src->Next(static_cast<uint64_t>(w.rate * a.seconds));
  return s;
}

/// Loads `preload`, letting background compaction drain after every
/// memtable's worth of records, so the tree it leaves has the same shape on
/// every run rather than one that depends on how the writer and the
/// compaction thread happened to interleave.
Status PreloadDb(lsmssd::Db* db, const std::vector<Op>& preload) {
  const lsmssd::Options o = TreeOptions();
  const size_t memtable = o.level0_capacity_blocks * o.records_per_block();
  for (size_t i = 0; i < preload.size(); ++i) {
    const Op& op = preload[i];
    LSMSSD_RETURN_IF_ERROR(
        db->Put(op.key, EncodePayload(op.key, op.version, PayloadSize())));
    if ((i + 1) % memtable == 0) LSMSSD_RETURN_IF_ERROR(db->WaitForCompaction());
  }
  return db->WaitForCompaction();
}

Status OpenDb(const std::vector<Op>& preload, const std::string& dir,
              std::unique_ptr<lsmssd::Db>* db) {
  fs::remove_all(dir);
  fs::create_directories(fs::path(dir).parent_path());
  auto db_or = lsmssd::Db::Open(BenchDbOptions(), dir);
  if (!db_or.ok()) return db_or.status();
  *db = std::move(db_or).value();
  return PreloadDb(db->get(), preload);
}

struct Served {
  std::unique_ptr<lsmssd::Db> db;
  std::unique_ptr<net::Server> server;

  void TearDown(const std::string& dir) {
    server.reset();
    if (db) db->Close();
    db.reset();
    fs::remove_all(dir);
  }
};

/// From the empty directory to a preloaded, quiesced Db behind a server
/// that has answered one request.
Status SetUp(const std::vector<Op>& preload, const std::string& dir,
             Served* s) {
  LSMSSD_RETURN_IF_ERROR(OpenDb(preload, dir, &s->db));
  auto server_or = net::Server::Start(net::ServerOptions{}, s->db.get());
  if (!server_or.ok()) return server_or.status();
  s->server = std::move(server_or).value();
  net::ClientOptions copts;
  copts.port = s->server->port();
  auto client_or = net::Client::Connect(copts);
  if (!client_or.ok()) return client_or.status();
  return (*client_or)->Ping();
}

struct Integrity {
  bool ok = false;
  std::string problem;
  AuditResult audit;
  uint64_t live_blocks = 0;
  uint64_t leaves = 0;
  double space_amp = 0;
};

/// After drain: the whole database against the model, a full scrub, and
/// live device blocks against manifest leaves.
Integrity CheckDb(lsmssd::Db* db, const Model& model) {
  Integrity r;
  Status st = db->WaitForCompaction();
  if (st.ok()) st = db->Checkpoint();  // recycles deferred frees
  if (st.ok()) st = db->Scrub();
  if (!st.ok()) {
    r.problem = "drain/checkpoint/scrub: " + st.ToString();
    return r;
  }
  const lsmssd::DbStats stats = db->Stats();
  std::vector<std::pair<lsmssd::Key, std::string>> scan;
  st = db->Scan(0, MaxKey(), &scan);
  if (!st.ok()) {
    r.problem = "scan: " + st.ToString();
    return r;
  }
  r.audit = AuditScan(scan, model, PayloadSize());
  lsmssd::LsmTree& tree = *db->tree();
  r.live_blocks = tree.device()->live_blocks();
  for (size_t i = 1; i < tree.num_levels(); ++i) {
    r.leaves += tree.level(i).num_leaves();
  }
  r.space_amp = static_cast<double>(r.live_blocks) *
                static_cast<double>(TreeOptions().block_size) /
                (static_cast<double>(model.live_records()) * RecordBytes());
  if (r.audit.mismatches != 0) {
    r.problem = "audit: " + std::to_string(r.audit.mismatches) +
                " mismatches, first: " + r.audit.first_mismatch;
  } else if (stats.scrub_corruptions_found != 0 ||
             !stats.quarantined_blocks.empty()) {
    r.problem = "scrub found corruption";
  } else if (r.live_blocks != r.leaves) {
    r.problem = "leak: " + std::to_string(r.live_blocks) + " live blocks, " +
                std::to_string(r.leaves) + " manifest leaves";
  } else {
    r.ok = true;
  }
  return r;
}

// ---- Open-loop statistics ---------------------------------------------------

struct OpenStats {
  std::vector<double> read_us, write_us, late_us;  ///< Sorted by Collect.
  uint64_t reads = 0, writes = 0;
  /// Requests that could not leave on time because the previous one was
  /// still in the send path (served) or in its Db call (db replay).
  uint64_t send_blocked = 0;

  void Append(const OpenStats& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    reads += o.reads;
    writes += o.writes;
    send_blocked += o.send_blocked;
  }
  void Sort() {
    std::sort(read_us.begin(), read_us.end());
    std::sort(write_us.begin(), write_us.end());
    std::sort(late_us.begin(), late_us.end());
  }
};

constexpr int64_t kWindowNs = 1'000'000'000;
/// The served open loop reconnects every segment (see OpenOptions).
constexpr int64_t kSegmentNs = 2 * kWindowNs;

/// Latency from due time to reply (failed requests count as beyond any
/// limit) and lateness, for ops due in [from_ns, to_ns) of the phase and,
/// when `windows` is given, in a 1 s window it marks.
OpenStats Collect(const OpenResult& r, const std::vector<Lane>& lanes,
                  int64_t from_ns = 0,
                  int64_t to_ns = std::numeric_limits<int64_t>::max(),
                  const std::vector<bool>* windows = nullptr) {
  OpenStats s;
  for (size_t l = 0; l < lanes.size() && l < r.lanes.size(); ++l) {
    const LaneTimes& t = r.lanes[l];
    for (size_t i = 0; i < lanes[l].ops.size(); ++i) {
      const int64_t due = lanes[l].due_ns[i];
      if (due < from_ns || due >= to_ns) continue;
      if (windows != nullptr) {
        const size_t w = static_cast<size_t>(due / kWindowNs);
        if (w >= windows->size() || !(*windows)[w]) continue;
      }
      const double lat = t.failed[i] || t.done[i] == 0
                             ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(t.done[i] - t.due[i]) / 1e3;
      if (IsWrite(lanes[l].ops[i].type)) {
        s.write_us.push_back(lat);
        ++s.writes;
      } else {
        s.read_us.push_back(lat);
        ++s.reads;
      }
      if (t.sent[i] != 0) {
        s.late_us.push_back(
            static_cast<double>(LatenessNs(t.ready[i], t.sent[i])) / 1e3);
        if (t.ready[i] > t.due[i]) ++s.send_blocked;
      }
    }
  }
  s.Sort();
  return s;
}

/// Call durations (sent to done) of the given span names, sorted, in us.
std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    std::initializer_list<SpanName> names,
                                    bool from_sent) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      for (SpanName n : names) {
        if (s.name == n) {
          out.push_back(static_cast<double>(
                            s.end_ns - (from_sent ? s.sent_ns : s.start_ns)) /
                        1e3);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Writes(const std::vector<Op>& ops) {
  uint64_t n = 0;
  for (const Op& op : ops) n += IsWrite(op.type) ? 1 : 0;
  return n;
}

double PerMiB(double count, uint64_t requests) {
  return requests == 0 ? 0
                       : count / (static_cast<double>(requests) *
                                  RecordBytes() / kMiB);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PrintRecord(const WorkloadSpec& w, const Args& a, const Streams& s) {
  std::printf("record workload=%s seed=%llu seconds=%g offered_rate=%g "
              "preload=%zu peak_ops=%zu open_ops=%zu\n",
              w.name, static_cast<unsigned long long>(a.seed), a.seconds,
              w.rate, s.preload.size(), s.peak.size(), s.open.size());
  std::printf("record config: 1 KiB blocks, B=22, K0=25, gamma=10, eps=0.2, "
              "delta=0.07, cache_blocks=%zu, bloom=10 bits/key, background "
              "compaction 1 worker, WAL every 64, 1 shard, no scrub; "
              "closed loop %zu conns, open loop %zu pipelined conns\n",
              kCacheBlocks, kPeakLanes, kOpenLanes);
}

// ---- --trace 0 ----------------------------------------------------------------

int RunEndToEnd(const WorkloadSpec& w, const Args& a) {
  const Streams st = MakeStreams(w, a);
  PrintRecord(w, a, st);
  const std::string db_dir = a.dir + "/db";
  Report rep;
  Failures failures;

  // Set-up is timed several times. Its figure is the median over the quiet
  // set-ups (steal at most kMaxStealShare) once there are kMinSetups of them
  // and they took kMinSetupSeconds together, or over all of them when the
  // host stays noisy for kMaxSetupSeconds.
  std::vector<double> setups, quiet_setups;
  Served s;
  double setup_total = 0;
  for (int k = 0; k < kMaxSetups; ++k) {
    const bool enough = quiet_setups.size() >= kMinSetups &&
                        setup_total >= kMinSetupSeconds;
    const bool given_up = setups.size() >= kMinSetups &&
                          setup_total >= kMaxSetupSeconds;
    if (enough || given_up) break;
    if (k > 0) s.TearDown(db_dir);
    const uint64_t steal0 = StealTicks();
    const int64_t t0 = NowNs();
    if (Status e = SetUp(st.preload, db_dir, &s); !e.ok()) {
      std::printf("setup failed: %s\n", e.ToString().c_str());
      return 1;
    }
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    setups.push_back(secs);
    setup_total += secs;
    if (Quiet(StealTicks() - steal0, secs)) quiet_setups.push_back(secs);
  }
  const bool setups_quiet = quiet_setups.size() >= kMinSetups;
  const double setup_s = Median(setups_quiet ? quiet_setups : setups);
  Model model;
  ApplyAll(st.preload, &model);

  // The peak phase runs in kPeakRounds rounds, each on fresh connections
  // and client threads: the rate of one round depends on where its threads
  // happen to run. Its figure is the median over the quiet rounds when at
  // least kMinQuietRounds are quiet, else over all.
  std::vector<double> round_rates, quiet_rates;
  ClosedResult peak;
  uint64_t attempted = 0;
  const size_t per_round = st.peak.size() / kPeakRounds;
  for (size_t k = 0; k < kPeakRounds; ++k) {
    const std::vector<Op> ops(
        st.peak.begin() + k * per_round,
        k + 1 == kPeakRounds ? st.peak.end()
                             : st.peak.begin() + (k + 1) * per_round);
    const uint64_t steal0 = StealTicks();
    const ClosedResult round = RunClosedServed(
        s.server->port(), SplitLanes(ops, kPeakLanes, 0), model, PayloadSize());
    const double rate = static_cast<double>(round.ops) / round.seconds;
    round_rates.push_back(rate);
    if (Quiet(StealTicks() - steal0, round.seconds)) quiet_rates.push_back(rate);
    failures.Merge(round.failures);
    ApplyAll(ops, &model);
    attempted += ops.size();
    peak.ops += round.ops;
    peak.client.retries += round.client.retries;
  }
  const bool peak_quiet = quiet_rates.size() >= kMinQuietRounds;
  const double peak_rate = Median(peak_quiet ? quiet_rates : round_rates);

  // The open-loop phase, in 1 s windows. Latency statistics pool the quiet
  // windows (steal at most kMaxStealShare of the CPUs) of successive
  // attempts until there are kMinQuietWindows of them; each further attempt
  // runs on the next part of the stream, up to kMaxOpenAttempts. An attempt
  // in whose quiet windows the generator fell behind its schedule is
  // discarded, not used as data. The paper's metric, the steady-state guard
  // and device_blocks_per_mb use the last attempt.
  const size_t n_windows =
      static_cast<size_t>(std::ceil(a.seconds * 1e9 / kWindowNs));
  const int64_t half_ns = static_cast<int64_t>(n_windows / 2) * kWindowNs;
  std::vector<Op> open_ops = st.open;
  std::vector<Lane> open_lanes;
  OpenResult open;
  OpenStats os;  // pooled over the quiet windows
  std::vector<bool> quiet;
  lsmssd::DbStats d0, dmid, d1;
  size_t levels = 0, pooled_windows = 0;
  int late_attempts = 0;
  bool valid = true;
  for (int attempt = 1;; ++attempt) {
    if (Status e = s.db->WaitForCompaction(); !e.ok()) {
      failures.Note(e.ToString());
    }
    levels = s.db->tree()->num_levels() - 1;
    d0 = s.db->Stats();
    quiet.assign(n_windows, false);
    OpenOptions oo;
    oo.payload_size = PayloadSize();
    oo.segment_ns = kSegmentNs;
    size_t window = 0;
    oo.during = [&](int64_t start) {
      uint64_t steal = StealTicks();
      for (size_t k = 0; k < kSegmentNs / kWindowNs && window < n_windows;
           ++k, ++window) {
        SleepUntil(start + static_cast<int64_t>(window + 1) * kWindowNs, 0);
        const uint64_t now = StealTicks();
        quiet[window] = Quiet(now - steal, kWindowNs / 1e9);
        steal = now;
        if (static_cast<int64_t>(window + 1) * kWindowNs == half_ns) {
          dmid = s.db->Stats();
        }
      }
    };
    open_lanes = SplitLanes(open_ops, kOpenLanes, w.rate);
    open = RunOpenServed(s.server->port(), open_lanes, model, oo);
    d1 = s.db->Stats();
    failures.Merge(open.failures);
    attempted += open_ops.size();
    ApplyAll(open_ops, &model);
    const size_t n_quiet = std::count(quiet.begin(), quiet.end(), true);
    const OpenStats q = Collect(open, open_lanes, 0,
                                std::numeric_limits<int64_t>::max(), &quiet);
    const Percentile late99 = TailPercentile(q.late_us, 99);
    const bool late =
        n_quiet > 0 && (!late99.valid || late99.value > kMaxLateP99Us);
    std::printf("attempt %d: %zu of %zu windows quiet; generator lateness "
                "p99 %.1f us in them%s\n", attempt, n_quiet, n_windows,
                late99.value, late ? ": discarded" : "");
    if (late) {
      ++late_attempts;
    } else {
      os.Append(q);
      pooled_windows += n_quiet;
    }
    if (pooled_windows >= kMinQuietWindows) break;
    if (attempt == kMaxOpenAttempts) {
      if (pooled_windows == 0 && late_attempts > 0) {
        std::printf("INVALID: the generator fell behind its schedule\n");
        valid = false;
      } else if (pooled_windows == 0) {
        std::printf("warning: no quiet window in %d attempts; statistics "
                    "use all windows of the last\n", attempt);
        os = Collect(open, open_lanes);
      } else {
        std::printf("warning: only %zu quiet windows\n", pooled_windows);
      }
      break;
    }
    open_ops = st.src->Next(open_ops.size());
  }
  os.Sort();
  const Integrity integ = CheckDb(s.db.get(), model);
  if (!integ.ok) failures.Note(integ.problem);
  s.TearDown(db_dir);
  const Percentile late50 = TailPercentile(os.late_us, 50);
  const Percentile late99 = TailPercentile(os.late_us, 99);

  // The paper's metric over the whole phase and each half (ops due before
  // and after the midpoint snapshot).
  uint64_t writes_h1 = 0, writes_h2 = 0;
  for (const Lane& lane : open_lanes) {
    for (size_t i = 0; i < lane.ops.size(); ++i) {
      if (!IsWrite(lane.ops[i].type)) continue;
      (lane.due_ns[i] < half_ns ? writes_h1 : writes_h2) += 1;
    }
  }
  const auto bw = [](const lsmssd::DbStats& x) {
    return static_cast<double>(x.io.block_writes());
  };
  const uint64_t writes = Writes(open_ops);
  const double bpm = PerMiB(bw(d1) - bw(d0), writes);
  const double bpm_h1 = PerMiB(bw(dmid) - bw(d0), writes_h1);
  const double bpm_h2 = PerMiB(bw(d1) - bw(dmid), writes_h2);
  const double device_blocks =
      bw(d1) - bw(d0) +
      static_cast<double>(d1.io.block_reads() - d0.io.block_reads());
  if (!w.reads_primary) {
    const double spread = std::abs(bpm_h1 - bpm_h2) / ((bpm_h1 + bpm_h2) / 2);
    std::printf("steady-state guard: %zu on-SSD levels at phase start (need "
                "%zu); blocks_written_per_mb halves %.2f / %.2f, spread %.3f "
                "(bound %.2f)\n",
                levels, kMinSsdLevels, bpm_h1, bpm_h2, spread,
                kSteadyHalvesBound);
    if (levels < kMinSsdLevels || !(spread <= kSteadyHalvesBound)) {
      std::printf("INVALID: write-steady is not in steady state\n");
      valid = false;
    }
  }

  std::printf("integrity: audit %llu keys, %llu mismatches; live blocks %llu, "
              "manifest leaves %llu; %s\n",
              static_cast<unsigned long long>(integ.audit.keys_checked),
              static_cast<unsigned long long>(integ.audit.mismatches),
              static_cast<unsigned long long>(integ.live_blocks),
              static_cast<unsigned long long>(integ.leaves),
              integ.ok ? "clean" : integ.problem.c_str());
  if (failures.count != 0) {
    std::printf("FAILED: %llu failures, first: %s\n",
                static_cast<unsigned long long>(failures.count),
                failures.first.c_str());
  }

  // Every end-to-end number of the issue, by name; the JSON carries the
  // subset every workload defines (see run.py).
  const std::vector<double>& primary = w.reads_primary ? os.read_us : os.write_us;
  std::printf("--- %s end to end (offered %.0f ops/s, %llu GETs, %llu writes)\n",
              w.name, w.rate, static_cast<unsigned long long>(os.reads),
              static_cast<unsigned long long>(os.writes));
  rep.Add("setup_s", setup_s, "s",
          "median of " +
              std::to_string(setups_quiet ? quiet_setups.size() : setups.size()) +
              (setups_quiet ? " quiet" : "") + " of " +
              std::to_string(setups.size()) + " set-ups");
  char peak_note[96];
  std::snprintf(peak_note, sizeof(peak_note),
                "median of %zu%s of %zu rounds, %llu closed-loop ops",
                peak_quiet ? quiet_rates.size() : round_rates.size(),
                peak_quiet ? " quiet" : "", round_rates.size(),
                static_cast<unsigned long long>(peak.ops));
  rep.Add("peak_ops_per_s", peak_rate, "ops/s", peak_note);
  rep.AddTail("p50_us", TailPercentile(primary, 50));
  rep.AddTail("p75_us", TailPercentile(primary, 75));
  rep.Add("device_blocks_per_mb", PerMiB(device_blocks, open_ops.size()),
          "blocks/MiB", "device block reads + writes per MiB of requests");
  rep.Add("space_amp", integ.space_amp, "ratio");
  Report extra;  // printed, not in the JSON
  extra.AddTail("p90_us", TailPercentile(primary, 90));
  if (os.reads > 0) {
    extra.AddTail("read_p50_us", TailPercentile(os.read_us, 50));
    extra.AddTail("read_p99_us", TailPercentile(os.read_us, 99));
  }
  if (os.writes > 0) {
    extra.AddTail("write_p50_us", TailPercentile(os.write_us, 50));
    extra.AddTail("write_p99_us", TailPercentile(os.write_us, 99));
    extra.Add("blocks_written_per_mb", bpm, "blocks/MiB");
    extra.Add("blocks_written_per_mb.first_half", bpm_h1, "blocks/MiB");
    extra.Add("blocks_written_per_mb.second_half", bpm_h2, "blocks/MiB");
  }
  extra.Add("failed_frac",
            static_cast<double>(failures.count) / static_cast<double>(attempted),
            "ratio");
  extra.AddTail("loadgen.late_p50_us", late50);
  extra.AddTail("loadgen.late_p99_us", late99);
  extra.Add("loadgen.send_blocked", static_cast<double>(os.send_blocked),
            "count", "left late behind a previous send; timed from due");
  extra.Add("lsm.levels_at_start", static_cast<double>(levels), "levels");

  const bool correct = failures.count == 0 && valid;
  std::printf("RESULT %s\n",
              rep.Json(correct, attempted,
                       std::min<uint64_t>(failures.count, attempted))
                  .c_str());
  return 0;
}

// ---- --trace 1 ----------------------------------------------------------------

struct LsmReplay {
  std::vector<double> get_us;    ///< Sorted lsm.get span durations.
  double put_us_mean = 0;        ///< lsm.put + lsm.delete spans.
  double self_us_per_op = 0;
  CallTally reads, writes, flushes, selects;
  uint64_t ops = 0;
  Failures failures;
  SpanLog log;
};

/// The stream, single-threaded, against a bare LsmTree over a timing
/// device (wrapping a FileBlockDevice) and a timing merge policy.
LsmReplay RunLsmReplay(const Streams& st, const std::string& dir) {
  LsmReplay r;
  fs::remove_all(dir);
  fs::create_directories(dir);
  lsmssd::FileBlockDevice::FileOptions fo;
  fo.block_size = TreeOptions().block_size;
  auto file_or = lsmssd::FileBlockDevice::Open(dir + "/blocks.dev", fo);
  if (!file_or.ok()) {
    r.failures.Note("device: " + file_or.status().ToString());
    return r;
  }
  TimingBlockDevice dev(file_or->get());
  auto policy = std::make_unique<TimingMergePolicy>(
      lsmssd::CreatePolicy(BenchDbOptions().policy));
  TimingMergePolicy* pol = policy.get();
  auto tree_or = lsmssd::LsmTree::Open(TreeOptions(), &dev, std::move(policy));
  if (!tree_or.ok()) {
    r.failures.Note("tree: " + tree_or.status().ToString());
    return r;
  }
  lsmssd::LsmTree& tree = **tree_or;
  const size_t ps = PayloadSize();
  Model model;
  auto run = [&](const std::vector<Op>& ops, bool traced) {
    const std::vector<Lane> lanes = SplitLanes(ops, 1, 0);
    const Lane& lane = lanes[0];
    for (size_t i = 0; i < lane.ops.size(); ++i) {
      const Op& op = lane.ops[i];
      const SpanName name = op.type == OpType::kGet
                                ? kLsmGet
                                : (op.type == OpType::kPut ? kLsmPut : kLsmDelete);
      const uint32_t span = traced ? r.log.Begin(name, op.version) : 0;
      Status s;
      std::string value;
      if (op.type == OpType::kGet) {
        auto v = tree.Get(op.key);
        s = v.status();
        if (v.ok()) value = std::move(v).value();
      } else if (op.type == OpType::kPut) {
        s = tree.Put(op.key, EncodePayload(op.key, op.version, ps));
      } else {
        s = tree.Delete(op.key);
      }
      if (traced) r.log.End(span);
      if (!CheckReply(lane, model, i, i, KindOf(s), value, ps)) {
        r.failures.Note("lsm replay " + std::to_string(op.key) + ": " +
                        s.ToString());
      }
    }
    ApplyAll(ops, &model);
  };
  run(st.preload, false);
  run(st.peak, false);
  const CallTally reads0 = dev.reads(), writes0 = dev.writes(),
                  flushes0 = dev.flushes(), selects0 = pol->selects();
  dev.set_span_log(&r.log);
  pol->set_span_log(&r.log);
  run(st.open, true);
  dev.set_span_log(nullptr);
  pol->set_span_log(nullptr);
  const auto delta = [](const CallTally& b, const CallTally& a) {
    return CallTally{b.calls - a.calls, b.blocks - a.blocks, b.ns - a.ns};
  };
  r.reads = delta(dev.reads(), reads0);
  r.writes = delta(dev.writes(), writes0);
  r.flushes = delta(dev.flushes(), flushes0);
  r.selects = delta(pol->selects(), selects0);
  r.ops = st.open.size();

  const std::vector<int64_t> self = r.log.SelfNs();
  double put_ns = 0, lsm_self_ns = 0;
  uint64_t puts = 0;
  for (size_t i = 0; i < r.log.spans().size(); ++i) {
    const Span& sp = r.log.spans()[i];
    const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
    if (sp.name == kLsmGet) r.get_us.push_back(dur / 1e3);
    if (sp.name == kLsmPut || sp.name == kLsmDelete) {
      put_ns += dur;
      ++puts;
    }
    if (sp.name == kLsmGet || sp.name == kLsmPut || sp.name == kLsmDelete) {
      lsm_self_ns += static_cast<double>(self[i]);
    }
  }
  std::sort(r.get_us.begin(), r.get_us.end());
  r.put_us_mean = puts == 0 ? 0 : put_ns / static_cast<double>(puts) / 1e3;
  r.self_us_per_op = Ratio(lsm_self_ns / 1e3, static_cast<double>(r.ops));

  std::vector<std::pair<lsmssd::Key, std::string>> scan;
  if (Status s = tree.Scan(0, MaxKey(), &scan); !s.ok()) {
    r.failures.Note("lsm replay scan: " + s.ToString());
  } else if (AuditResult au = AuditScan(scan, model, ps); au.mismatches != 0) {
    r.failures.Note("lsm replay audit: " + au.first_mismatch);
  }
  return r;
}

double P50(const std::vector<double>& sorted) {
  const Percentile p = TailPercentile(sorted, 50);
  return p.valid ? p.value : 0;
}

int RunTraced(const WorkloadSpec& w, const Args& a) {
  const Streams st = MakeStreams(w, a);
  PrintRecord(w, a, st);
  const std::string db_dir = a.dir + "/db";
  Failures failures;

  // Served: the same phases as --trace 0, with counters snapshotted at the
  // phase boundaries and the second half of the open loop kept as spans.
  Served s;
  if (Status e = SetUp(st.preload, db_dir, &s); !e.ok()) {
    std::printf("setup failed: %s\n", e.ToString().c_str());
    return 1;
  }
  Model model;
  ApplyAll(st.preload, &model);
  const Model preload_model = model;
  const std::vector<Lane> peak_lanes = SplitLanes(st.peak, kPeakLanes, 0);
  const ClosedResult peak =
      RunClosedServed(s.server->port(), peak_lanes, model, PayloadSize());
  failures.Merge(peak.failures);
  ApplyAll(st.peak, &model);
  const Model pre_open_model = model;
  if (Status e = s.db->WaitForCompaction(); !e.ok()) failures.Note(e.ToString());
  lsmssd::LsmTree& tree = *s.db->tree();
  const size_t levels = tree.num_levels() - 1;
  const lsmssd::LsmStats t0 = tree.stats();
  const lsmssd::DbStats d0 = s.db->Stats();
  const net::ServerCounters c0 = s.server->counters();
  const int64_t half_ns = static_cast<int64_t>(a.seconds * 5e8);
  OpenOptions oo;
  oo.payload_size = PayloadSize();
  oo.segment_ns = kSegmentNs;
  oo.trace_from_ns = half_ns;
  const std::vector<Lane> open_lanes = SplitLanes(st.open, kOpenLanes, w.rate);
  const int64_t open_t0 = NowNs();
  const OpenResult open = RunOpenServed(s.server->port(), open_lanes, model, oo);
  const double open_s = static_cast<double>(NowNs() - open_t0) / 1e9;
  const lsmssd::DbStats d1 = s.db->Stats();
  const net::ServerCounters c1 = s.server->counters();
  failures.Merge(open.failures);
  ApplyAll(st.open, &model);
  if (Status e = s.db->WaitForCompaction(); !e.ok()) failures.Note(e.ToString());
  const lsmssd::LsmStats t1 = tree.stats();
  const Integrity integ = CheckDb(s.db.get(), model);
  if (!integ.ok) failures.Note(integ.problem);
  s.TearDown(db_dir);

  // db replay: same streams, rate and lane count, in-process.
  std::unique_ptr<lsmssd::Db> db;
  OpenResult db_open;
  if (Status e = OpenDb(st.preload, db_dir, &db); !e.ok()) {
    failures.Note("db replay: " + e.ToString());
  } else {
    failures.Merge(RunClosedDb(db.get(), peak_lanes, preload_model,
                               PayloadSize()).failures);
    if (Status e2 = db->WaitForCompaction(); !e2.ok()) failures.Note(e2.ToString());
    OpenOptions dbo;
    dbo.payload_size = PayloadSize();
    dbo.trace_from_ns = 0;
    db_open = RunOpenDb(db.get(), open_lanes, pre_open_model, dbo);
    failures.Merge(db_open.failures);
    const Integrity di = CheckDb(db.get(), model);
    if (!di.ok) failures.Note("db replay " + di.problem);
    db->Close();
    db.reset();
    fs::remove_all(db_dir);
  }

  // lsm replay: same stream, single-threaded, bare tree.
  LsmReplay lsm = RunLsmReplay(st, a.dir + "/lsm");
  fs::remove_all(a.dir + "/lsm");
  failures.Merge(lsm.failures);

  // Spans of all three parts, written once at the end.
  std::vector<const std::vector<Span>*> logs;
  for (const SpanLog& l : open.spans) logs.push_back(&l.spans());
  for (const SpanLog& l : db_open.spans) logs.push_back(&l.spans());
  logs.push_back(&lsm.log.spans());
  const std::string span_path = a.dir + "/spans-" + w.name + ".csv";
  if (!WriteSpansCsv(span_path, logs, open.start_ns)) {
    failures.Note("cannot write " + span_path);
  }

  // ---- per-layer metrics
  const OpenStats os = Collect(open, open_lanes);
  const OpenStats untraced = Collect(open, open_lanes, 0, half_ns);
  const OpenStats traced = Collect(open, open_lanes, half_ns);
  const OpenStats dbs = Collect(db_open, open_lanes);
  const std::vector<double> db_get =
      SpanDurationsUs(db_open.spans, {kDbGet}, true);
  const std::vector<double> db_put =
      SpanDurationsUs(db_open.spans, {kDbPut, kDbDelete}, true);
  const uint64_t gets = os.reads, writes = os.writes;
  const auto u = [](uint64_t a1, uint64_t a0) {
    return static_cast<double>(a1 - a0);
  };
  const auto sum_levels = [](const std::vector<uint64_t>& v1,
                             const std::vector<uint64_t>& v0) {
    double d = 0;
    for (size_t i = 0; i < v1.size(); ++i) {
      d += static_cast<double>(v1[i] - (i < v0.size() ? v0[i] : 0));
    }
    return d;
  };
  const auto level_blocks = [&](size_t i) {
    const double b1 = static_cast<double>(t1.BlocksWrittenForLevel(i));
    const double b0 =
        i < t0.blocks_written_into.size()
            ? static_cast<double>(t0.BlocksWrittenForLevel(i)) : 0;
    return PerMiB(b1 - b0, writes);
  };
  const double preserved =
      sum_levels(t1.blocks_preserved_into, t0.blocks_preserved_into);
  const double tree_written =
      static_cast<double>(t1.TotalBlocksWritten() - t0.TotalBlocksWritten());

  std::printf("--- %s per layer (traced run; %llu GETs, %llu writes)\n",
              w.name, static_cast<unsigned long long>(gets),
              static_cast<unsigned long long>(writes));
  Report rep;
  rep.AddTail("loadgen.late_p50_us", TailPercentile(os.late_us, 50));
  rep.AddTail("loadgen.late_p99_us", TailPercentile(os.late_us, 99));
  rep.Add("loadgen.trace_overhead_read_p50_us",
          P50(traced.read_us) - P50(untraced.read_us), "us",
          "traced minus untraced half");
  rep.Add("loadgen.trace_overhead_write_p50_us",
          P50(traced.write_us) - P50(untraced.write_us), "us",
          "traced minus untraced half");
  rep.Add("net.read_self_p50_us", gets ? P50(os.read_us) - P50(dbs.read_us) : 0,
          "us", "served minus in-process, both from due time");
  rep.Add("net.write_self_p50_us",
          writes ? P50(os.write_us) - P50(dbs.write_us) : 0, "us");
  rep.Add("net.frames_shed", u(c1.frames_shed_overload, c0.frames_shed_overload),
          "count");
  rep.Add("net.client_retries", static_cast<double>(peak.client.retries),
          "count", "closed-loop clients; the open loop never retries");
  rep.Add("db.get_p50_us", P50(db_get), "us");
  rep.AddTail("db.get_p99_us", TailPercentile(db_get, 99));
  rep.Add("db.put_p50_us", P50(db_put), "us");
  rep.AddTail("db.put_p99_us", TailPercentile(db_put, 99));
  rep.Add("db.writes_per_wal_sync",
          Ratio(u(d1.wal_entries_appended, d0.wal_entries_appended),
                u(d1.wal_syncs, d0.wal_syncs)), "ratio");
  rep.Add("db.wal_bytes_per_write",
          Ratio(u(d1.wal_bytes_appended, d0.wal_bytes_appended),
                u(d1.wal_entries_appended, d0.wal_entries_appended)), "bytes");
  rep.Add("db.checkpoints", u(d1.checkpoints, d0.checkpoints), "count");
  rep.Add("db.stall_events", u(d1.stall_events, d0.stall_events), "count");
  rep.Add("db.stall_ms", u(d1.stall_micros, d0.stall_micros) / 1e3, "ms");
  rep.Add("db.throttle_events", u(d1.throttle_events, d0.throttle_events),
          "count");
  rep.Add("db.throttle_ms", u(d1.throttle_micros, d0.throttle_micros) / 1e3,
          "ms");
  rep.Add("db.compaction_busy_frac",
          u(d1.compaction_micros, d0.compaction_micros) / (open_s * 1e6),
          "ratio");
  rep.Add("db.memtables_sealed", u(d1.memtables_sealed, d0.memtables_sealed),
          "count");
  rep.Add("db.bg_merges", u(d1.background_merges, d0.background_merges),
          "count");
  rep.Add("lsm.get_p50_us", P50(lsm.get_us), "us", "bare tree");
  rep.Add("lsm.put_us_mean", lsm.put_us_mean, "us", "bare tree, inline merges");
  rep.Add("lsm.self_us_per_op", lsm.self_us_per_op, "us",
          "bare tree, minus storage and policy spans");
  rep.Add("lsm.levels", static_cast<double>(levels), "levels",
          "on-SSD, at open-loop start");
  rep.Add("lsm.merges", sum_levels(t1.merges_into, t0.merges_into), "count");
  rep.Add("lsm.full_merges",
          sum_levels(t1.full_merges_into, t0.full_merges_into), "count");
  rep.Add("lsm.blocks_preserved_frac",
          Ratio(preserved, preserved + tree_written), "ratio");
  rep.Add("lsm.blocks_written_per_mb", PerMiB(tree_written, writes),
          "blocks/MiB", "tree-counted, the paper's metric");
  rep.Add("lsm.l1_blocks_per_mb", level_blocks(1), "blocks/MiB");
  rep.Add("lsm.l2_blocks_per_mb", level_blocks(2), "blocks/MiB");
  rep.Add("lsm.l3_blocks_per_mb", level_blocks(3), "blocks/MiB");
  rep.Add("policy.select_calls", static_cast<double>(lsm.selects.calls),
          "count", "bare tree");
  rep.Add("policy.select_us_total", static_cast<double>(lsm.selects.ns) / 1e3,
          "us");
  rep.Add("storage.block_reads_per_get",
          Ratio(u(d1.io.block_reads(), d0.io.block_reads()),
                static_cast<double>(gets)), "ratio");
  const double hits = u(d1.io.cache_hits(), d0.io.cache_hits());
  const double misses = u(d1.io.cache_misses(), d0.io.cache_misses());
  rep.Add("storage.cache_hit_frac", Ratio(hits, hits + misses), "ratio");
  rep.Add("storage.bloom_skips_per_get",
          Ratio(u(d1.io.bloom_skips(), d0.io.bloom_skips()),
                static_cast<double>(gets)), "ratio");
  rep.Add("storage.blocks_per_write_syscall",
          Ratio(u(d1.io.block_writes(), d0.io.block_writes()),
                u(d1.io.write_syscalls(), d0.io.write_syscalls())), "ratio");
  rep.Add("storage.write_us_per_block",
          Ratio(static_cast<double>(lsm.writes.ns) / 1e3,
                static_cast<double>(lsm.writes.blocks)), "us", "bare tree");
  rep.Add("storage.read_us_per_block",
          Ratio(static_cast<double>(lsm.reads.ns) / 1e3,
                static_cast<double>(lsm.reads.blocks)), "us", "bare tree");
  rep.Add("storage.flushes", static_cast<double>(lsm.flushes.calls), "count",
          "bare tree");
  rep.Add("storage.flush_us_total", static_cast<double>(lsm.flushes.ns) / 1e3,
          "us");
  rep.Add("storage.live_blocks", static_cast<double>(integ.live_blocks),
          "blocks", "served Db after checkpoint");
  std::printf("spans: %s\n", span_path.c_str());
  if (failures.count != 0) {
    std::printf("FAILED: %llu failures, first: %s\n",
                static_cast<unsigned long long>(failures.count),
                failures.first.c_str());
  }
  const uint64_t attempted = st.peak.size() + st.open.size();
  std::printf("RESULT %s\n",
              rep.Json(failures.count == 0, attempted,
                       std::min<uint64_t>(failures.count, attempted))
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR\n");
    return 2;
  }
  const perfbench::WorkloadSpec* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return args.trace ? perfbench::RunTraced(*w, args)
                    : perfbench::RunEndToEnd(*w, args);
}
