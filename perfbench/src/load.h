// Load generators: the closed-loop peak phase and the open-loop phase, over
// the wire against a net::Server, or in-process against a Db for the db
// replay. Every reply is checked against the model as it arrives.
#ifndef PERFBENCH_SRC_LOAD_H_
#define PERFBENCH_SRC_LOAD_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "model.h"
#include "src/db/db.h"
#include "src/net/client.h"
#include "timing.h"

namespace perfbench {

/// Failed, refused, wrong-value and never-answered requests of a phase.
struct Failures {
  uint64_t count = 0;
  std::string first;
  void Note(const std::string& what) {
    if (count++ == 0) first = what;
  }
  void Merge(const Failures& other) {
    if (count == 0) first = other.first;
    count += other.count;
  }
};

/// How a call or request ended, for CheckReply.
ReplyKind KindOf(const lsmssd::Status& st);

struct ClosedResult {
  uint64_t ops = 0;
  double seconds = 0;
  Failures failures;
  lsmssd::net::ClientStats client;  ///< Summed over connections.
};

/// Closed loop over the wire: one connection and thread per lane, one
/// request outstanding on each.
ClosedResult RunClosedServed(uint16_t port, const std::vector<Lane>& lanes,
                             const Model& base, size_t payload_size);

/// The same against an in-process Db: one thread per lane.
ClosedResult RunClosedDb(lsmssd::Db* db, const std::vector<Lane>& lanes,
                         const Model& base, size_t payload_size);

/// Per-op times of one lane of an open-loop phase, absolute steady-clock ns.
struct LaneTimes {
  std::vector<int64_t> due;
  std::vector<int64_t> sent;  ///< Request left (served) or call began (db).
  /// When the sender was free to send: the later of the due time and the
  /// return of its previous send or call. sent - ready is the generator's
  /// own lateness; ready - due is time the previous request spent in the
  /// kernel's send path or the Db, which the latency from due time counts.
  std::vector<int64_t> ready;
  std::vector<int64_t> done;  ///< Reply received or call returned; 0 = never.
  std::vector<uint8_t> failed;  ///< Failed, refused, wrong or unanswered.
};

struct OpenResult {
  int64_t start_ns = 0;  ///< Due offsets of the first segment count from here.
  std::vector<LaneTimes> lanes;
  Failures failures;
  /// Spans of the traced part of the phase (ops due at or after
  /// OpenOptions::trace_from_ns), one log per lane.
  std::vector<SpanLog> spans;
};

struct OpenOptions {
  size_t payload_size = 0;
  /// Ops due this long after the phase start or later are also kept as
  /// spans; the default keeps none.
  int64_t trace_from_ns = std::numeric_limits<int64_t>::max();
  /// The served open loop runs in segments this long, each on fresh
  /// connections and threads.
  int64_t segment_ns = std::numeric_limits<int64_t>::max();
  /// Runs on the calling thread once the lanes of a segment have started,
  /// with the time op due offsets count from (e.g. to sample counters).
  std::function<void(int64_t start_ns)> during;
};

/// Open loop over the wire: per lane one pipelined connection, a sender
/// that sends each request at its due time and a receiver that checks the
/// replies in order.
OpenResult RunOpenServed(uint16_t port, const std::vector<Lane>& lanes,
                         const Model& base, const OpenOptions& opts);

/// The same schedule against an in-process Db: one thread per lane calls
/// Db::Get/Put/Delete at each due time.
OpenResult RunOpenDb(lsmssd::Db* db, const std::vector<Lane>& lanes,
                     const Model& base, const OpenOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOAD_H_
