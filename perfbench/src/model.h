// The generator's side of the correctness checks: self-describing payloads,
// the request stream split into per-connection lanes, the expected state of
// every key, and the checks of single replies and of a whole database.
#ifndef PERFBENCH_SRC_MODEL_H_
#define PERFBENCH_SRC_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/format/key_codec.h"

namespace perfbench {

using lsmssd::Key;

enum class OpType : uint8_t { kGet, kPut, kDelete };

struct Op {
  Key key = 0;
  /// Unique and increasing over the run, so it also names the request in
  /// spans; for a write, the version its value carries.
  uint64_t version = 0;
  OpType type = OpType::kGet;
};

inline bool IsWrite(OpType t) { return t != OpType::kGet; }

/// A value that names its key and write version: both in the first 16
/// bytes, the rest a filler derived from them, so a stale, misplaced or
/// torn value never passes for the expected one.
std::string EncodePayload(Key key, uint64_t version, size_t payload_size);

/// True when `payload` is a well-formed value for `key`; sets *version.
bool DecodePayload(std::string_view payload, Key key, size_t payload_size,
                   uint64_t* version);

/// The lane (connection or thread) that owns `key`. Every write of a key
/// comes from one lane, so "the newest acknowledged write" of a key is
/// well-defined from that lane's replies alone.
size_t LaneOf(Key key, size_t lanes);

struct KeyState {
  uint64_t version = 0;
  bool live = false;
};

/// The last write applied to each key.
class Model {
 public:
  void Apply(const Op& op);
  KeyState Get(Key key) const;
  uint64_t live_records() const { return live_; }

 private:
  std::unordered_map<Key, KeyState> states_;
  uint64_t live_ = 0;
};

inline constexpr uint32_t kNoWrite = UINT32_MAX;

/// One lane's share of a phase: its ops in stream order, when each is due
/// (open loop) and, per op, the lane position of the previous write of the
/// same key (kNoWrite if none in this phase).
struct Lane {
  std::vector<Op> ops;
  std::vector<int64_t> due_ns;
  std::vector<uint32_t> prev_write;
};

/// Splits one phase of the stream into `lanes` lanes by LaneOf. With
/// `rate_per_s` > 0 the phase is offered open-loop at that rate and op i of
/// the stream is due at DueOffsetNs(i, rate).
std::vector<Lane> SplitLanes(const std::vector<Op>& ops, size_t lanes,
                             double rate_per_s);

enum class ReplyKind { kValue, kNotFound, kError };

/// Checks the reply to `lane.ops[i]`. `acked_before_send` counts this
/// lane's replies received before op i was sent (i in a closed loop). A
/// write must succeed. A GET must return the value of a write of its key
/// that is no older than the newest one acknowledged when it was sent and
/// no newer than the last one sent before it; `base` holds each key's state
/// from before the phase.
bool CheckReply(const Lane& lane, const Model& base, size_t i,
                size_t acked_before_send, ReplyKind kind,
                std::string_view value, size_t payload_size);

/// Applies every write of a phase, in stream order, to `model`.
void ApplyAll(const std::vector<Op>& ops, Model* model);

struct AuditResult {
  uint64_t keys_checked = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Compares a full scan of the database with the model: every live key
/// must be present with its last written value, and nothing else.
AuditResult AuditScan(const std::vector<std::pair<Key, std::string>>& scan,
                      const Model& model, size_t payload_size);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MODEL_H_
