#include "model.h"

#include <cstring>

#include "util.h"

namespace perfbench {
namespace {

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void PutU64(char* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }

uint64_t GetU64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

void FillTail(std::string* payload, Key key, uint64_t version) {
  uint64_t x = Mix64(key * 31 + version);
  for (size_t i = 16; i < payload->size(); ++i) {
    if ((i & 7) == 0) x = Mix64(x);
    (*payload)[i] = static_cast<char>(x >> ((i & 7) * 8));
  }
}

bool Matches(const KeyState& want, ReplyKind kind, std::string_view value,
             Key key, size_t payload_size) {
  if (!want.live) return kind == ReplyKind::kNotFound;
  uint64_t version = 0;
  return kind == ReplyKind::kValue &&
         DecodePayload(value, key, payload_size, &version) &&
         version == want.version;
}

KeyState StateAfter(const Op& op) {
  return KeyState{op.version, op.type == OpType::kPut};
}

}  // namespace

std::string EncodePayload(Key key, uint64_t version, size_t payload_size) {
  std::string payload(payload_size, '\0');
  PutU64(payload.data(), key);
  PutU64(payload.data() + 8, version);
  FillTail(&payload, key, version);
  return payload;
}

bool DecodePayload(std::string_view payload, Key key, size_t payload_size,
                   uint64_t* version) {
  if (payload.size() != payload_size || payload_size < 16) return false;
  if (GetU64(payload.data()) != key) return false;
  const uint64_t v = GetU64(payload.data() + 8);
  if (payload != EncodePayload(key, v, payload_size)) return false;
  *version = v;
  return true;
}

size_t LaneOf(Key key, size_t lanes) { return Mix64(key) % lanes; }

void Model::Apply(const Op& op) {
  if (!IsWrite(op.type)) return;
  KeyState& s = states_[op.key];
  const bool live = op.type == OpType::kPut;
  if (live && !s.live) ++live_;
  if (!live && s.live) --live_;
  s = KeyState{op.version, live};
}

KeyState Model::Get(Key key) const {
  auto it = states_.find(key);
  return it == states_.end() ? KeyState{} : it->second;
}

std::vector<Lane> SplitLanes(const std::vector<Op>& ops, size_t lanes,
                             double rate_per_s) {
  std::vector<Lane> out(lanes);
  std::vector<std::unordered_map<Key, uint32_t>> last_write(lanes);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const size_t l = LaneOf(op.key, lanes);
    Lane& lane = out[l];
    auto it = last_write[l].find(op.key);
    lane.prev_write.push_back(it == last_write[l].end() ? kNoWrite
                                                        : it->second);
    if (IsWrite(op.type)) {
      last_write[l][op.key] = static_cast<uint32_t>(lane.ops.size());
    }
    lane.ops.push_back(op);
    lane.due_ns.push_back(rate_per_s > 0 ? DueOffsetNs(i, rate_per_s) : 0);
  }
  return out;
}

bool CheckReply(const Lane& lane, const Model& base, size_t i,
                size_t acked_before_send, ReplyKind kind,
                std::string_view value, size_t payload_size) {
  const Op& op = lane.ops[i];
  if (IsWrite(op.type)) return kind != ReplyKind::kError;
  if (kind == ReplyKind::kError) return false;
  // Walk back over the writes of this key sent before the GET: every one
  // not yet acknowledged when it was sent may or may not have landed; the
  // newest acknowledged one is the oldest value the GET may return.
  uint32_t w = lane.prev_write[i];
  while (w != kNoWrite) {
    if (Matches(StateAfter(lane.ops[w]), kind, value, op.key, payload_size)) {
      return true;
    }
    if (w < acked_before_send) return false;
    w = lane.prev_write[w];
  }
  return Matches(base.Get(op.key), kind, value, op.key, payload_size);
}

void ApplyAll(const std::vector<Op>& ops, Model* model) {
  for (const Op& op : ops) model->Apply(op);
}

AuditResult AuditScan(const std::vector<std::pair<Key, std::string>>& scan,
                      const Model& model, size_t payload_size) {
  AuditResult r;
  auto note = [&r](std::string what) {
    if (r.mismatches++ == 0) r.first_mismatch = std::move(what);
  };
  uint64_t live_seen = 0;
  for (const auto& [key, value] : scan) {
    ++r.keys_checked;
    const KeyState want = model.Get(key);
    if (!want.live) {
      note("key " + std::to_string(key) + " present but deleted or never written");
      continue;
    }
    ++live_seen;
    uint64_t version = 0;
    if (!DecodePayload(value, key, payload_size, &version) ||
        version != want.version) {
      note("key " + std::to_string(key) + " holds version " +
           std::to_string(version) + ", expected " +
           std::to_string(want.version));
    }
  }
  if (live_seen != model.live_records()) {
    note("scan found " + std::to_string(live_seen) + " live keys, expected " +
         std::to_string(model.live_records()));
  }
  return r;
}

}  // namespace perfbench
