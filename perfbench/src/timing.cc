#include "timing.h"

#include <cstdio>

#include "util.h"

namespace perfbench {

const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "client.get",    "client.put",    "client.delete", "db.get",
      "db.put",        "db.delete",     "lsm.get",       "lsm.put",
      "lsm.delete",    "storage.read",  "storage.write", "storage.free",
      "storage.flush", "policy.select",
  };
  return name < kSpanNameCount ? kNames[name] : "?";
}

uint32_t SpanLog::Begin(uint16_t name, uint64_t request) {
  Span s;
  s.name = name;
  // A child without its own request id belongs to its parent's request.
  s.request = request == 0 && open_ != 0 ? spans_[open_ - 1].request : request;
  s.parent = open_;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_ = static_cast<uint32_t>(spans_.size());
  return open_ - 1;
}

void SpanLog::End(uint32_t index) {
  Span& s = spans_[index];
  s.end_ns = NowNs();
  open_ = s.parent;
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<const std::vector<Span>*>& logs,
                   int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,request,parent,start_ns,sent_ns,end_ns\n");
  for (const std::vector<Span>* log : logs) {
    for (const Span& s : *log) {
      std::fprintf(f, "%s,%llu,%u,%lld,%lld,%lld\n", SpanNameString(s.name),
                   static_cast<unsigned long long>(s.request), s.parent,
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.sent_ns ? s.sent_ns - origin_ns : 0),
                   static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

/// Times one forwarded call into a tally and, when a log is attached, a
/// span under the span open at the time.
class TimingBlockDevice::Timer {
 public:
  Timer(SpanLog* log, uint16_t name, CallTally* tally, uint64_t blocks)
      : log_(log), tally_(tally), start_ns_(NowNs()) {
    tally_->calls += 1;
    tally_->blocks += blocks;
    if (log_ != nullptr) span_ = log_->Begin(name, 0);
  }
  ~Timer() {
    tally_->ns += NowNs() - start_ns_;
    if (log_ != nullptr) log_->End(span_);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  SpanLog* log_;
  CallTally* tally_;
  int64_t start_ns_;
  uint32_t span_ = 0;
};

lsmssd::StatusOr<lsmssd::BlockId> TimingBlockDevice::WriteNewBlock(
    const lsmssd::BlockData& data) {
  Timer t(log_, kStorageWrite, &writes_, 1);
  auto id = base_->WriteNewBlock(data);
  if (id.ok()) {
    stats_.RecordAllocate();
    stats_.RecordWrite();
  }
  return id;
}

lsmssd::Status TimingBlockDevice::ReadBlock(lsmssd::BlockId id,
                                            lsmssd::BlockData* out) {
  Timer t(log_, kStorageRead, &reads_, 1);
  stats_.RecordRead();
  return base_->ReadBlock(id, out);
}

lsmssd::StatusOr<std::shared_ptr<const lsmssd::BlockData>>
TimingBlockDevice::ReadBlockShared(lsmssd::BlockId id) {
  Timer t(log_, kStorageRead, &reads_, 1);
  stats_.RecordRead();
  return base_->ReadBlockShared(id);
}

lsmssd::Status TimingBlockDevice::WriteBlocks(
    const std::vector<lsmssd::BlockData>& blocks,
    std::vector<lsmssd::BlockId>* ids) {
  Timer t(log_, kStorageWrite, &writes_, blocks.size());
  lsmssd::Status st = base_->WriteBlocks(blocks, ids);
  if (st.ok()) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      stats_.RecordAllocate();
      stats_.RecordWrite();
    }
    if (blocks.size() > 1) stats_.RecordBatchWrite(blocks.size());
  }
  return st;
}

lsmssd::Status TimingBlockDevice::ReadBlocks(
    const std::vector<lsmssd::BlockId>& ids,
    std::vector<lsmssd::BlockData>* out) {
  Timer t(log_, kStorageRead, &reads_, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) stats_.RecordRead();
  if (ids.size() > 1) stats_.RecordBatchRead(ids.size());
  return base_->ReadBlocks(ids, out);
}

lsmssd::Status TimingBlockDevice::FreeBlock(lsmssd::BlockId id) {
  Timer t(log_, kStorageFree, &frees_, 1);
  lsmssd::Status st = base_->FreeBlock(id);
  if (st.ok()) stats_.RecordFree();
  return st;
}

lsmssd::Status TimingBlockDevice::Flush() {
  Timer t(log_, kStorageFlush, &flushes_, 0);
  return base_->Flush();
}

lsmssd::MergeSelection TimingMergePolicy::SelectMerge(
    const lsmssd::LsmTree& tree, size_t source_level) {
  const int64_t start = NowNs();
  uint32_t span = 0;
  if (log_ != nullptr) span = log_->Begin(kPolicySelect, 0);
  lsmssd::MergeSelection sel = base_->SelectMerge(tree, source_level);
  if (log_ != nullptr) log_->End(span);
  selects_.calls += 1;
  selects_.ns += NowNs() - start;
  return sel;
}

}  // namespace perfbench
