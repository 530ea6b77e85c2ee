// Spans, and the timing decorators the lsm replay puts around the block
// device and the merge policy to attribute time to `storage` and `policy`.
#ifndef PERFBENCH_SRC_TIMING_H_
#define PERFBENCH_SRC_TIMING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/policy/merge_policy.h"
#include "src/storage/block_device.h"

namespace perfbench {

enum SpanName : uint16_t {
  kClientGet,
  kClientPut,
  kClientDelete,
  kDbGet,
  kDbPut,
  kDbDelete,
  kLsmGet,
  kLsmPut,
  kLsmDelete,
  kStorageRead,
  kStorageWrite,
  kStorageFree,
  kStorageFlush,
  kPolicySelect,
  kSpanNameCount,
};

const char* SpanNameString(uint16_t name);

/// A timed call at a layer boundary. `parent` is the index + 1 of the span
/// that caused it (0 for none); spans of one request share `request`.
/// Client spans use `start_ns` as the due time and `sent_ns` as the send.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t sent_ns = 0;
  uint64_t request = 0;
  uint32_t parent = 0;
  uint16_t name = 0;
};

/// Spans of one thread, kept in memory. Begin/End nest: a span begun while
/// another is open becomes its child.
class SpanLog {
 public:
  uint32_t Begin(uint16_t name, uint64_t request);
  void End(uint32_t index);
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of each span minus the part its children cover.
  std::vector<int64_t> SelfNs() const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = 0;  ///< Index + 1 of the innermost open span.
};

/// Writes spans as CSV (name,request,parent,start_ns,sent_ns,end_ns) with
/// times relative to `origin_ns`.
bool WriteSpansCsv(const std::string& path,
                   const std::vector<const std::vector<Span>*>& logs,
                   int64_t origin_ns);

/// Calls and busy time of one decorated operation.
struct CallTally {
  uint64_t calls = 0;
  uint64_t blocks = 0;
  int64_t ns = 0;
};

/// Forwards every call to `base` and times it. Single-threaded use: the
/// lsm replay drives a bare tree, whose merges run in the calling thread. Keeps its own IoStats like
/// a physical device, so the tree above it sees the same accounting. When a
/// SpanLog is attached, each call is also recorded as a span under the
/// span open at the time.
class TimingBlockDevice : public lsmssd::BlockDevice {
 public:
  explicit TimingBlockDevice(lsmssd::BlockDevice* base) : base_(base) {}

  void set_span_log(SpanLog* log) { log_ = log; }
  const CallTally& reads() const { return reads_; }
  const CallTally& writes() const { return writes_; }
  const CallTally& flushes() const { return flushes_; }

  size_t block_size() const override { return base_->block_size(); }
  lsmssd::StatusOr<lsmssd::BlockId> WriteNewBlock(
      const lsmssd::BlockData& data) override;
  lsmssd::Status ReadBlock(lsmssd::BlockId id,
                           lsmssd::BlockData* out) override;
  lsmssd::StatusOr<std::shared_ptr<const lsmssd::BlockData>> ReadBlockShared(
      lsmssd::BlockId id) override;
  lsmssd::Status WriteBlocks(const std::vector<lsmssd::BlockData>& blocks,
                             std::vector<lsmssd::BlockId>* ids) override;
  lsmssd::Status ReadBlocks(const std::vector<lsmssd::BlockId>& ids,
                            std::vector<lsmssd::BlockData>* out) override;
  lsmssd::Status FreeBlock(lsmssd::BlockId id) override;
  lsmssd::Status VerifyBlock(lsmssd::BlockId id) override {
    return base_->VerifyBlock(id);
  }
  lsmssd::Status Flush() override;
  uint64_t live_blocks() const override { return base_->live_blocks(); }

 private:
  class Timer;

  lsmssd::BlockDevice* base_;
  SpanLog* log_ = nullptr;
  CallTally reads_, writes_, frees_, flushes_;
};

/// Forwards SelectMerge to the wrapped policy and times it.
class TimingMergePolicy : public lsmssd::MergePolicy {
 public:
  explicit TimingMergePolicy(std::unique_ptr<lsmssd::MergePolicy> base)
      : base_(std::move(base)) {}

  void set_span_log(SpanLog* log) { log_ = log; }
  const CallTally& selects() const { return selects_; }

  std::string_view name() const override { return base_->name(); }
  lsmssd::MergeSelection SelectMerge(const lsmssd::LsmTree& tree,
                                     size_t source_level) override;
  void Reset() override { base_->Reset(); }

 private:
  std::unique_ptr<lsmssd::MergePolicy> base_;
  SpanLog* log_ = nullptr;
  CallTally selects_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMING_H_
