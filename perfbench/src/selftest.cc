// Self-tests of the benchmark's own parts: the open-loop schedule and its
// lateness arithmetic, the percentile sample-count rule, the reply and
// audit checks (including a planted stale value), and the timing
// decorators changing nothing a bare tree does.
//
//   perfbench_selftest DIR    (DIR: scratch space, created and removed)
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "model.h"
#include "src/db/db.h"
#include "src/lsm/lsm_tree.h"
#include "src/policy/policy_factory.h"
#include "src/storage/file_block_device.h"
#include "timing.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestSchedule() {
  EXPECT(DueOffsetNs(0, 1000) == 0);
  EXPECT(DueOffsetNs(1000, 1000) == 1'000'000'000);
  EXPECT(DueOffsetNs(3, 3000) == 1'000'000);
  EXPECT(LatenessNs(100, 150) == 50);
  EXPECT(LatenessNs(100, 100) == 0);
  EXPECT(LatenessNs(100, 90) == 0);

  // Lanes keep the global schedule: op i of the stream is due at i / rate
  // whichever lane it lands in.
  std::vector<Op> ops;
  for (uint64_t i = 0; i < 1000; ++i) {
    ops.push_back(Op{i * 7919, i + 1, i % 3 ? OpType::kGet : OpType::kPut});
  }
  const std::vector<Lane> lanes = SplitLanes(ops, 2, 500);
  std::vector<int64_t> dues;
  size_t total = 0;
  for (const Lane& l : lanes) {
    total += l.ops.size();
    for (size_t i = 0; i < l.ops.size(); ++i) {
      EXPECT(LaneOf(l.ops[i].key, 2) == static_cast<size_t>(&l - &lanes[0]));
      if (i > 0) EXPECT(l.due_ns[i] > l.due_ns[i - 1]);
      dues.push_back(l.due_ns[i]);
    }
  }
  EXPECT(total == ops.size());
  std::sort(dues.begin(), dues.end());
  for (size_t i = 0; i < dues.size(); ++i) {
    EXPECT(dues[i] == DueOffsetNs(i, 500));
  }

  // A wait never ends before its due time; typically it ends soon after
  // (a median, so a busy host does not fail the test).
  PrepareGeneratorThread();
  std::vector<double> lates;
  for (int i = 0; i < 21; ++i) {
    const int64_t due = NowNs() + 1'000'000;
    SleepUntil(due, 30'000);
    const int64_t now = NowNs();
    EXPECT(now >= due);
    lates.push_back(static_cast<double>(LatenessNs(due, now)));
  }
  EXPECT(Median(lates) < 2'000'000);
  const int64_t past = NowNs() - 1'000'000;
  SleepUntil(past, 30'000);  // already due: returns at once
  EXPECT(LatenessNs(past, NowNs()) < 100'000'000);
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Percentile p = TailPercentile(v, 99);
  EXPECT(p.valid && p.pct == 99 && p.value == 990 && p.beyond == 10);
  p = TailPercentile(v, 50);
  EXPECT(p.valid && p.value == 500 && p.samples == 1000);

  v.resize(500);  // p99 would have 5 beyond: fall back to p98
  p = TailPercentile(v, 99);
  EXPECT(p.valid && p.pct == 98 && p.value == 490 && p.beyond == 10);

  v.resize(11);
  p = TailPercentile(v, 99);
  EXPECT(p.valid && p.value == 1 && p.beyond == 10);
  v.resize(10);
  EXPECT(!TailPercentile(v, 99).valid);
  EXPECT(!TailPercentile({}, 50).valid);

  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestPayloadAndReplies() {
  const size_t ps = 40;
  uint64_t version = 0;
  const std::string v7 = EncodePayload(42, 7, ps);
  EXPECT(DecodePayload(v7, 42, ps, &version) && version == 7);
  EXPECT(!DecodePayload(v7, 43, ps, &version));  // another key's value
  std::string torn = v7;
  torn[30] ^= 1;
  EXPECT(!DecodePayload(torn, 42, ps, &version));

  // Lane: PUT k v1, PUT k v2, GET k. Before the phase k held v0.
  Model base;
  base.Apply(Op{5, 100, OpType::kPut});
  std::vector<Op> ops = {{5, 101, OpType::kPut}, {5, 102, OpType::kPut},
                         {5, 103, OpType::kGet}};
  const Lane lane = SplitLanes(ops, 1, 0)[0];
  const std::string v0 = EncodePayload(5, 100, ps);
  const std::string v1 = EncodePayload(5, 101, ps);
  const std::string v2 = EncodePayload(5, 102, ps);
  auto ok = [&](size_t acked, const std::string& v) {
    return CheckReply(lane, base, 2, acked, ReplyKind::kValue, v, ps);
  };
  // Both writes acknowledged: only the newest is right.
  EXPECT(ok(2, v2) && !ok(2, v1) && !ok(2, v0));
  // One acknowledged: it or the one in flight.
  EXPECT(ok(1, v2) && ok(1, v1) && !ok(1, v0));
  // None acknowledged: anything from the pre-phase value on.
  EXPECT(ok(0, v2) && ok(0, v1) && ok(0, v0));
  EXPECT(!CheckReply(lane, base, 2, 2, ReplyKind::kNotFound, "", ps));
  EXPECT(!CheckReply(lane, base, 2, 2, ReplyKind::kError, "", ps));
  EXPECT(CheckReply(lane, base, 0, 0, ReplyKind::kValue, "", ps));
  EXPECT(!CheckReply(lane, base, 0, 0, ReplyKind::kError, "", ps));

  // A delete in flight makes NotFound acceptable; once acknowledged, required.
  ops = {{6, 201, OpType::kPut}, {6, 202, OpType::kDelete},
         {6, 203, OpType::kGet}};
  const Lane del = SplitLanes(ops, 1, 0)[0];
  EXPECT(CheckReply(del, base, 2, 1, ReplyKind::kNotFound, "", ps));
  EXPECT(CheckReply(del, base, 2, 1, ReplyKind::kValue,
                    EncodePayload(6, 201, ps), ps));
  EXPECT(!CheckReply(del, base, 2, 2, ReplyKind::kValue,
                     EncodePayload(6, 201, ps), ps));
}

void TestAuditCatchesStaleValue(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(fs::path(dir).parent_path());
  auto db_or = lsmssd::Db::Open(BenchDbOptions(), dir);
  EXPECT(db_or.ok());
  if (!db_or.ok()) return;
  lsmssd::Db& db = **db_or;
  const size_t ps = TreeOptions().payload_size;
  Model model;
  uint64_t version = 1;
  for (lsmssd::Key k = 1; k <= 3000; ++k) {
    const Op op{k * 1000, version++, OpType::kPut};
    EXPECT(db.Put(op.key, EncodePayload(op.key, op.version, ps)).ok());
    model.Apply(op);
  }
  const Op del{2000, version++, OpType::kDelete};
  EXPECT(db.Delete(del.key).ok());
  model.Apply(del);
  EXPECT(db.WaitForCompaction().ok());
  auto audit = [&] {
    std::vector<std::pair<lsmssd::Key, std::string>> scan;
    EXPECT(db.Scan(0, UINT32_MAX, &scan).ok());
    return AuditScan(scan, model, ps);
  };
  AuditResult r = audit();
  EXPECT(r.mismatches == 0 && r.keys_checked == 2999);

  // Newer write the database never got: the stored value is now stale.
  const Op lost{5000, version++, OpType::kPut};
  model.Apply(lost);
  r = audit();
  EXPECT(r.mismatches == 1);
  EXPECT(r.first_mismatch.find("5000") != std::string::npos);
  // Planting the stale value back under an old version is still caught.
  EXPECT(db.Put(5000, EncodePayload(5000, 1, ps)).ok());
  EXPECT(audit().mismatches == 1);
  EXPECT(db.Put(5000, EncodePayload(5000, lost.version, ps)).ok());
  EXPECT(audit().mismatches == 0);
  // A resurrected deleted key is caught too.
  EXPECT(db.Put(2000, EncodePayload(2000, 2, ps)).ok());
  EXPECT(audit().mismatches == 1);
  db.Close();
  fs::remove_all(dir);
}

struct BareRun {
  uint64_t device_writes = 0;
  uint64_t tree_writes = 0;
  std::vector<std::pair<lsmssd::Key, std::string>> contents;
};

BareRun RunBare(const std::string& dir, bool timed) {
  BareRun out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  lsmssd::FileBlockDevice::FileOptions fo;
  fo.block_size = TreeOptions().block_size;
  auto file = lsmssd::FileBlockDevice::Open(dir + "/blocks.dev", fo);
  EXPECT(file.ok());
  if (!file.ok()) return out;
  TimingBlockDevice timing(file->get());
  SpanLog log;
  std::unique_ptr<lsmssd::MergePolicy> policy =
      lsmssd::CreatePolicy(lsmssd::PolicyKind::kChooseBest);
  if (timed) {
    auto tp = std::make_unique<TimingMergePolicy>(std::move(policy));
    tp->set_span_log(&log);
    policy = std::move(tp);
    timing.set_span_log(&log);
  }
  lsmssd::BlockDevice* dev =
      timed ? static_cast<lsmssd::BlockDevice*>(&timing) : file->get();
  auto tree = lsmssd::LsmTree::Open(TreeOptions(), dev, std::move(policy));
  EXPECT(tree.ok());
  if (!tree.ok()) return out;
  const WorkloadSpec spec{"t", WorkloadSpec::Kind::kNormal, 0, 30'000, 0, 0,
                          false};
  OpSource src(spec, 7);
  std::vector<Op> ops = src.Preload();
  const std::vector<Op> more = src.Next(30'000);
  ops.insert(ops.end(), more.begin(), more.end());
  const size_t ps = TreeOptions().payload_size;
  for (const Op& op : ops) {
    const lsmssd::Status st =
        op.type == OpType::kPut
            ? (*tree)->Put(op.key, EncodePayload(op.key, op.version, ps))
            : (*tree)->Delete(op.key);
    EXPECT(st.ok());
    (void)(*tree)->Get(op.key);
  }
  EXPECT((*tree)->Scan(0, UINT32_MAX, &out.contents).ok());
  out.device_writes = (*file)->stats().block_writes();
  out.tree_writes = (*tree)->stats().TotalBlocksWritten();
  if (timed) {
    EXPECT(!log.spans().empty());
    EXPECT(timing.writes().blocks == out.device_writes);
    // Storage and policy spans hang under nothing here (no lsm span open),
    // and self time never exceeds a span's duration.
    const std::vector<int64_t> self = log.SelfNs();
    for (size_t i = 0; i < self.size(); ++i) {
      EXPECT(self[i] <= log.spans()[i].end_ns - log.spans()[i].start_ns);
    }
  }
  return out;
}

void TestDecoratorsChangeNothing(const std::string& dir) {
  const BareRun plain = RunBare(dir + "/plain", false);
  const BareRun timed = RunBare(dir + "/timed", true);
  EXPECT(plain.device_writes > 0);
  EXPECT(plain.device_writes == timed.device_writes);
  EXPECT(plain.tree_writes == timed.tree_writes);
  EXPECT(plain.contents == timed.contents);
  fs::remove_all(dir);
}

void TestSpanNesting() {
  SpanLog log;
  const uint32_t outer = log.Begin(kLsmPut, 9);
  const uint32_t inner = log.Begin(kStorageWrite, 0);
  log.End(inner);
  const uint32_t inner2 = log.Begin(kPolicySelect, 0);
  log.End(inner2);
  log.End(outer);
  const uint32_t next = log.Begin(kLsmGet, 10);
  log.End(next);
  const std::vector<Span>& s = log.spans();
  EXPECT(s[inner].parent == outer + 1 && s[inner2].parent == outer + 1);
  EXPECT(s[inner].request == 9 && s[next].parent == 0);
  const std::vector<int64_t> self = log.SelfNs();
  EXPECT(self[outer] == (s[outer].end_ns - s[outer].start_ns) -
                            (s[inner].end_ns - s[inner].start_ns) -
                            (s[inner2].end_ns - s[inner2].start_ns));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  perfbench::TestSchedule();
  perfbench::TestPercentiles();
  perfbench::TestPayloadAndReplies();
  perfbench::TestSpanNesting();
  perfbench::TestAuditCatchesStaleValue(dir + "/audit");
  perfbench::TestDecoratorsChangeNothing(dir + "/bare");
  std::filesystem::remove_all(dir);
  std::printf("selftest: %s (%d failures)\n",
              perfbench::g_failures ? "FAILED" : "ok", perfbench::g_failures);
  return perfbench::g_failures ? 1 : 0;
}
