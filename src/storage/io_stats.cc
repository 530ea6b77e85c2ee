#include "src/storage/io_stats.h"

namespace lsmssd {

std::span<const IoStats::Field> IoStats::Fields() {
  static constexpr Field kFields[] = {
      {"writes", Field::kBlocks, &IoStats::block_writes_},
      {"reads", Field::kBlocks, &IoStats::block_reads_},
      {"cached_reads", Field::kBlocks, &IoStats::cached_reads_},
      {"allocs", Field::kBlocks, &IoStats::block_allocs_},
      {"frees", Field::kBlocks, &IoStats::block_frees_},
      {"cache_hits", Field::kCache, &IoStats::cache_hits_},
      {"cache_misses", Field::kCache, &IoStats::cache_misses_},
      {"bloom_skips", Field::kCache, &IoStats::bloom_skips_},
      {"write_syscalls", Field::kSyscalls, &IoStats::write_syscalls_},
      {"read_syscalls", Field::kSyscalls, &IoStats::read_syscalls_},
      {"batch_writes", Field::kSyscalls, &IoStats::batch_writes_},
      {"batched_blocks_written", Field::kSyscalls,
       &IoStats::batched_blocks_written_},
      {"batch_reads", Field::kSyscalls, &IoStats::batch_reads_},
      {"batched_blocks_read", Field::kSyscalls,
       &IoStats::batched_blocks_read_},
  };
  return kFields;
}

void IoStats::CopyFrom(const IoStats& other) {
  for (const Field& f : Fields()) Set(f, other.Get(f));
}

void IoStats::OverlaySyscallCounters(const IoStats& other) {
  for (const Field& f : Fields()) {
    if (f.group == Field::kSyscalls) Set(f, other.Get(f));
  }
}

void IoStats::MergeFrom(const IoStats& other) {
  for (const Field& f : Fields()) {
    (this->*f.cell).fetch_add(other.Get(f), std::memory_order_relaxed);
  }
}

void IoStats::Reset() {
  for (const Field& f : Fields()) Set(f, 0);
}

std::string IoStats::ToString() const {
  bool shown[3] = {true, false, false};
  for (const Field& f : Fields()) {
    if (Get(f) > 0) shown[f.group] = true;
  }
  std::string out;
  for (const Field& f : Fields()) {
    if (!shown[f.group]) continue;
    if (!out.empty()) out += ' ';
    out.append(f.name).append("=").append(std::to_string(Get(f)));
  }
  return out;
}

}  // namespace lsmssd
