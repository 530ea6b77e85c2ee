#include "src/storage/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>

#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

// How many times a read is attempted before the error is surfaced. Real
// SSDs see transient bus/ECC hiccups that succeed on retry; persistent
// failures still surface after this bound.
constexpr int kMaxReadAttempts = 3;

// Upper bound on iovec entries per pwritev/preadv call. POSIX guarantees
// at least 16; Linux allows 1024. Batches larger than this are split.
constexpr size_t kMaxIovecs = 1024;

/// Maps the current errno to a typed Status: disk-full conditions become
/// ResourceExhausted (callers turn them into backpressure), everything
/// else is an I/O error.
Status ErrnoStatus(const std::string& what, int err) {
  std::string msg = what + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(std::move(msg));
  }
  return Status::IoError(std::move(msg));
}

// The *Fully helpers below take `what`, a callable returning the error
// text's prefix. It is called only on failure, so a successful block read
// or write builds no string.

/// pwrite that retries EINTR and continues short writes until `n` bytes
/// land. A zero-progress write (possible when the filesystem runs out of
/// space mid-transfer) is reported as ENOSPC rather than looping forever.
template <typename What>
Status PwriteFully(int fd, const uint8_t* buf, size_t n, off_t off,
                   const What& what) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what(), errno);
    }
    if (r == 0) return ErrnoStatus(what() + " (no progress)", ENOSPC);
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// pread that retries EINTR and continues short reads until `n` bytes
/// arrive. Hitting EOF early means the file is shorter than the slot
/// layout requires — corruption of the backing store, not a syscall error.
template <typename What>
Status PreadFully(int fd, uint8_t* buf, size_t n, off_t off,
                  const What& what) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what(), errno);
    }
    if (r == 0) {
      return Status::Corruption(what() + ": short read (" +
                                std::to_string(done) + " of " +
                                std::to_string(n) + " bytes)");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// pwritev over `iov` that retries EINTR and resumes short writes by
/// advancing past fully-written entries and trimming the partial one.
/// Mutates `iov` on resume (callers pass scratch).
template <typename What>
Status PwritevFully(int fd, struct iovec* iov, size_t iovcnt, off_t off,
                    const What& what) {
  size_t idx = 0;
  while (idx < iovcnt) {
    ssize_t r = ::pwritev(fd, iov + idx, static_cast<int>(iovcnt - idx), off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what(), errno);
    }
    if (r == 0) return ErrnoStatus(what() + " (no progress)", ENOSPC);
    size_t left = static_cast<size_t>(r);
    off += static_cast<off_t>(left);
    while (idx < iovcnt && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iovcnt && left > 0) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  return Status::OK();
}

/// preadv counterpart of PwritevFully; an early EOF is Corruption, as in
/// PreadFully.
template <typename What>
Status PreadvFully(int fd, struct iovec* iov, size_t iovcnt, off_t off,
                   const What& what) {
  size_t idx = 0;
  while (idx < iovcnt) {
    ssize_t r = ::preadv(fd, iov + idx, static_cast<int>(iovcnt - idx), off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what(), errno);
    }
    if (r == 0) return Status::Corruption(what() + ": short read");
    size_t left = static_cast<size_t>(r);
    off += static_cast<off_t>(left);
    while (idx < iovcnt && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iovcnt && left > 0) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  return Status::OK();
}

void EncodeCrc(uint32_t crc, uint8_t out[4]) {
  out[0] = static_cast<uint8_t>(crc);
  out[1] = static_cast<uint8_t>(crc >> 8);
  out[2] = static_cast<uint8_t>(crc >> 16);
  out[3] = static_cast<uint8_t>(crc >> 24);
}

uint32_t DecodeCrc(const uint8_t in[4]) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

}  // namespace

std::string FileBlockDevice::SidecarPath(const std::string& path) {
  constexpr std::string_view kDevSuffix = ".dev";
  if (path.size() > kDevSuffix.size() &&
      path.compare(path.size() - kDevSuffix.size(), kDevSuffix.size(),
                   kDevSuffix) == 0) {
    return path.substr(0, path.size() - kDevSuffix.size()) + ".crc";
  }
  return path + ".crc";
}

StatusOr<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& path, const FileOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  int flags = O_RDWR | O_CREAT;
  if (options.truncate) flags |= O_TRUNC;
  if (options.use_osync) flags |= O_SYNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("open " + path, errno);
  const std::string crc_path = SidecarPath(path);
  const int crc_fd = ::open(crc_path.c_str(), flags, 0644);
  if (crc_fd < 0) {
    Status st = ErrnoStatus("open " + crc_path, errno);
    ::close(fd);
    return st;
  }
  auto dev = std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(path, options, fd, crc_fd));
  if (!options.truncate) {
    // Reopening a persisted device: mirror the sidecar into memory.
    struct stat sb;
    if (::fstat(crc_fd, &sb) != 0) {
      return ErrnoStatus("fstat " + crc_path, errno);
    }
    const uint64_t slots = static_cast<uint64_t>(sb.st_size) / 4;
    dev->crcs_.resize(slots, 0);
    if (slots > 0) {
      std::vector<uint8_t> raw(slots * 4);
      LSMSSD_RETURN_IF_ERROR(
          PreadFully(crc_fd, raw.data(), raw.size(), 0,
                     [&] { return "pread " + crc_path; }));
      for (uint64_t s = 0; s < slots; ++s) {
        dev->crcs_[s] = DecodeCrc(raw.data() + s * 4);
      }
    }
  }
  return dev;
}

FileBlockDevice::FileBlockDevice(std::string path, FileOptions options,
                                 int fd, int crc_fd)
    : path_(std::move(path)),
      crc_path_(SidecarPath(path_)),
      options_(options),
      fd_(fd),
      crc_fd_(crc_fd) {}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
  if (crc_fd_ >= 0) ::close(crc_fd_);
  if (options_.remove_on_close) {
    ::unlink(path_.c_str());
    ::unlink(crc_path_.c_str());
  }
}

Status FileBlockDevice::WriteCrcFile(BlockId slot, uint32_t crc) {
  uint8_t raw[4];
  EncodeCrc(crc, raw);
  LSMSSD_RETURN_IF_ERROR(PwriteFully(crc_fd_, raw, sizeof(raw),
                                     static_cast<off_t>(slot) * 4,
                                     [slot] {
                                       return "pwrite crc for block " +
                                              std::to_string(slot);
                                     }));
  stats_.RecordWriteSyscall();
  return Status::OK();
}

StatusOr<BlockId> FileBlockDevice::WriteNewBlock(const BlockData& data) {
  if (data.size() > options_.block_size) {
    return Status::InvalidArgument("block payload larger than block size");
  }
  BlockId slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_blocks != 0 && live_.size() >= options_.max_blocks) {
      return Status::ResourceExhausted(
          "device full: " + std::to_string(live_.size()) + " of " +
          std::to_string(options_.max_blocks) + " blocks live");
    }
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = next_slot_++;
    }
    if (inject_write_errno_ != 0) {
      const int err = inject_write_errno_;
      inject_write_errno_ = 0;
      free_slots_.push_back(slot);
      return ErrnoStatus("pwrite block " + std::to_string(slot), err);
    }
  }

  BlockData padded = data;
  padded.resize(options_.block_size, 0);
  const off_t offset =
      static_cast<off_t>(slot) * static_cast<off_t>(options_.block_size);
  const uint32_t crc = crc32c::Value(padded.data(), padded.size());
  Status st = PwriteFully(fd_, padded.data(), padded.size(), offset,
                          [slot] {
                            return "pwrite block " + std::to_string(slot);
                          });
  if (st.ok()) {
    stats_.RecordWriteSyscall();
    st = WriteCrcFile(slot, crc);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    // A partial write may have landed; the slot stays free and its bytes
    // are never readable, so the tear is harmless.
    free_slots_.push_back(slot);
    return st;
  }
  if (slot >= crcs_.size()) crcs_.resize(slot + 1, 0);
  crcs_[slot] = crc;
  live_.insert(slot);
  stats_.RecordAllocate();
  stats_.RecordWrite();
  return slot;
}

Status FileBlockDevice::WriteBlocks(const std::vector<BlockData>& blocks,
                                    std::vector<BlockId>* ids) {
  if (blocks.empty()) return Status::OK();
  for (const BlockData& data : blocks) {
    if (data.size() > options_.block_size) {
      return Status::InvalidArgument("block payload larger than block size");
    }
  }

  // Allocate the same SET of slots repeated WriteNewBlock calls would use
  // (free-list LIFO first, then fresh tail slots) — the occupied layout,
  // and therefore what RestoreLive reconstructs, is independent of whether
  // the caller batched. The slots are then assigned to the batch in
  // ascending order: blocks freed together by an earlier merge re-form a
  // contiguous run, which the vectored path below coalesces into single
  // syscalls instead of one pwritev per scattered slot.
  std::vector<BlockId> slots;
  slots.reserve(blocks.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_blocks != 0 &&
        live_.size() + blocks.size() > options_.max_blocks) {
      return Status::ResourceExhausted(
          "device full: " + std::to_string(live_.size()) + " of " +
          std::to_string(options_.max_blocks) + " blocks live, batch of " +
          std::to_string(blocks.size()) + " requested");
    }
    if (inject_write_errno_ != 0) {
      const int err = inject_write_errno_;
      inject_write_errno_ = 0;
      return ErrnoStatus("pwritev batch of " + std::to_string(blocks.size()),
                         err);
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (!free_slots_.empty()) {
        slots.push_back(free_slots_.back());
        free_slots_.pop_back();
      } else {
        slots.push_back(next_slot_++);
      }
    }
  }
  // Pop order is needed to restore the free list verbatim on failure.
  const std::vector<BlockId> pop_order = slots;
  std::sort(slots.begin(), slots.end());

  // Pad payloads, then coalesce runs of consecutive slots into vectored
  // writes: one pwritev for the data file and one packed pwrite for the
  // sidecar (consecutive slots occupy consecutive 4-byte sidecar entries).
  std::vector<BlockData> padded(blocks.begin(), blocks.end());
  std::vector<uint32_t> crcs(blocks.size());
  for (size_t i = 0; i < padded.size(); ++i) {
    padded[i].resize(options_.block_size, 0);
    crcs[i] = crc32c::Value(padded[i].data(), padded[i].size());
  }
  Status st;
  for (size_t begin = 0; begin < slots.size() && st.ok();) {
    size_t end = begin + 1;
    while (end < slots.size() && end - begin < kMaxIovecs &&
           slots[end] == slots[end - 1] + 1) {
      ++end;
    }
    std::vector<struct iovec> iov(end - begin);
    for (size_t i = begin; i < end; ++i) {
      iov[i - begin].iov_base = padded[i].data();
      iov[i - begin].iov_len = padded[i].size();
    }
    const off_t offset = static_cast<off_t>(slots[begin]) *
                         static_cast<off_t>(options_.block_size);
    st = PwritevFully(fd_, iov.data(), iov.size(), offset,
                      [&] {
                        return "pwritev blocks " +
                               std::to_string(slots[begin]) + ".." +
                               std::to_string(slots[end - 1]);
                      });
    if (st.ok()) {
      stats_.RecordWriteSyscall();
      std::vector<uint8_t> packed((end - begin) * 4);
      for (size_t i = begin; i < end; ++i) {
        EncodeCrc(crcs[i], packed.data() + (i - begin) * 4);
      }
      st = PwriteFully(crc_fd_, packed.data(), packed.size(),
                       static_cast<off_t>(slots[begin]) * 4,
                       [&] {
                         return "pwrite crc run at block " +
                                std::to_string(slots[begin]);
                       });
      if (st.ok()) stats_.RecordWriteSyscall();
    }
    begin = end;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    // All-or-nothing: every allocated slot goes back to the free list (in
    // reverse pop order, restoring the LIFO state) and nothing is counted.
    // Partially landed bytes sit in free slots and are never readable.
    for (auto it = pop_order.rbegin(); it != pop_order.rend(); ++it) {
      free_slots_.push_back(*it);
    }
    return st;
  }
  const BlockId max_slot = *std::max_element(slots.begin(), slots.end());
  if (max_slot >= crcs_.size()) crcs_.resize(max_slot + 1, 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    crcs_[slots[i]] = crcs[i];
    live_.insert(slots[i]);
    stats_.RecordAllocate();
    stats_.RecordWrite();
  }
  if (slots.size() > 1) stats_.RecordBatchWrite(slots.size());
  ids->insert(ids->end(), slots.begin(), slots.end());
  return Status::OK();
}

Status FileBlockDevice::ReadAttempt(BlockId id, BlockData* out, bool verify,
                                    uint32_t expected_crc) {
  out->resize(options_.block_size);
  const off_t offset =
      static_cast<off_t>(id) * static_cast<off_t>(options_.block_size);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inject_read_faults_ > 0) {
      --inject_read_faults_;
      return Status::IoError("injected transient read fault on block " +
                             std::to_string(id));
    }
  }
  LSMSSD_RETURN_IF_ERROR(PreadFully(fd_, out->data(), out->size(), offset,
                                    [id] {
                                      return "pread block " +
                                             std::to_string(id);
                                    }));
  stats_.RecordReadSyscall();
  if (verify && crc32c::Value(out->data(), out->size()) != expected_crc) {
    return Status::Corruption("checksum mismatch on block " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status FileBlockDevice::ReadLiveBlock(BlockId id, BlockData* out,
                                      uint32_t expected_crc) {
  stats_.RecordRead();
  Status st;
  for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
    if (attempt > 0) read_retries_.fetch_add(1, std::memory_order_relaxed);
    st = ReadAttempt(id, out, /*verify=*/true, expected_crc);
    // Retry only transient I/O errors; a checksum mismatch is stable
    // on-media damage and re-reading the same bytes cannot fix it.
    if (st.ok() || !st.IsIoError()) return st;
  }
  return st;
}

Status FileBlockDevice::ReadBlock(BlockId id, BlockData* out) {
  uint32_t expected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!live_.contains(id)) {
      return Status::NotFound("block " + std::to_string(id) +
                              " not allocated");
    }
    expected = id < crcs_.size() ? crcs_[id] : 0;
  }
  return ReadLiveBlock(id, out, expected);
}

Status FileBlockDevice::ReadBlocks(const std::vector<BlockId>& ids,
                                   std::vector<BlockData>* out) {
  out->resize(ids.size());
  std::vector<uint32_t> expected(ids.size());
  bool faults_pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!live_.contains(ids[i])) {
        return Status::NotFound("block " + std::to_string(ids[i]) +
                                " not allocated");
      }
      expected[i] = ids[i] < crcs_.size() ? crcs_[ids[i]] : 0;
    }
    faults_pending = inject_read_faults_ > 0;
  }
  for (size_t begin = 0; begin < ids.size();) {
    size_t end = begin + 1;
    if (!faults_pending) {
      while (end < ids.size() && end - begin < kMaxIovecs &&
             ids[end] == ids[end - 1] + 1) {
        ++end;
      }
    }
    if (end - begin == 1) {
      // Lone slot (or the fault seam is armed, which must fire per block):
      // the retrying single-block path.
      LSMSSD_RETURN_IF_ERROR(
          ReadLiveBlock(ids[begin], &(*out)[begin], expected[begin]));
      begin = end;
      continue;
    }
    std::vector<struct iovec> iov(end - begin);
    for (size_t i = begin; i < end; ++i) {
      (*out)[i].resize(options_.block_size);
      iov[i - begin].iov_base = (*out)[i].data();
      iov[i - begin].iov_len = (*out)[i].size();
    }
    const off_t offset = static_cast<off_t>(ids[begin]) *
                         static_cast<off_t>(options_.block_size);
    Status st = PreadvFully(fd_, iov.data(), iov.size(), offset,
                            [&] {
                              return "preadv blocks " +
                                     std::to_string(ids[begin]) + ".." +
                                     std::to_string(ids[end - 1]);
                            });
    if (st.ok()) {
      stats_.RecordReadSyscall();
      for (size_t i = begin; i < end; ++i) {
        stats_.RecordRead();
        if (crc32c::Value((*out)[i].data(), (*out)[i].size()) != expected[i]) {
          return Status::Corruption("checksum mismatch on block " +
                                    std::to_string(ids[i]));
        }
      }
    } else {
      // Vectored read failed; fall back to per-block reads so the bounded
      // retry machinery gets a chance at each block individually.
      for (size_t i = begin; i < end; ++i) {
        LSMSSD_RETURN_IF_ERROR(
            ReadLiveBlock(ids[i], &(*out)[i], expected[i]));
      }
    }
    begin = end;
  }
  if (ids.size() > 1) stats_.RecordBatchRead(ids.size());
  return Status::OK();
}

Status FileBlockDevice::VerifyBlock(BlockId id) {
  BlockData scratch;
  return ReadBlock(id, &scratch);
}

Status FileBlockDevice::CorruptBlockForTesting(BlockId id,
                                               const BlockData& data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!live_.contains(id)) {
      return Status::NotFound("block " + std::to_string(id) +
                              " not allocated");
    }
  }
  if (data.size() > options_.block_size) {
    return Status::InvalidArgument("block payload larger than block size");
  }
  BlockData padded = data;
  padded.resize(options_.block_size, 0);
  const off_t offset =
      static_cast<off_t>(id) * static_cast<off_t>(options_.block_size);
  // Data only — the sidecar keeps the original checksum, as silent media
  // corruption would.
  return PwriteFully(fd_, padded.data(), padded.size(), offset,
                     [id] {
                       return "pwrite (corrupt) block " + std::to_string(id);
                     });
}

Status FileBlockDevice::ReadBlockUnverifiedForTesting(BlockId id,
                                                      BlockData* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!live_.contains(id)) {
      return Status::NotFound("block " + std::to_string(id) +
                              " not allocated");
    }
  }
  return ReadAttempt(id, out, /*verify=*/false, 0);
}

Status FileBlockDevice::RestoreLive(const std::vector<BlockId>& live_blocks) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_slot_ != 1 || !live_.empty()) {
    return Status::FailedPrecondition(
        "RestoreLive on a device that already allocated blocks");
  }
  BlockId max_slot = 0;
  for (BlockId id : live_blocks) {
    if (id == 0) return Status::InvalidArgument("slot 0 is reserved");
    if (!live_.insert(id).second) {
      return Status::InvalidArgument("duplicate live block id");
    }
    max_slot = std::max(max_slot, id);
  }
  if (max_slot >= crcs_.size() && !live_.empty()) {
    live_.clear();
    return Status::Corruption("checksum sidecar " + crc_path_ +
                              " is missing entries for live blocks");
  }
  next_slot_ = max_slot + 1;
  for (BlockId slot = 1; slot < next_slot_; ++slot) {
    if (!live_.contains(slot)) free_slots_.push_back(slot);
  }
  return Status::OK();
}

Status FileBlockDevice::Flush() {
  if (options_.use_osync) return Status::OK();
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync " + path_, errno);
  if (::fsync(crc_fd_) != 0) return ErrnoStatus("fsync " + crc_path_, errno);
  return Status::OK();
}

Status FileBlockDevice::FreeBlock(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it == live_.end()) {
    return Status::NotFound("free of unallocated block " +
                            std::to_string(id));
  }
  live_.erase(it);
  free_slots_.push_back(id);
  stats_.RecordFree();
  return Status::OK();
}

}  // namespace lsmssd
