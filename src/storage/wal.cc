#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "storage/io_util.h"

namespace orpheus::storage {

namespace {

constexpr size_t kFrameHeaderBytes = 8;   // u32 length + u32 crc
constexpr size_t kPayloadHeaderBytes = 9;  // u64 lsn + u8 type

struct WalMetrics {
  obs::Counter* bytes_written;
  obs::Counter* records;
  obs::Counter* syncs;
  obs::Histogram* group_size;
};

// Registered once; every WalWriter in the process feeds the same
// counters (the registry is process-global, like the io_util totals).
const WalMetrics& GetWalMetrics() {
  static const WalMetrics m = {
      obs::GlobalMetrics().GetCounter("orpheus_wal_bytes_written_total",
                                      "Bytes appended to the WAL."),
      obs::GlobalMetrics().GetCounter("orpheus_wal_records_total",
                                      "Records appended to the WAL."),
      obs::GlobalMetrics().GetCounter(
          "orpheus_wal_syncs_total",
          "WAL fdatasync() calls issued (one per commit group)."),
      obs::GlobalMetrics().GetHistogram(
          "orpheus_wal_group_size",
          "Records per WAL append batch (group-commit group size).",
          obs::SizeBuckets())};
  return m;
}

}  // namespace

std::vector<WalRecord> ParseWal(std::string_view data, uint64_t after_lsn,
                                size_t* valid_bytes) {
  std::vector<WalRecord> records;
  size_t pos = 0;
  while (data.size() - pos >= kFrameHeaderBytes) {
    uint32_t length;
    uint32_t crc;
    std::memcpy(&length, data.data() + pos, sizeof(length));
    std::memcpy(&crc, data.data() + pos + 4, sizeof(crc));
    if (length < kPayloadHeaderBytes ||
        length > data.size() - pos - kFrameHeaderBytes) {
      break;  // torn tail: the frame was never fully written
    }
    std::string_view payload = data.substr(pos + kFrameHeaderBytes, length);
    if (Crc32(payload) != crc) break;  // corrupt frame: stop trusting the log
    BinaryReader reader(payload);
    WalRecord record;
    record.lsn = reader.GetU64();
    record.type = static_cast<WalRecordType>(reader.GetU8());
    record.payload.assign(payload.data() + kPayloadHeaderBytes,
                          length - kPayloadHeaderBytes);
    pos += kFrameHeaderBytes + length;
    if (record.lsn > after_lsn) records.push_back(std::move(record));
  }
  if (valid_bytes != nullptr) *valid_bytes = pos;
  return records;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t next_lsn,
                                                   uint64_t initial_records) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
  if (fd < 0) {
    return Status::Internal("cannot open WAL " + path + ": " +
                            std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::Internal("cannot size WAL " + path + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      path, fd, next_lsn, static_cast<uint64_t>(size), initial_records));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::AppendBatch(const WalAppendEntry* entries, size_t n,
                              uint64_t* first_lsn) {
  if (first_lsn != nullptr) *first_lsn = 0;
  if (n == 0) return Status::OK();
  ORPHEUS_RETURN_NOT_OK(broken_);

  // Assemble every frame into one buffer so the whole group reaches
  // the kernel in a single write(): either the batch is a contiguous
  // run of well-formed frames or the tail is torn at one point, which
  // recovery truncates away.
  const uint64_t base_lsn = next_lsn_.load();
  BinaryWriter batch;
  for (size_t i = 0; i < n; ++i) {
    BinaryWriter payload;
    payload.PutU64(base_lsn + i);
    payload.PutU8(static_cast<uint8_t>(entries[i].type));
    payload.PutRaw(entries[i].body.data(), entries[i].body.size());
    batch.PutU32(static_cast<uint32_t>(payload.data().size()));
    batch.PutU32(Crc32(payload.data()));
    batch.PutRaw(payload.data().data(), payload.data().size());
  }

  const std::string& bytes = batch.data();
  int64_t torn_bytes = -1;
  if (NextIoWriteFails(IoFileClass::kWal, &torn_bytes)) {
    // Injected crash-at-this-write: model the torn tail by really
    // writing the requested prefix, then fail as a died process would.
    if (torn_bytes > 0) {
      size_t torn = std::min(static_cast<size_t>(torn_bytes), bytes.size());
      size_t written = 0;
      while (written < torn) {
        ssize_t w = ::write(fd_, bytes.data() + written, torn - written);
        if (w < 0) {
          if (errno == EINTR) continue;
          break;
        }
        written += static_cast<size_t>(w);
      }
    }
    broken_ = Status::Internal("injected WAL write fault for " + path_);
    return broken_;
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t w = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      broken_ = Status::Internal("WAL append failed for " + path_ + ": " +
                                 std::strerror(errno));
      return broken_;
    }
    written += static_cast<size_t>(w);
  }
  ++syncs_;
  GetWalMetrics().syncs->Inc();
  bool injected_fail = NextIoSyncFails(IoFileClass::kWal);
  if (injected_fail || ::fdatasync(fd_) != 0) {
    broken_ = Status::Internal(
        injected_fail ? "injected WAL fdatasync fault for " + path_
                      : "WAL fdatasync failed for " + path_ + ": " +
                            std::strerror(errno));
    return broken_;
  }
  next_lsn_.fetch_add(n);
  file_bytes_.fetch_add(bytes.size());
  records_.fetch_add(n);
  const WalMetrics& metrics = GetWalMetrics();
  metrics.bytes_written->Inc(bytes.size());
  metrics.records->Inc(n);
  metrics.group_size->Observe(static_cast<double>(n));
  if (first_lsn != nullptr) *first_lsn = base_lsn;
  return Status::OK();
}

Status WalWriter::Reset() {
  ORPHEUS_RETURN_NOT_OK(broken_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal("WAL truncate failed for " + path_ + ": " +
                            std::strerror(errno));
  }
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("WAL fdatasync failed for " + path_ + ": " +
                            std::strerror(errno));
  }
  file_bytes_.store(0);
  records_.store(0);
  return Status::OK();
}

Status WalWriter::health() const { return broken_; }

}  // namespace orpheus::storage
