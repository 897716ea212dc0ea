#include "storage/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace ghba {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void EncodeWalRecordPayload(const WalRecord& record, ByteWriter& out) {
  out.PutU8(static_cast<std::uint8_t>(record.op));
  out.PutU64(record.seq);
  out.PutString(record.path);
  switch (record.op) {
    case WalOp::kInsert:
    case WalOp::kUpdate:
      record.metadata.Serialize(out);
      break;
    case WalOp::kTxnPrepare:
      out.PutU64(record.txn_id);
      out.PutU32(record.owner);  // coordinator
      out.PutU8(static_cast<std::uint8_t>(record.txn_subop));
      out.PutVarint(record.members.size());
      for (const MdsId id : record.members) out.PutU32(id);
      if (record.txn_subop == TxnSubOp::kInsert) record.metadata.Serialize(out);
      break;
    case WalOp::kTxnCommit:
      out.PutU64(record.txn_id);
      out.PutU8(static_cast<std::uint8_t>(record.txn_subop));
      if (record.txn_subop == TxnSubOp::kInsert) record.metadata.Serialize(out);
      break;
    case WalOp::kTxnAbort:
      out.PutU64(record.txn_id);
      break;
    case WalOp::kTxnDecision:
      out.PutU64(record.txn_id);
      out.PutU8(record.txn_commit ? 1 : 0);
      break;
    case WalOp::kRemove:
    case WalOp::kClear:
      break;
  }
}

Result<WalRecord> DecodeWalRecordPayload(ByteReader& in) {
  WalRecord record;
  auto op = in.GetU8();
  if (!op.ok()) return op.status();
  if (*op < static_cast<std::uint8_t>(WalOp::kInsert) ||
      *op > static_cast<std::uint8_t>(WalOp::kTxnDecision)) {
    return Status::Corruption("bad WAL op");
  }
  // Ops 5-8 are the retired replica, cluster-view and txn-begin records:
  // not garbage but a log written by an older build, which replay must
  // refuse rather than truncate.
  if (*op >= 5 && *op <= 8) {
    return Status::InvalidArgument("retired WAL op " + std::to_string(*op) +
                                   " (written by an older build)");
  }
  record.op = static_cast<WalOp>(*op);
  auto seq = in.GetU64();
  if (!seq.ok()) return seq.status();
  record.seq = *seq;
  auto path = in.GetString();
  if (!path.ok()) return path.status();
  if (path->size() > kMaxWalPathBytes) {
    return Status::Corruption("WAL path too long");
  }
  record.path = std::move(*path);
  switch (record.op) {
    case WalOp::kInsert:
    case WalOp::kUpdate: {
      auto md = FileMetadata::Deserialize(in);
      if (!md.ok()) return md.status();
      record.metadata = std::move(*md);
      break;
    }
    case WalOp::kTxnPrepare: {
      auto txn_id = in.GetU64();
      if (!txn_id.ok()) return txn_id.status();
      record.txn_id = *txn_id;
      auto coord = in.GetU32();
      if (!coord.ok()) return coord.status();
      record.owner = *coord;
      auto subop = in.GetU8();
      if (!subop.ok()) return subop.status();
      if (*subop < static_cast<std::uint8_t>(TxnSubOp::kInsert) ||
          *subop > static_cast<std::uint8_t>(TxnSubOp::kRemove)) {
        return Status::Corruption("bad txn sub-op");
      }
      record.txn_subop = static_cast<TxnSubOp>(*subop);
      auto count = in.GetVarint();
      if (!count.ok()) return count.status();
      if (*count > in.remaining() / sizeof(std::uint32_t)) {
        return Status::Corruption("WAL participant count overruns record");
      }
      record.members.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto id = in.GetU32();
        if (!id.ok()) return id.status();
        record.members.push_back(*id);
      }
      if (record.txn_subop == TxnSubOp::kInsert) {
        auto md = FileMetadata::Deserialize(in);
        if (!md.ok()) return md.status();
        record.metadata = std::move(*md);
      }
      break;
    }
    case WalOp::kTxnCommit: {
      auto txn_id = in.GetU64();
      if (!txn_id.ok()) return txn_id.status();
      record.txn_id = *txn_id;
      auto subop = in.GetU8();
      if (!subop.ok()) return subop.status();
      if (*subop < static_cast<std::uint8_t>(TxnSubOp::kInsert) ||
          *subop > static_cast<std::uint8_t>(TxnSubOp::kRemove)) {
        return Status::Corruption("bad txn sub-op");
      }
      record.txn_subop = static_cast<TxnSubOp>(*subop);
      if (record.txn_subop == TxnSubOp::kInsert) {
        auto md = FileMetadata::Deserialize(in);
        if (!md.ok()) return md.status();
        record.metadata = std::move(*md);
      }
      break;
    }
    case WalOp::kTxnAbort: {
      auto txn_id = in.GetU64();
      if (!txn_id.ok()) return txn_id.status();
      record.txn_id = *txn_id;
      break;
    }
    case WalOp::kTxnDecision: {
      auto txn_id = in.GetU64();
      if (!txn_id.ok()) return txn_id.status();
      record.txn_id = *txn_id;
      auto verdict = in.GetU8();
      if (!verdict.ok()) return verdict.status();
      if (*verdict > 1) return Status::Corruption("bad txn verdict byte");
      record.txn_commit = (*verdict != 0);
      break;
    }
    case WalOp::kRemove:
    case WalOp::kClear:
      break;
  }
  return record;
}

std::vector<std::uint8_t> EncodeWalRecordFrame(const WalRecord& record) {
  ByteWriter payload;
  EncodeWalRecordPayload(record, payload);
  const auto& body = payload.data();
  ByteWriter frame;
  frame.PutU8(kWalMagic0);
  frame.PutU8(kWalMagic1);
  frame.PutU32(static_cast<std::uint32_t>(body.size()));
  frame.PutU32(Crc32(body.data(), body.size()));
  frame.PutBytes(body);
  return frame.Take();
}

WalReplayResult ReplayWalBuffer(std::span<const std::uint8_t> buf,
                                std::uint64_t from_seq) {
  WalReplayResult out;
  std::size_t pos = 0;
  std::uint64_t last_seq = 0;
  while (pos < buf.size()) {
    const std::size_t left = buf.size() - pos;
    if (left < kWalFrameHeaderBytes) break;  // torn header
    if (buf[pos] != kWalMagic0 || buf[pos + 1] != kWalMagic1) break;
    const std::uint32_t len = LoadU32(buf.data() + pos + 2);
    const std::uint32_t crc = LoadU32(buf.data() + pos + 6);
    if (len > kMaxWalRecordBytes) break;  // mangled length field
    if (left - kWalFrameHeaderBytes < len) break;  // torn payload
    const std::uint8_t* payload = buf.data() + pos + kWalFrameHeaderBytes;
    if (Crc32(payload, len) != crc) break;  // corrupt payload
    ByteReader in(std::span(payload, len));
    auto record = DecodeWalRecordPayload(in);
    if (!record.ok() &&
        record.status().code() == StatusCode::kInvalidArgument) {
      out.foreign_record = true;
      break;
    }
    if (!record.ok() || !in.AtEnd()) break;  // undecodable payload
    // Sequences strictly increase within one log; a regression means the
    // tail predates the last Reset and must not replay.
    if (out.scanned_records > 0 && record->seq <= last_seq) break;
    last_seq = record->seq;
    pos += kWalFrameHeaderBytes + len;
    out.valid_bytes = pos;
    ++out.scanned_records;
    if (record->seq > from_seq) out.records.push_back(std::move(*record));
  }
  out.torn_tail = out.valid_bytes != buf.size();
  return out;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(std::move(other.options_)),
      pending_(std::move(other.pending_)),
      pending_appends_(other.pending_appends_),
      size_bytes_(other.size_bytes_),
      durable_bytes_(other.durable_bytes_),
      appends_(other.appends_),
      fsyncs_(other.fsyncs_),
      appends_since_sync_(other.appends_since_sync_) {}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    options_ = std::move(other.options_);
    pending_ = std::move(other.pending_);
    pending_appends_ = other.pending_appends_;
    size_bytes_ = other.size_bytes_;
    durable_bytes_ = other.durable_bytes_;
    appends_ = other.appends_;
    fsyncs_ = other.fsyncs_;
    appends_since_sync_ = other.appends_since_sync_;
  }
  return *this;
}

Result<std::vector<std::uint8_t>> WriteAheadLog::ReadAll(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::vector<std::uint8_t>{};
    return Errno("open WAL");
  }
  std::vector<std::uint8_t> out;
  std::uint8_t chunk[64 << 10];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read WAL");
    }
    if (n == 0) break;
    out.insert(out.end(), chunk, chunk + n);
  }
  ::close(fd);
  return out;
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path,
                                          const StorageOptions& options,
                                          std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open WAL");
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    ::close(fd);
    return Errno("truncate WAL tail");
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    ::close(fd);
    return Errno("seek WAL");
  }
  WriteAheadLog wal;
  wal.fd_ = fd;
  wal.options_ = options;
  wal.size_bytes_ = offset;
  // The clean prefix was read back successfully, so it is on disk; whether
  // it is *stable* we cannot know, so start pessimistic and let the first
  // Sync re-establish the high-water mark.
  wal.durable_bytes_ = 0;
  if (offset > 0) {
    // Make both the truncation and the surviving prefix stable before any
    // new record lands after them.
    if (Status s = wal.Sync(); !s.ok()) return s;
  }
  return wal;
}

Status WriteAheadLog::Append(const WalRecord& record) {
  if (fd_ < 0) return Status::InvalidArgument("WAL not open");
  const auto frame = EncodeWalRecordFrame(record);
  pending_.PutBytes(frame);
  ++pending_appends_;
  ++appends_;
  return Status::Ok();
}

Status WriteAheadLog::WriteOut(const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd_, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write WAL");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status WriteAheadLog::Commit() {
  if (fd_ < 0) return Status::InvalidArgument("WAL not open");
  if (pending_.size() > 0) {
    if (Status s = WriteOut(pending_.data().data(), pending_.size()); !s.ok()) {
      return s;
    }
    size_bytes_ += pending_.size();
    appends_since_sync_ += pending_appends_;
    pending_.Clear();
    pending_appends_ = 0;
  }
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      return Sync();
    case FsyncPolicy::kInterval:
      if (appends_since_sync_ >=
          std::max<std::uint32_t>(options_.fsync_interval_appends, 1)) {
        return Sync();
      }
      return Status::Ok();
    case FsyncPolicy::kNever:
      return Status::Ok();
  }
  return Status::Internal("bad fsync policy");
}

Status WriteAheadLog::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("WAL not open");
  if (::fsync(fd_) != 0) return Errno("fsync WAL");
  durable_bytes_ = size_bytes_;
  appends_since_sync_ = 0;
  ++fsyncs_;
  return Status::Ok();
}

Status WriteAheadLog::Reset() {
  if (fd_ < 0) return Status::InvalidArgument("WAL not open");
  pending_.Clear();
  pending_appends_ = 0;
  if (::ftruncate(fd_, 0) != 0) return Errno("truncate WAL");
  if (::lseek(fd_, 0, SEEK_SET) < 0) return Errno("seek WAL");
  size_bytes_ = 0;
  return Sync();
}

}  // namespace ghba
