#include "storage/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "storage/wal.hpp"

namespace ghba {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

/// Write `bytes` to `path` and fsync the file. O_TRUNC: the temp file name
/// is reused across checkpoints.
Status WriteFileDurable(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open checkpoint temp");
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("write checkpoint");
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Errno("fsync checkpoint");
  }
  ::close(fd);
  return Status::Ok();
}

/// fsync a directory so a completed rename is durable.
Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open data dir");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync data dir");
  return Status::Ok();
}

/// Parse the wal_seq out of a checkpoint file name; false for other files.
bool ParseCheckpointName(const std::string& name, std::uint64_t* seq) {
  std::uint64_t value = 0;
  char trailer = 0;
  // %c catches trailing garbage like the ".tmp" of an unfinished write.
  const int got =
      std::sscanf(name.c_str(), "checkpoint-%20" SCNu64 ".ckpt%c", &value,
                  &trailer);
  if (got != 1) return false;
  *seq = value;
  return true;
}

/// Checkpoint files under `dir`, newest (highest wal_seq) first.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (ParseCheckpointName(entry.path().filename().string(), &seq)) {
      out.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

}  // namespace

Result<CheckpointHeader> DecodeCheckpointHeader(ByteReader& in) {
  auto m0 = in.GetU8();
  if (!m0.ok()) return m0.status();
  auto m1 = in.GetU8();
  if (!m1.ok()) return m1.status();
  if (*m0 != kCheckpointMagic0 || *m1 != kCheckpointMagic1) {
    return Status::Corruption("bad checkpoint magic");
  }
  CheckpointHeader header;
  auto version = in.GetU16();
  if (!version.ok()) return version.status();
  // Only the current format: a file from another build is not corrupt, it
  // is foreign, and skipping it would silently lose every checkpointed file
  // (the WAL was truncated when it was written).
  if (*version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "checkpoint format version " + std::to_string(*version) +
        "; this build reads only version " +
        std::to_string(kCheckpointVersion));
  }
  auto wal_seq = in.GetU64();
  if (!wal_seq.ok()) return wal_seq.status();
  header.wal_seq = *wal_seq;
  auto body_len = in.GetU32();
  if (!body_len.ok()) return body_len.status();
  if (*body_len > kMaxCheckpointBodyBytes) {
    return Status::Corruption("absurd checkpoint body length");
  }
  header.body_len = *body_len;
  auto body_crc = in.GetU32();
  if (!body_crc.ok()) return body_crc.status();
  header.body_crc = *body_crc;
  return header;
}

std::vector<std::uint8_t> EncodeCheckpoint(const CheckpointState& state) {
  ByteWriter body;
  body.PutVarint(state.files.size());
  for (const auto& [path, md] : state.files) {
    body.PutString(path);
    md.Serialize(body);
  }
  body.PutU8(state.has_filter ? 1 : 0);
  if (state.has_filter) state.filter.Serialize(body);
  // Transaction state: in-doubt prepares + coordinator decisions.
  body.PutVarint(state.txn_pending.size());
  for (const auto& op : state.txn_pending) {
    body.PutU64(op.txn_id);
    body.PutU8(static_cast<std::uint8_t>(op.subop));
    body.PutU32(op.coordinator);
    body.PutVarint(op.participants.size());
    for (const MdsId id : op.participants) body.PutU32(id);
    body.PutString(op.path);
    if (op.subop == TxnSubOp::kInsert) op.metadata.Serialize(body);
  }
  body.PutVarint(state.txn_decisions.size());
  for (const auto& d : state.txn_decisions) {
    body.PutU64(d.txn_id);
    body.PutU8(static_cast<std::uint8_t>(d.state));
  }
  const auto& b = body.data();

  ByteWriter out;
  out.PutU8(kCheckpointMagic0);
  out.PutU8(kCheckpointMagic1);
  out.PutU16(kCheckpointVersion);
  out.PutU64(state.wal_seq);
  out.PutU32(static_cast<std::uint32_t>(b.size()));
  out.PutU32(Crc32(b.data(), b.size()));
  out.PutBytes(b);
  return out.Take();
}

Result<CheckpointState> DecodeCheckpoint(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto header = DecodeCheckpointHeader(in);
  if (!header.ok()) return header.status();
  if (in.remaining() != header->body_len) {
    return Status::Corruption("checkpoint body length mismatch");
  }
  const std::uint8_t* body = bytes.data() + kCheckpointHeaderBytes;
  if (Crc32(body, header->body_len) != header->body_crc) {
    return Status::Corruption("checkpoint body CRC mismatch");
  }

  CheckpointState state;
  state.wal_seq = header->wal_seq;
  auto file_count = in.GetVarint();
  if (!file_count.ok()) return file_count.status();
  // Each entry costs at least one byte; a larger claimed count can only
  // come from a mangled length field.
  if (*file_count > in.remaining()) {
    return Status::Corruption("absurd checkpoint file count");
  }
  state.files.reserve(*file_count);
  for (std::uint64_t i = 0; i < *file_count; ++i) {
    auto path = in.GetString();
    if (!path.ok()) return path.status();
    auto md = FileMetadata::Deserialize(in);
    if (!md.ok()) return md.status();
    state.files.emplace_back(std::move(*path), std::move(*md));
  }

  auto has_filter = in.GetU8();
  if (!has_filter.ok()) return has_filter.status();
  if (*has_filter > 1) return Status::Corruption("bad has_filter byte");
  state.has_filter = (*has_filter != 0);
  if (state.has_filter) {
    auto filter = CountingBloomFilter::Deserialize(in);
    if (!filter.ok()) return filter.status();
    state.filter = std::move(*filter);
  }

  auto pending_count = in.GetVarint();
  if (!pending_count.ok()) return pending_count.status();
  // A pending entry costs at least 15 bytes (8 id + 1 sub-op + 4
  // coordinator + 1 participant count + 1 path length).
  if (*pending_count > in.remaining() / 15) {
    return Status::Corruption("absurd checkpoint txn-pending count");
  }
  state.txn_pending.reserve(*pending_count);
  for (std::uint64_t i = 0; i < *pending_count; ++i) {
    TxnPendingOp op;
    auto txn_id = in.GetU64();
    if (!txn_id.ok()) return txn_id.status();
    op.txn_id = *txn_id;
    auto subop = in.GetU8();
    if (!subop.ok()) return subop.status();
    if (*subop < static_cast<std::uint8_t>(TxnSubOp::kInsert) ||
        *subop > static_cast<std::uint8_t>(TxnSubOp::kRemove)) {
      return Status::Corruption("bad checkpoint txn sub-op");
    }
    op.subop = static_cast<TxnSubOp>(*subop);
    auto coord = in.GetU32();
    if (!coord.ok()) return coord.status();
    op.coordinator = *coord;
    auto part_count = in.GetVarint();
    if (!part_count.ok()) return part_count.status();
    if (*part_count > in.remaining() / sizeof(std::uint32_t)) {
      return Status::Corruption("absurd checkpoint participant count");
    }
    op.participants.reserve(*part_count);
    for (std::uint64_t j = 0; j < *part_count; ++j) {
      auto id = in.GetU32();
      if (!id.ok()) return id.status();
      op.participants.push_back(*id);
    }
    auto path = in.GetString();
    if (!path.ok()) return path.status();
    op.path = std::move(*path);
    if (op.subop == TxnSubOp::kInsert) {
      auto md = FileMetadata::Deserialize(in);
      if (!md.ok()) return md.status();
      op.metadata = std::move(*md);
    }
    state.txn_pending.push_back(std::move(op));
  }
  auto decision_count = in.GetVarint();
  if (!decision_count.ok()) return decision_count.status();
  if (*decision_count > in.remaining() / 9) {
    return Status::Corruption("absurd checkpoint txn-decision count");
  }
  state.txn_decisions.reserve(*decision_count);
  for (std::uint64_t i = 0; i < *decision_count; ++i) {
    TxnCoordEntry entry;
    auto txn_id = in.GetU64();
    if (!txn_id.ok()) return txn_id.status();
    entry.txn_id = *txn_id;
    auto st = in.GetU8();
    if (!st.ok()) return st.status();
    if (*st != static_cast<std::uint8_t>(TxnCoordState::kCommitted) &&
        *st != static_cast<std::uint8_t>(TxnCoordState::kAborted)) {
      return Status::Corruption("bad checkpoint txn decision state");
    }
    entry.state = static_cast<TxnCoordState>(*st);
    state.txn_decisions.push_back(entry);
  }
  if (!in.AtEnd()) return Status::Corruption("checkpoint trailing bytes");
  return state;
}

std::string CheckpointFileName(std::uint64_t wal_seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%020" PRIu64 ".ckpt", wal_seq);
  return buf;
}

Result<std::string> WriteCheckpointFile(const std::string& dir,
                                        const CheckpointState& state,
                                        std::uint32_t keep) {
  const auto bytes = EncodeCheckpoint(state);
  const std::string final_path = dir + "/" + CheckpointFileName(state.wal_seq);
  const std::string tmp_path = final_path + ".tmp";
  if (Status s = WriteFileDurable(tmp_path, bytes); !s.ok()) return s;
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Errno("rename checkpoint");
  }
  // The rename itself must be durable before older checkpoints go away.
  if (Status s = SyncDir(dir); !s.ok()) return s;

  const auto checkpoints = ListCheckpoints(dir);
  for (std::size_t i = std::max<std::uint32_t>(keep, 1);
       i < checkpoints.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(checkpoints[i].second, ec);
  }
  return final_path;
}

Result<LoadedCheckpoint> LoadNewestCheckpoint(const std::string& dir) {
  LoadedCheckpoint out;
  const auto checkpoints = ListCheckpoints(dir);
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    auto bytes = WriteAheadLog::ReadAll(checkpoints[i].second);
    if (bytes.ok()) {
      auto state = DecodeCheckpoint(*bytes);
      if (state.ok()) {
        out.state = std::move(*state);
        out.file = checkpoints[i].second;
        out.used_fallback = i > 0;
        return out;
      }
      // Another format version: refuse the whole dir, touch nothing.
      if (state.status().code() == StatusCode::kInvalidArgument) {
        return Status::InvalidArgument(checkpoints[i].second + ": " +
                                       state.status().message());
      }
    }
    // Corrupt or unreadable: fall back to the next older snapshot.
  }
  return out;  // no checkpoint: empty state, wal_seq 0
}

}  // namespace ghba
