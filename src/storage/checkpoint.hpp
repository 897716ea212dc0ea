// Atomic checkpoints of per-MDS state: the metadata map, the authoritative
// counting Bloom filter and the transaction state. Segment replicas are not
// checkpointed: they live in memory only, and a restarted server receives
// exactly the replicas its holder map assigns.
//
// A checkpoint is one self-validating file written next to the WAL:
//
//   [0x47 0x43][version u16 LE][wal_seq u64 LE][body_len u32 LE]
//   [body_crc32 u32 LE][body]
//
//   body = [file_count varint] file_count * ([path string][metadata])
//          [has_filter u8] has_filter? [CountingBloomFilter]
//          [pending_count varint] pending_count * ([txn_id u64][subop u8]
//          [coordinator u32][participant_count varint][participant u32]*
//          [path string][metadata if insert])
//          [decision_count varint] decision_count * ([txn_id u64][state u8])
//          (state: 1 committed, 2 aborted; v6 retired v5's 0 = begun)
//
// The transaction state (in-doubt prepares and the coordinator decision
// table) rides along because checkpointing truncates the WAL records it
// would otherwise replay from. Only the current version decodes: a file
// written by another build fails the load with kInvalidArgument instead of
// being skipped as corrupt, because skipping it would start recovery from
// nothing over a WAL that was truncated when the file was written.
//
// wal_seq is the last WAL sequence the snapshot covers; recovery replays
// only records beyond it. Writes are atomic (temp file + fsync + rename +
// directory fsync) and old checkpoints are pruned only after the new one is
// durable, so there is always at least one loadable snapshot; a corrupt
// newest file (half-written before a crash) falls back to the next older.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bloom/counting_bloom_filter.hpp"
#include "common/bytes.hpp"
#include "common/lookup_outcome.hpp"
#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "storage/txn_state.hpp"

namespace ghba {

inline constexpr std::uint8_t kCheckpointMagic0 = 0x47;  // 'G'
inline constexpr std::uint8_t kCheckpointMagic1 = 0x43;  // 'C'
/// The only format this build reads or writes.
inline constexpr std::uint16_t kCheckpointVersion = 6;
inline constexpr std::size_t kCheckpointHeaderBytes = 20;

/// Allocation cap for a claimed body length (allocate-after-validate).
inline constexpr std::size_t kMaxCheckpointBodyBytes = 256ULL << 20;

struct CheckpointState {
  /// Last WAL sequence number this snapshot covers.
  std::uint64_t wal_seq = 0;
  std::vector<std::pair<std::string, FileMetadata>> files;
  /// The authoritative local filter, counting form (so deletes keep
  /// working after recovery). Absent in minimal snapshots; recovery then
  /// rebuilds it from `files`.
  bool has_filter = false;
  CountingBloomFilter filter;
  /// Transaction state at snapshot time: prepares still in doubt and the
  /// coordinator decision table.
  std::vector<TxnPendingOp> txn_pending;
  std::vector<TxnCoordEntry> txn_decisions;
};

struct CheckpointHeader {
  std::uint64_t wal_seq = 0;
  std::uint32_t body_len = 0;
  std::uint32_t body_crc = 0;
};

/// Header codec, exposed for fuzzing: validates magic, version and the
/// body-length cap before anything is allocated. A version other than
/// kCheckpointVersion is kInvalidArgument; every other defect is
/// kCorruption.
Result<CheckpointHeader> DecodeCheckpointHeader(ByteReader& in);

/// Whole-file codec. Decode verifies the header, the CRC and every body
/// field; a foreign version is kInvalidArgument, any other mismatch is
/// kCorruption (the loader then falls back to an older file).
std::vector<std::uint8_t> EncodeCheckpoint(const CheckpointState& state);
Result<CheckpointState> DecodeCheckpoint(std::span<const std::uint8_t> bytes);

/// File name a given snapshot is stored under (sortable by wal_seq).
std::string CheckpointFileName(std::uint64_t wal_seq);

/// Atomically persist `state` under `dir` and prune all but the newest
/// `keep` checkpoints. Returns the path written.
Result<std::string> WriteCheckpointFile(const std::string& dir,
                                        const CheckpointState& state,
                                        std::uint32_t keep);

struct LoadedCheckpoint {
  CheckpointState state;
  /// Path the snapshot came from; empty when no checkpoint existed.
  std::string file;
  /// True when a newer-but-corrupt checkpoint had to be skipped.
  bool used_fallback = false;
};

/// Load the newest valid checkpoint under `dir`. No checkpoint at all is
/// not an error — the result carries an empty state (wal_seq 0). A file of
/// another format version fails the load with kInvalidArgument.
Result<LoadedCheckpoint> LoadNewestCheckpoint(const std::string& dir);

}  // namespace ghba
