// Write-ahead log for per-MDS metadata mutations.
//
// Every mutating RPC appends one record *after* applying to the in-memory
// store and *before* acking the client, so the log contains exactly the
// acknowledged, successful mutations — replay never has to re-judge
// duplicate inserts or missing removes. Records are framed with the same
// discipline as the wire protocol (magic + u32 length + CRC-32 over the
// payload), which makes torn tails self-announcing: replay stops at the
// first frame whose header, length, CRC or payload does not check out and
// reports how many clean bytes precede it, so the engine can truncate the
// garbage and keep appending.
//
// Record frame: [0x57 0x4C]['len' u32 LE]['crc32' u32 LE][payload]
// Payload:      [op u8][seq u64][path varint-string][body?]
// The body depends on the op: kInsert/kUpdate carry FileMetadata, and the
// kTxn* records (two-phase commit) carry a txn id and, per op, the
// coordinator, participant list, sub-op and metadata — see WalOp below.
// Segment replicas are never journaled: a replica is a routing hint that
// lives in memory only, and a restarted server receives exactly the
// replicas its holder map assigns.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/lookup_outcome.hpp"
#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "storage/options.hpp"

namespace ghba {

inline constexpr std::uint8_t kWalMagic0 = 0x57;  // 'W'
inline constexpr std::uint8_t kWalMagic1 = 0x4C;  // 'L'
inline constexpr std::size_t kWalFrameHeaderBytes = 10;

/// Hard caps on decoded sizes (allocate-after-validate): a mangled length
/// field must never drive an allocation past these.
inline constexpr std::size_t kMaxWalRecordBytes = 1ULL << 20;
inline constexpr std::size_t kMaxWalPathBytes = 64ULL << 10;

enum class WalOp : std::uint8_t {
  kInsert = 1,  ///< new record (path + metadata)
  kUpdate = 2,  ///< overwrite existing record (path + metadata)
  kRemove = 3,  ///< erase record (path only)
  kClear = 4,   ///< drop all records (migration drain; no path)
  // 5 and 6 were the retired replica install/drop records, 7 the retired
  // cluster-view record and 8 the retired txn-begin record; the decoder
  // rejects them and they are never reused.
  // Distributed-transaction records (two-phase commit, presumed abort).
  // Participant side: kTxnPrepare journals the intent (path + sub-op, NOT
  // applied to the store), kTxnCommit is one frame that both applies the
  // sub-op and closes the prepare (so a torn tail can never half-apply),
  // kTxnAbort closes the prepare without applying. Coordinator side:
  // kTxnDecision is THE commit point — once it is durable the
  // transaction's outcome is fixed. The coordinator's own kTxnPrepare is
  // what keeps an undecided txn open there (see TxnManager::IsOpenLocked).
  kTxnPrepare = 9,   ///< participant: txn_id + sub-op + path (+ metadata)
  kTxnCommit = 10,   ///< participant: apply sub-op and close the prepare
  kTxnAbort = 11,    ///< participant: close the prepare, nothing applied
  kTxnDecision = 12, ///< coordinator: txn_id + commit/abort verdict
};

/// Per-participant operation inside a transaction. kTxnPrepare/kTxnCommit
/// records carry exactly one.
enum class TxnSubOp : std::uint8_t {
  kNone = 0,
  kInsert = 1,  ///< create `path` with the carried metadata at commit
  kRemove = 2,  ///< erase `path` at commit
};

struct WalRecord {
  WalOp op = WalOp::kInsert;
  std::uint64_t seq = 0;  ///< strictly increasing per log
  std::string path;
  FileMetadata metadata;  ///< meaningful for kInsert / kUpdate
  /// Transaction fields (meaningful for the kTxn* ops).
  MdsId owner = 0;             ///< kTxnPrepare: the coordinator id
  std::vector<MdsId> members;  ///< kTxnPrepare: participant list
  std::uint64_t txn_id = 0;
  TxnSubOp txn_subop = TxnSubOp::kNone;  ///< kTxnPrepare / kTxnCommit
  bool txn_commit = false;               ///< kTxnDecision verdict

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Payload codec (no frame header). Decode validates the op, the path cap
/// and — for ops that carry one — the metadata body; exposed for fuzzing.
/// A retired op is kInvalidArgument; every other defect is kCorruption.
void EncodeWalRecordPayload(const WalRecord& record, ByteWriter& out);
Result<WalRecord> DecodeWalRecordPayload(ByteReader& in);

/// One complete framed record (header + payload).
std::vector<std::uint8_t> EncodeWalRecordFrame(const WalRecord& record);

struct WalReplayResult {
  /// Records with seq > from_seq, in log order.
  std::vector<WalRecord> records;
  /// Bytes of clean, contiguous records from the start of the buffer.
  /// Appending resumes here; anything beyond is a torn/corrupt tail.
  std::uint64_t valid_bytes = 0;
  /// Structurally valid records scanned (including ones at or below
  /// from_seq, which the checkpoint already covers).
  std::uint64_t scanned_records = 0;
  /// True when trailing bytes had to be dropped (torn frame, bad CRC,
  /// non-monotonic sequence, undecodable payload).
  bool torn_tail = false;
  /// Scanning stopped at a CRC-clean record of a retired op: the log was
  /// written by an older build, and recovery must refuse it, not truncate.
  bool foreign_record = false;
};

/// Scan a log image and extract every clean record. Total: malformed input
/// can only shorten the result, never crash or over-allocate (fuzzed by
/// fuzz_wal_decode).
WalReplayResult ReplayWalBuffer(std::span<const std::uint8_t> buf,
                                std::uint64_t from_seq);

/// Append-side handle on one log file. Appends buffer in memory until
/// Commit(), which writes them out and fsyncs per the configured policy —
/// a server that batches several records per RPC gets group commit for
/// free. Not thread-safe; owned by the MDS event loop like the rest of the
/// per-server state.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;

  /// Read a whole log file (replay input). A missing file is an empty log.
  static Result<std::vector<std::uint8_t>> ReadAll(const std::string& path);

  /// Open (creating if missing) for appending at `offset`, truncating
  /// anything beyond it — recovery passes WalReplayResult::valid_bytes so a
  /// torn tail is chopped before new records land after it.
  static Result<WriteAheadLog> Open(const std::string& path,
                                    const StorageOptions& options,
                                    std::uint64_t offset);

  bool is_open() const { return fd_ >= 0; }

  /// Buffer one record for the next Commit().
  Status Append(const WalRecord& record);

  /// Write all buffered records and fsync per policy (kAlways: every
  /// commit; kInterval: every fsync_interval_appends appends; kNever:
  /// the page cache is on its own).
  Status Commit();

  /// Unconditional fsync (checkpointing barriers on this).
  Status Sync();

  /// Truncate the log to empty after a successful checkpoint. Durable
  /// before returning: a crash right after must not replay stale records
  /// on top of the new checkpoint.
  Status Reset();

  /// Bytes appended and committed to the file (buffered bytes excluded).
  std::uint64_t size_bytes() const { return size_bytes_; }
  /// Bytes known to have reached stable storage (advances on fsync). With
  /// fsync=never this stays at the last explicit Sync/Reset — the honest
  /// measure of what a power cut can take.
  std::uint64_t durable_bytes() const { return durable_bytes_; }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  Status WriteOut(const std::uint8_t* data, std::size_t len);

  int fd_ = -1;
  StorageOptions options_;
  ByteWriter pending_;
  std::uint32_t pending_appends_ = 0;
  std::uint64_t size_bytes_ = 0;
  std::uint64_t durable_bytes_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint32_t appends_since_sync_ = 0;
};

}  // namespace ghba
