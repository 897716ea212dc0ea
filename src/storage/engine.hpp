// Per-MDS durable storage engine: the facade an MdsServer drives.
//
// Open() runs crash recovery (checkpoint + WAL tail), reopens the log at
// the end of its clean prefix and hands the recovered store/filter/txn state
// to the server via TakeRecovered(). After that the server calls LogInsert /
// LogUpdate / LogRemove / LogClear after applying each mutation in memory
// and *before* acking the client — a failed log call tells the server to
// roll the mutation back and nack, so the WAL never records an op the
// client was not promised. MaybeCheckpoint() snapshots state and truncates
// the log once it grows past the configured threshold. Segment replicas
// never pass through the engine: they are memory-only, and a restarted
// server receives exactly the replicas its holder map assigns.
//
// Like the rest of per-server state, the engine is single-threaded: it is
// owned by the MDS event loop and never locked.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/counting_bloom_filter.hpp"
#include "common/metrics_registry.hpp"
#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "mds/store.hpp"
#include "storage/options.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace ghba {

/// What recovery found, frozen at Open() time (the kRecoveryInfo RPC
/// reports this so tests and operators can audit a restart).
struct RecoveryInfo {
  std::uint64_t recovered_files = 0;
  std::uint64_t wal_seq = 0;  ///< last sequence recovered
  std::uint64_t replay_records = 0;
  bool torn_tail = false;
  bool used_fallback_checkpoint = false;
  bool filter_rebuilt = false;
  bool filter_matched = true;
  /// Prepared-but-undecided transaction ops recovery surfaced; each holds
  /// an intent lock until the coordinator's verdict resolves it.
  std::uint64_t txn_in_doubt = 0;
};

class StorageEngine {
 public:
  /// Recover from `options.data_dir` (created if missing) and open the WAL
  /// for appending. `filter_template` is an empty counting filter with the
  /// server's configured geometry. `registry` may be null (no metrics).
  /// A data dir written by another build (a checkpoint of another format
  /// version, a retired WAL record) fails with kInvalidArgument and is left
  /// untouched.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const StorageOptions& options,
      const CountingBloomFilter& filter_template, MetricsRegistry* registry);

  /// Move the recovered store/filter/txn state out (valid exactly once,
  /// right after Open). The RecoveryInfo summary stays behind.
  RecoveredState TakeRecovered() { return std::move(recovered_); }

  const RecoveryInfo& recovery_info() const { return info_; }

  /// Append one mutation and commit it per the fsync policy. On error the
  /// caller must roll back the in-memory mutation and fail the request.
  Status LogInsert(std::string_view path, const FileMetadata& metadata);
  Status LogUpdate(std::string_view path, const FileMetadata& metadata);
  Status LogRemove(std::string_view path);
  Status LogClear();

  /// Journal two-phase-commit transitions. The engine mirrors the pending
  /// prepares and the coordinator decision table so both survive WAL
  /// truncation inside every checkpoint. Callers follow the
  /// same discipline as the mutation loggers: journal before acking, roll
  /// back on error.
  Status LogTxnDecision(std::uint64_t txn_id, bool commit);
  Status LogTxnPrepare(const TxnPendingOp& op);
  /// One frame that applies the sub-op and closes the prepare; `op` carries
  /// the sub-op, path and (for inserts) metadata to re-apply on replay.
  Status LogTxnCommit(const TxnPendingOp& op);
  Status LogTxnAbort(std::uint64_t txn_id, const std::string& path);

  /// True once the WAL has outgrown options.checkpoint_wal_bytes.
  bool CheckpointDue() const;

  /// Snapshot `store` + `filter` + the txn state to a new checkpoint file
  /// and truncate the WAL. Barriers on an explicit WAL fsync first so the
  /// snapshot can never claim coverage of records that were not stable.
  Status WriteCheckpoint(const MetadataStore& store,
                         const CountingBloomFilter& filter);

  /// WriteCheckpoint, but only when CheckpointDue(). Returns true when a
  /// checkpoint was written.
  Result<bool> MaybeCheckpoint(const MetadataStore& store,
                               const CountingBloomFilter& filter);

  const StorageOptions& options() const { return options_; }
  const WriteAheadLog& wal() const { return wal_; }
  /// Sequence the next logged record will carry.
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  StorageEngine() = default;

  Status LogRecord(WalOp op, std::string_view path,
                   const FileMetadata* metadata);
  Status CommitRecord(WalRecord record);
  void ExportWalMetrics();

  StorageOptions options_;
  WriteAheadLog wal_;
  RecoveredState recovered_;
  RecoveryInfo info_;
  std::uint64_t next_seq_ = 1;
  /// Mirrors of the durable txn state, folded into every checkpoint.
  std::vector<TxnPendingOp> txn_pending_;
  std::vector<TxnCoordEntry> txn_decisions_;

  bool have_metrics_ = false;
  MetricsRegistry::Counter wal_appends_;
  MetricsRegistry::Counter wal_fsyncs_;
  MetricsRegistry::Counter wal_bytes_;
  MetricsRegistry::Counter checkpoints_;
  MetricsRegistry::LatencyHistogram checkpoint_duration_ns_;
};

}  // namespace ghba
