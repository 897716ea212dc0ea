#include "storage/engine.hpp"

#include <chrono>
#include <filesystem>

#include "core/metrics.hpp"
#include "storage/checkpoint.hpp"

namespace ghba {

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const StorageOptions& options, const CountingBloomFilter& filter_template,
    MetricsRegistry* registry) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("storage engine needs a data dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::Internal("create data dir " + options.data_dir + ": " +
                            ec.message());
  }

  auto recovered = RecoverState(options.data_dir, filter_template);
  if (!recovered.ok()) return recovered.status();

  auto wal = WriteAheadLog::Open(options.data_dir + "/" + kWalFileName,
                                 options, recovered->wal_valid_bytes);
  if (!wal.ok()) return wal.status();

  // make_unique needs a public constructor; the engine's is private.
  auto engine = std::unique_ptr<StorageEngine>(new StorageEngine());
  engine->options_ = options;
  engine->wal_ = std::move(*wal);
  engine->next_seq_ = recovered->next_seq;
  engine->info_ = RecoveryInfo{
      .recovered_files = recovered->store.size(),
      .wal_seq = recovered->next_seq - 1,
      .replay_records = recovered->replay_records,
      .torn_tail = recovered->torn_tail,
      .used_fallback_checkpoint = recovered->used_fallback_checkpoint,
      .filter_rebuilt = recovered->filter_rebuilt,
      .filter_matched = recovered->filter_matched,
      .txn_in_doubt = recovered->txn_pending.size(),
  };
  // Copies, not moves: TakeRecovered hands the same tables to the server's
  // TxnManager while the engine keeps folding them into checkpoints.
  engine->txn_pending_ = recovered->txn_pending;
  engine->txn_decisions_ = recovered->txn_decisions;
  engine->recovered_ = std::move(*recovered);

  if (registry != nullptr) {
    engine->have_metrics_ = true;
    engine->wal_appends_ =
        registry->counter(metrics_names::kStorageWalAppends);
    engine->wal_fsyncs_ = registry->counter(metrics_names::kStorageWalFsyncs);
    engine->wal_bytes_ = registry->counter(metrics_names::kStorageWalBytes);
    engine->checkpoints_ =
        registry->counter(metrics_names::kStorageCheckpoints);
    engine->checkpoint_duration_ns_ =
        registry->histogram(metrics_names::kStorageCheckpointDurationNs);
    registry->counter(metrics_names::kStorageRecoveryReplayRecords) =
        engine->info_.replay_records;
    registry->counter(metrics_names::kStorageRecoveryTornTail) =
        engine->info_.torn_tail ? 1 : 0;
    registry->counter(metrics_names::kStorageRecoveryFilterRebuilt) =
        engine->info_.filter_rebuilt ? 1 : 0;
    registry->counter(metrics_names::kStorageRecoveryFilterMismatch) =
        engine->info_.filter_matched ? 0 : 1;
    engine->ExportWalMetrics();
  }
  return engine;
}

void StorageEngine::ExportWalMetrics() {
  if (!have_metrics_) return;
  // Gauges mirroring the log's own counters (overwrite, not add).
  wal_appends_ = wal_.appends();
  wal_fsyncs_ = wal_.fsyncs();
  wal_bytes_ = wal_.size_bytes();
}

Status StorageEngine::CommitRecord(WalRecord record) {
  record.seq = next_seq_;
  if (Status s = wal_.Append(record); !s.ok()) return s;
  if (Status s = wal_.Commit(); !s.ok()) return s;
  // Only burn the sequence once the record is in the log: replay tolerates
  // gaps but tests expect next_seq to track logged records exactly.
  ++next_seq_;
  ExportWalMetrics();
  return Status::Ok();
}

Status StorageEngine::LogRecord(WalOp op, std::string_view path,
                                const FileMetadata* metadata) {
  WalRecord record;
  record.op = op;
  record.path = std::string(path);
  if (metadata != nullptr) record.metadata = *metadata;
  return CommitRecord(std::move(record));
}

Status StorageEngine::LogInsert(std::string_view path,
                                const FileMetadata& metadata) {
  return LogRecord(WalOp::kInsert, path, &metadata);
}

Status StorageEngine::LogUpdate(std::string_view path,
                                const FileMetadata& metadata) {
  return LogRecord(WalOp::kUpdate, path, &metadata);
}

Status StorageEngine::LogRemove(std::string_view path) {
  return LogRecord(WalOp::kRemove, path, nullptr);
}

Status StorageEngine::LogClear() {
  return LogRecord(WalOp::kClear, {}, nullptr);
}

Status StorageEngine::LogTxnDecision(std::uint64_t txn_id, bool commit) {
  WalRecord record;
  record.op = WalOp::kTxnDecision;
  record.txn_id = txn_id;
  record.txn_commit = commit;
  if (Status s = CommitRecord(std::move(record)); !s.ok()) return s;
  const TxnCoordState state =
      commit ? TxnCoordState::kCommitted : TxnCoordState::kAborted;
  for (auto& d : txn_decisions_) {
    if (d.txn_id == txn_id) {
      d.state = state;
      return Status::Ok();
    }
  }
  txn_decisions_.push_back(TxnCoordEntry{txn_id, state});
  if (txn_decisions_.size() > kMaxTxnCoordEntries) {
    txn_decisions_.erase(txn_decisions_.begin());
  }
  return Status::Ok();
}

Status StorageEngine::LogTxnPrepare(const TxnPendingOp& op) {
  WalRecord record;
  record.op = WalOp::kTxnPrepare;
  record.txn_id = op.txn_id;
  record.path = op.path;
  record.txn_subop = op.subop;
  record.owner = op.coordinator;
  record.members = op.participants;
  if (op.subop == TxnSubOp::kInsert) record.metadata = op.metadata;
  if (Status s = CommitRecord(std::move(record)); !s.ok()) return s;
  std::erase_if(txn_pending_, [&op](const TxnPendingOp& p) {
    return p.txn_id == op.txn_id && p.path == op.path;
  });
  txn_pending_.push_back(op);
  return Status::Ok();
}

Status StorageEngine::LogTxnCommit(const TxnPendingOp& op) {
  WalRecord record;
  record.op = WalOp::kTxnCommit;
  record.txn_id = op.txn_id;
  record.path = op.path;
  record.txn_subop = op.subop;
  if (op.subop == TxnSubOp::kInsert) record.metadata = op.metadata;
  if (Status s = CommitRecord(std::move(record)); !s.ok()) return s;
  std::erase_if(txn_pending_, [&op](const TxnPendingOp& p) {
    return p.txn_id == op.txn_id && p.path == op.path;
  });
  return Status::Ok();
}

Status StorageEngine::LogTxnAbort(std::uint64_t txn_id,
                                  const std::string& path) {
  WalRecord record;
  record.op = WalOp::kTxnAbort;
  record.txn_id = txn_id;
  record.path = path;
  if (Status s = CommitRecord(std::move(record)); !s.ok()) return s;
  std::erase_if(txn_pending_, [&](const TxnPendingOp& p) {
    return p.txn_id == txn_id && p.path == path;
  });
  return Status::Ok();
}

bool StorageEngine::CheckpointDue() const {
  return wal_.size_bytes() >= options_.checkpoint_wal_bytes;
}

Status StorageEngine::WriteCheckpoint(const MetadataStore& store,
                                      const CountingBloomFilter& filter) {
  const auto start = std::chrono::steady_clock::now();

  // Everything the snapshot will claim to cover must be stable first; a
  // crash between Reset() and this fsync must not lose acked records.
  if (Status s = wal_.Sync(); !s.ok()) return s;

  CheckpointState state;
  state.wal_seq = next_seq_ - 1;
  state.files.reserve(store.size());
  store.ForEach([&state](const std::string& path, const FileMetadata& md) {
    state.files.emplace_back(path, md);
  });
  state.has_filter = true;
  state.filter = filter;
  state.txn_pending = txn_pending_;
  state.txn_decisions = txn_decisions_;

  auto written =
      WriteCheckpointFile(options_.data_dir, state, options_.keep_checkpoints);
  if (!written.ok()) return written.status();
  if (Status s = wal_.Reset(); !s.ok()) return s;

  if (have_metrics_) {
    ++checkpoints_;
    checkpoint_duration_ns_.Add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    ExportWalMetrics();
  }
  return Status::Ok();
}

Result<bool> StorageEngine::MaybeCheckpoint(
    const MetadataStore& store, const CountingBloomFilter& filter) {
  if (!CheckpointDue()) return false;
  if (Status s = WriteCheckpoint(store, filter); !s.ok()) return s;
  return true;
}

}  // namespace ghba
