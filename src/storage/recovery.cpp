#include "storage/recovery.hpp"

#include <algorithm>
#include <span>

#include "bloom/compressed.hpp"
#include "storage/checkpoint.hpp"

namespace ghba {

namespace {

/// Does a checkpointed filter have the geometry the server is configured
/// for? A mismatch (operator changed bits-per-file or seed between runs)
/// makes the snapshot filter useless — rebuild instead.
bool GeometryMatches(const CountingBloomFilter& a,
                     const CountingBloomFilter& b) {
  return a.num_counters() == b.num_counters() && a.k() == b.k() &&
         a.seed() == b.seed();
}

/// Exact filter over the recovered store: add every resident path into a
/// clone of the configured template.
CountingBloomFilter RebuildFilter(const MetadataStore& store,
                                  const CountingBloomFilter& filter_template) {
  CountingBloomFilter filter = filter_template;
  store.ForEach([&filter](const std::string& path, const FileMetadata&) {
    filter.Add(path);
  });
  return filter;
}

}  // namespace

StoreMutation ToStoreMutation(WalRecord record) {
  StoreMutation m;
  switch (record.op) {
    case WalOp::kInsert:
      m.kind = StoreMutation::Kind::kInsert;
      break;
    case WalOp::kUpdate:
      m.kind = StoreMutation::Kind::kUpdate;
      break;
    case WalOp::kRemove:
      m.kind = StoreMutation::Kind::kRemove;
      break;
    case WalOp::kClear:
      m.kind = StoreMutation::Kind::kClear;
      break;
    case WalOp::kReplicaInstall:
    case WalOp::kReplicaDrop:
    case WalOp::kTxnBegin:
    case WalOp::kTxnPrepare:
    case WalOp::kTxnCommit:
    case WalOp::kTxnAbort:
    case WalOp::kTxnDecision:
      // Reconfiguration and transaction records never reach the store this
      // way; callers divert them before translating (a committed txn sub-op
      // is translated explicitly). Mapping to kClear would wipe the store,
      // so translate to a harmless no-op remove of the (empty) path instead.
      m.kind = StoreMutation::Kind::kRemove;
      break;
  }
  m.path = std::move(record.path);
  m.metadata = std::move(record.metadata);
  return m;
}

Result<RecoveredState> RecoverState(
    const std::string& data_dir, const CountingBloomFilter& filter_template) {
  RecoveredState out;

  // 1. Newest valid checkpoint (empty state when none exists).
  auto loaded = LoadNewestCheckpoint(data_dir);
  if (!loaded.ok()) return loaded.status();
  out.used_fallback_checkpoint = loaded->used_fallback;
  CheckpointState& ckpt = loaded->state;

  std::vector<StoreMutation> batch;
  batch.reserve(ckpt.files.size());
  for (auto& [path, md] : ckpt.files) {
    batch.push_back(StoreMutation{StoreMutation::Kind::kInsert,
                                  std::move(path), md});
  }
  out.store.ApplyBatch(batch);
  out.replicas = std::move(ckpt.replicas);
  out.txn_pending = std::move(ckpt.txn_pending);
  out.txn_decisions = std::move(ckpt.txn_decisions);

  // 2. The snapshot filter, if usable; otherwise mark for rebuild. The
  // actual replay below works on whichever one we start from.
  bool replaying_snapshot_filter =
      ckpt.has_filter && GeometryMatches(ckpt.filter, filter_template);
  out.filter_rebuilt = !replaying_snapshot_filter;
  CountingBloomFilter replayed = replaying_snapshot_filter
                                     ? std::move(ckpt.filter)
                                     : RebuildFilter(out.store, filter_template);

  // 3. Replay the WAL tail beyond the checkpoint.
  auto image = WriteAheadLog::ReadAll(data_dir + "/" + kWalFileName);
  if (!image.ok()) return image.status();
  WalReplayResult replay = ReplayWalBuffer(*image, ckpt.wal_seq);
  if (replay.foreign_record) {
    return Status::InvalidArgument(data_dir + "/" + kWalFileName +
                                   " holds a retired record type");
  }
  out.wal_valid_bytes = replay.valid_bytes;
  out.torn_tail = replay.torn_tail;
  out.replay_records = replay.records.size();

  std::uint64_t last_seq = ckpt.wal_seq;
  batch.clear();
  batch.reserve(replay.records.size());
  const auto erase_pending = [&out](std::uint64_t txn_id,
                                    const std::string& path) {
    std::erase_if(out.txn_pending, [&](const TxnPendingOp& op) {
      return op.txn_id == txn_id && op.path == path;
    });
  };
  const auto upsert_decision = [&out](std::uint64_t txn_id,
                                      TxnCoordState state) {
    for (auto& d : out.txn_decisions) {
      if (d.txn_id == txn_id) {
        d.state = state;
        return;
      }
    }
    out.txn_decisions.push_back(TxnCoordEntry{txn_id, state});
  };
  for (WalRecord& record : replay.records) {
    last_seq = std::max(last_seq, record.seq);
    // Reconfiguration records replay into the replica array; they never
    // touch the store or the local filter.
    switch (record.op) {
      case WalOp::kReplicaInstall: {
        ByteReader blob(record.filter_blob);
        auto filter = DecompressFilter(blob);
        if (!filter.ok() || !blob.AtEnd()) {
          // The frame CRC checked out, so a bad blob means the writer
          // journaled garbage. Skip: staleness is bounded — the
          // coordinator republishes filters when the server rejoins.
          continue;
        }
        auto it = std::find_if(
            out.replicas.begin(), out.replicas.end(),
            [&record](const auto& e) { return e.first == record.owner; });
        if (it != out.replicas.end()) {
          it->second = std::move(*filter);
        } else {
          out.replicas.emplace_back(record.owner, std::move(*filter));
        }
        continue;
      }
      case WalOp::kReplicaDrop:
        std::erase_if(out.replicas, [&record](const auto& e) {
          return e.first == record.owner;
        });
        continue;
      case WalOp::kTxnBegin:
        // Begin precedes any decision for the same txn in seq order, but a
        // replayed begin must never roll a checkpointed decision back.
        if (std::none_of(out.txn_decisions.begin(), out.txn_decisions.end(),
                         [&record](const TxnCoordEntry& d) {
                           return d.txn_id == record.txn_id;
                         })) {
          upsert_decision(record.txn_id, TxnCoordState::kBegun);
        }
        continue;
      case WalOp::kTxnDecision:
        upsert_decision(record.txn_id, record.txn_commit
                                           ? TxnCoordState::kCommitted
                                           : TxnCoordState::kAborted);
        continue;
      case WalOp::kTxnPrepare: {
        // A re-journaled prepare (recovery re-logging) replaces the old one.
        erase_pending(record.txn_id, record.path);
        TxnPendingOp op;
        op.txn_id = record.txn_id;
        op.subop = record.txn_subop;
        op.path = std::move(record.path);
        op.metadata = std::move(record.metadata);
        op.coordinator = record.owner;
        op.participants = std::move(record.members);
        out.txn_pending.push_back(std::move(op));
        continue;
      }
      case WalOp::kTxnAbort:
        erase_pending(record.txn_id, record.path);
        out.txn_closed.emplace_back(record.txn_id, false);
        continue;
      case WalOp::kTxnCommit: {
        // One frame both applies the sub-op and closes the prepare: a torn
        // tail either replays the whole commit or none of it.
        erase_pending(record.txn_id, record.path);
        out.txn_closed.emplace_back(record.txn_id, true);
        StoreMutation m;
        m.path = std::move(record.path);
        if (record.txn_subop == TxnSubOp::kInsert) {
          replayed.Add(m.path);
          m.kind = StoreMutation::Kind::kInsert;
          m.metadata = std::move(record.metadata);
        } else {
          (void)replayed.Remove(m.path);
          m.kind = StoreMutation::Kind::kRemove;
        }
        batch.push_back(std::move(m));
        continue;
      }
      default:
        break;
    }
    // Maintain the filter alongside the store exactly as the live server
    // does: insert adds, remove removes, clear clears, update leaves the
    // membership set untouched.
    switch (record.op) {
      case WalOp::kInsert:
        replayed.Add(record.path);
        break;
      case WalOp::kRemove:
        // Replay tolerates underflow: a checkpoint may already fold in
        // this remove, making the WAL record a no-op second remove.
        (void)replayed.Remove(record.path);
        break;
      case WalOp::kClear:
        replayed.Clear();
        break;
      default:
        break;
    }
    batch.push_back(ToStoreMutation(std::move(record)));
  }
  out.store.ApplyBatch(batch);
  out.next_seq = last_seq + 1;

  // 4. L4-exactness invariant: the replayed filter must flatten to the same
  // bits as one rebuilt from scratch over the recovered store. Saturated
  // counters in the snapshot (pinned at 15, never decremented) are the one
  // legitimate way they can diverge; when they do, install the rebuilt
  // filter — exact by construction — and report the mismatch.
  if (out.filter_rebuilt) {
    // `replayed` started from the rebuilt filter; nothing to compare.
    out.filter_matched = true;
    out.filter = std::move(replayed);
  } else {
    CountingBloomFilter rebuilt = RebuildFilter(out.store, filter_template);
    out.filter_matched = replayed.ToBloomFilter() == rebuilt.ToBloomFilter();
    out.filter = out.filter_matched ? std::move(replayed) : std::move(rebuilt);
  }
  return out;
}

}  // namespace ghba
