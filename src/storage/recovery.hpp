// Crash recovery: newest valid checkpoint + WAL tail replay.
//
// Recovery rebuilds exactly the state a restarted MDS needs to resume
// serving L4 (the authoritative level): the metadata store, the local
// counting Bloom filter and the transaction state. Segment replicas are
// not recovered: they are memory-only routing hints, and a restarted
// server receives exactly the replicas its holder map assigns. The
// invariant that
// makes L4 exactness survive a restart: after replay, the filter obtained
// by replaying logged mutations into the checkpointed filter must flatten
// to the same bits as one rebuilt from scratch over the recovered store.
// When the two disagree (possible only through counter saturation in the
// checkpointed filter, or a filter-less snapshot), recovery prefers the
// rebuilt filter — it is exact by construction — and reports the mismatch
// instead of hard-failing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bloom/counting_bloom_filter.hpp"
#include "common/lookup_outcome.hpp"
#include "common/status.hpp"
#include "mds/store.hpp"
#include "storage/txn_state.hpp"
#include "storage/wal.hpp"

namespace ghba {

/// The WAL lives under the data dir at this fixed name.
inline constexpr char kWalFileName[] = "wal.log";

/// Translate one WAL record into the shared store mutation type (WAL
/// replay and replica migration both funnel through
/// MetadataStore::ApplyBatch). Only meaningful for the file-mutation ops
/// (kInsert/kUpdate/kRemove/kClear); transaction records are replayed
/// into the transaction state instead.
StoreMutation ToStoreMutation(WalRecord record);

struct RecoveredState {
  MetadataStore store;
  CountingBloomFilter filter;

  /// First sequence number new WAL records should use.
  std::uint64_t next_seq = 1;
  /// Clean WAL prefix length; the engine reopens the log appending here.
  std::uint64_t wal_valid_bytes = 0;
  std::uint64_t replay_records = 0;
  bool torn_tail = false;
  bool used_fallback_checkpoint = false;
  /// The snapshot carried no usable filter (absent, or geometry drifted
  /// from the configured one) and it was rebuilt from the store.
  bool filter_rebuilt = false;
  /// replayed-filter == rebuilt-filter (flattened bits). False means the
  /// checkpointed filter had saturated counters; the rebuilt (exact) one
  /// was installed instead.
  bool filter_matched = true;

  /// In-doubt transaction prepares: journaled (or checkpointed) kTxnPrepare
  /// records whose commit/abort never made it to the log. The server must
  /// re-take their intent locks and have them resolved before the paths
  /// accept plain mutations again.
  std::vector<TxnPendingOp> txn_pending;
  /// Coordinator decision table: every kTxnDecision verdict that
  /// survives (checkpoint section + WAL tail).
  std::vector<TxnCoordEntry> txn_decisions;
  /// Participant outcomes closed since the checkpoint (txn_id -> committed),
  /// in log order. Seeds the idempotency history so a re-sent commit/abort
  /// after restart is acked instead of re-applied.
  std::vector<std::pair<std::uint64_t, bool>> txn_closed;
};

/// Run recovery over `data_dir` (which must exist). `filter_template` is an
/// empty counting filter with the configured geometry; recovery clones it
/// for rebuilds and rejects checkpointed filters whose geometry differs.
Result<RecoveredState> RecoverState(const std::string& data_dir,
                                    const CountingBloomFilter& filter_template);

}  // namespace ghba
