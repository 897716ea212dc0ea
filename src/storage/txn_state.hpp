// Durable transaction state shared by the WAL replayer, the checkpointer
// and the server-side TxnManager.
//
// Two tables survive a crash:
//   * pending prepares (participant side): every kTxnPrepare whose
//     kTxnCommit/kTxnAbort has not been journaled yet. These are the
//     in-doubt ops a restart must re-lock and resolve.
//   * the coordinator decision table: kTxnDecision fixes a txn's verdict.
//     Under presumed abort the table may be pruned — a query for an
//     unknown txn answers "unknown", which resolves as aborted. An
//     undecided txn has no row: the coordinator counts it open while it
//     holds the txn's own prepare (one whose `coordinator` is itself),
//     and recovery re-seeds that prepare like any other, so "open"
//     survives a restart.
//
// Both are folded into checkpoints (v3 body section) because a checkpoint
// truncates the WAL records they came from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "mds/metadata.hpp"
#include "storage/wal.hpp"

namespace ghba {

/// One prepared-but-undecided participant op: exactly the payload of its
/// kTxnPrepare record. Nothing reads `participants`; it stays because the
/// WAL record and the checkpoint carry it.
struct TxnPendingOp {
  std::uint64_t txn_id = 0;
  TxnSubOp subop = TxnSubOp::kNone;
  std::string path;
  FileMetadata metadata;  ///< kInsert payload
  MdsId coordinator = kInvalidMds;
  std::vector<MdsId> participants;

  friend bool operator==(const TxnPendingOp&, const TxnPendingOp&) = default;
};

/// A coordinator's verdict on a txn as its kTxnResolve answers it, and so
/// as a resolver sees it. kUnknown means "no row here" — never began, or
/// pruned — and under presumed abort the resolver treats it exactly like
/// kAborted. kPending means the coordinator holds the txn open without a
/// decision; the resolver force-aborts it via kTxnDecide before releasing
/// participants.
enum class TxnDecisionState : std::uint8_t {
  kUnknown = 0,
  kPending = 1,
  kCommitted = 2,
  kAborted = 3,
};

/// Coordinator-side verdicts. The checkpoint codec accepts exactly these
/// two bytes (0 was the retired "begun" state).
enum class TxnCoordState : std::uint8_t {
  kCommitted = 1,  ///< kTxnDecision(commit) durable — the txn IS committed
  kAborted = 2,    ///< kTxnDecision(abort) durable
};

/// One coordinator decision-table row.
struct TxnCoordEntry {
  std::uint64_t txn_id = 0;
  TxnCoordState state = TxnCoordState::kAborted;

  friend bool operator==(const TxnCoordEntry&, const TxnCoordEntry&) = default;
};

/// The decision table keeps at most this many rows, pruned oldest-first.
/// Nothing keeps a commit row until the txn's participants have closed:
/// the driver acks once the decision is durable, so a participant still
/// in doubt after this many later decisions at its coordinator reads
/// "unknown" and aborts its half of an acked txn.
inline constexpr std::size_t kMaxTxnCoordEntries = 4096;

}  // namespace ghba
