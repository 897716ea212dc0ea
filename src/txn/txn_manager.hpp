// Server-side two-phase-commit state: intent locks, pending prepares,
// the coordinator decision table and the closed-outcome history. A txn
// has no begin record: its coordinator counts it open while it holds the
// txn's own prepare and no verdict (IsOpenLocked).
//
// One TxnManager lives in each MdsServer, shared by every worker shard
// (txn requests are path-routed like plain mutations, but the txn tables
// are whole-server: a cross-MDS rename locks one path here and another on
// a different server entirely). All state sits under a single mutex at
// rank kServerTxn — deliberately ABOVE kServerWal, so a handler can check
// and mutate txn state and journal the transition through the storage
// engine inside one critical section:
//
//     MutexLock txn(&manager.mu());       // decide under the intent lock
//     ... manager.*Locked() checks ...
//     { MutexLock wal(&wal_mu_); engine->LogTxnPrepare(op); }  // 13 -> 12
//     manager.AddPendingLocked(op);       // state matches the journal
//
// The manager itself never journals: the server owns the apply->log->ack
// discipline (and its rollback), the manager owns only the tables. The
// split keeps the manager testable without a WAL and keeps exactly one
// component (StorageEngine) responsible for durability.
//
// Concurrency model (why a lock and not shard ownership): prepares for
// different paths land on different shard workers, but a single txn spans
// paths — and the "is this path intent-locked" check must be visible to
// every shard's plain-mutation handlers. A whole-server mutex is the
// simplest structure that makes prepare-vs-prepare and prepare-vs-mutation
// races impossible; txn traffic is rare next to lookups (which never take
// this lock), so contention is a non-issue.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/sync.hpp"
#include "storage/txn_state.hpp"

namespace ghba {

/// Closed-outcome history cap. Old entries age out FIFO; a commit/abort
/// retried after its entry aged out is indistinguishable from a brand-new
/// txn, which is safe: commit re-apply is idempotent (insert overwrites,
/// remove of a missing path is a no-op) and abort of nothing is Ok.
inline constexpr std::size_t kMaxTxnClosedEntries = 4096;

class TxnManager {
 public:
  TxnManager() = default;
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// The manager's lock, exposed so the server can hold it across the
  /// check-journal-mutate sequence (see file comment). Rank kServerTxn.
  Mutex& mu() GHBA_RETURN_CAPABILITY(mu_) { return mu_; }

  /// Seed from recovery: re-take the intent lock of every in-doubt prepare,
  /// restore the decision table, and replay the closed outcomes (in log
  /// order) into the idempotency history.
  void Seed(std::vector<TxnPendingOp> pending,
            std::vector<TxnCoordEntry> decisions,
            const std::vector<std::pair<std::uint64_t, bool>>& closed)
      GHBA_EXCLUDES(mu_);

  // --- participant side -------------------------------------------------

  /// Does `path` carry an intent lock from any txn other than `txn_id`?
  /// Plain mutation handlers call this with txn_id 0 (matches no txn).
  bool IsLockedByOtherLocked(const std::string& path,
                             std::uint64_t txn_id) const GHBA_REQUIRES(mu_);

  /// Record a journaled prepare: index the op and take the path's intent
  /// lock. A re-prepare of the same (txn, path) replaces the old op.
  void AddPendingLocked(TxnPendingOp op) GHBA_REQUIRES(mu_);

  /// The pending op for (txn_id, path), if any.
  const TxnPendingOp* FindPendingLocked(std::uint64_t txn_id,
                                        const std::string& path) const
      GHBA_REQUIRES(mu_);

  /// Drop the pending op and release its intent lock, recording the closed
  /// outcome for idempotent retries. No-op if nothing is pending.
  void ClosePendingLocked(std::uint64_t txn_id, const std::string& path,
                          bool committed) GHBA_REQUIRES(mu_);

  /// The recorded outcome of a closed txn, if still in the history.
  std::optional<bool> ClosedOutcomeLocked(std::uint64_t txn_id) const
      GHBA_REQUIRES(mu_);

  /// Every pending (in-doubt) op, for kTxnList / recovery resolution.
  std::vector<TxnPendingOp> PendingLocked() const GHBA_REQUIRES(mu_);

  /// Convenience for callers outside a txn critical section.
  bool IsLocked(const std::string& path) GHBA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return IsLockedByOtherLocked(path, 0);
  }
  std::vector<TxnPendingOp> Pending() GHBA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return PendingLocked();
  }

  // --- coordinator side -------------------------------------------------

  /// Is `txn_id` open on its coordinator `self`: undecided here, with one
  /// of its prepares pending whose coordinator is `self`? The coordinator
  /// is always the server of a txn's first prepare, so the txn is open from
  /// that prepare until its verdict is journaled. No begin record is
  /// needed: recovery re-seeds the pending prepares, so "open" survives a
  /// restart. kTxnResolve answers kPending for an open txn, and a commit
  /// decision is accepted only for one.
  bool IsOpenLocked(std::uint64_t txn_id, MdsId self) const
      GHBA_REQUIRES(mu_);

  /// Record a journaled decision (idempotent; a repeat must agree — the
  /// caller rejects flips before journaling).
  void DecideLocked(std::uint64_t txn_id, bool commit) GHBA_REQUIRES(mu_);

  /// The decision-table state for `txn_id`; nullopt when unknown (which a
  /// resolver must read as aborted, per presumed abort).
  std::optional<TxnCoordState> QueryLocked(std::uint64_t txn_id) const
      GHBA_REQUIRES(mu_);

 private:
  void RecordClosedLocked(std::uint64_t txn_id, bool committed)
      GHBA_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kServerTxn};
  /// Pending prepares in arrival order (kTxnList reports them in order; the
  /// list is tiny — one per in-flight txn op on this server).
  std::vector<TxnPendingOp> pending_ GHBA_GUARDED_BY(mu_);
  /// path -> txn_id holding its intent lock. Derived from pending_, kept
  /// alongside so the hot "is this path locked" check is one hash probe.
  std::unordered_map<std::string, std::uint64_t> locks_ GHBA_GUARDED_BY(mu_);
  /// Coordinator decision table, pruned FIFO at kMaxTxnCoordEntries (see
  /// txn_state.hpp for what pruning a commit row risks).
  std::deque<TxnCoordEntry> decisions_ GHBA_GUARDED_BY(mu_);
  /// Closed participant outcomes (txn_id -> committed) with FIFO aging.
  std::unordered_map<std::uint64_t, bool> closed_ GHBA_GUARDED_BY(mu_);
  std::deque<std::uint64_t> closed_order_ GHBA_GUARDED_BY(mu_);
};

}  // namespace ghba
