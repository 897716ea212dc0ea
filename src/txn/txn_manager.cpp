#include "txn/txn_manager.hpp"

#include <algorithm>

namespace ghba {

void TxnManager::Seed(std::vector<TxnPendingOp> pending,
                      std::vector<TxnCoordEntry> decisions,
                      const std::vector<std::pair<std::uint64_t, bool>>& closed) {
  MutexLock lock(&mu_);
  pending_.clear();
  locks_.clear();
  for (TxnPendingOp& op : pending) AddPendingLocked(std::move(op));
  decisions_.assign(decisions.begin(), decisions.end());
  closed_.clear();
  closed_order_.clear();
  for (const auto& [txn_id, committed] : closed) {
    RecordClosedLocked(txn_id, committed);
  }
}

bool TxnManager::IsLockedByOtherLocked(const std::string& path,
                                       std::uint64_t txn_id) const {
  auto it = locks_.find(path);
  return it != locks_.end() && it->second != txn_id;
}

void TxnManager::AddPendingLocked(TxnPendingOp op) {
  std::erase_if(pending_, [&op](const TxnPendingOp& p) {
    return p.txn_id == op.txn_id && p.path == op.path;
  });
  locks_[op.path] = op.txn_id;
  pending_.push_back(std::move(op));
}

const TxnPendingOp* TxnManager::FindPendingLocked(
    std::uint64_t txn_id, const std::string& path) const {
  for (const TxnPendingOp& op : pending_) {
    if (op.txn_id == txn_id && op.path == path) return &op;
  }
  return nullptr;
}

void TxnManager::ClosePendingLocked(std::uint64_t txn_id,
                                    const std::string& path, bool committed) {
  const auto removed = std::erase_if(pending_, [&](const TxnPendingOp& p) {
    return p.txn_id == txn_id && p.path == path;
  });
  if (removed > 0) {
    auto it = locks_.find(path);
    if (it != locks_.end() && it->second == txn_id) locks_.erase(it);
  }
  RecordClosedLocked(txn_id, committed);
}

std::optional<bool> TxnManager::ClosedOutcomeLocked(
    std::uint64_t txn_id) const {
  auto it = closed_.find(txn_id);
  if (it == closed_.end()) return std::nullopt;
  return it->second;
}

std::vector<TxnPendingOp> TxnManager::PendingLocked() const {
  return pending_;
}

bool TxnManager::IsOpenLocked(std::uint64_t txn_id, MdsId self) const {
  if (QueryLocked(txn_id).has_value()) return false;
  return std::any_of(pending_.begin(), pending_.end(),
                     [&](const TxnPendingOp& op) {
                       return op.txn_id == txn_id && op.coordinator == self;
                     });
}

void TxnManager::DecideLocked(std::uint64_t txn_id, bool commit) {
  const TxnCoordState state =
      commit ? TxnCoordState::kCommitted : TxnCoordState::kAborted;
  for (TxnCoordEntry& d : decisions_) {
    if (d.txn_id == txn_id) {
      d.state = state;
      return;
    }
  }
  decisions_.push_back(TxnCoordEntry{txn_id, state});
  if (decisions_.size() > kMaxTxnCoordEntries) decisions_.pop_front();
}

std::optional<TxnCoordState> TxnManager::QueryLocked(
    std::uint64_t txn_id) const {
  for (const TxnCoordEntry& d : decisions_) {
    if (d.txn_id == txn_id) return d.state;
  }
  return std::nullopt;
}

void TxnManager::RecordClosedLocked(std::uint64_t txn_id, bool committed) {
  auto [it, inserted] = closed_.try_emplace(txn_id, committed);
  if (!inserted) {
    // A rename closes two ops under one txn id; outcomes always agree
    // (both sides follow the same coordinator verdict), so keep the value.
    it->second = committed;
    return;
  }
  closed_order_.push_back(txn_id);
  if (closed_order_.size() > kMaxTxnClosedEntries) {
    closed_.erase(closed_order_.front());
    closed_order_.pop_front();
  }
}

}  // namespace ghba
