#include "txn/txn_driver.hpp"

#include <iterator>
#include <utility>

namespace ghba {

bool TxnDriver::Step(TxnPhase phase, MdsId target, TxnDriveStats* stats) {
  // Count even without a hook, so position k never depends on one.
  const std::uint32_t k = stats->steps[static_cast<std::size_t>(phase)]++;
  if (!after_step_ || after_step_(phase, k, target)) return true;
  stats->halted = true;
  return false;
}

Status TxnDriver::AbortAll(
    std::uint64_t txn_id, MdsId coordinator,
    const std::vector<std::pair<MdsId, std::string>>& prepared, Status cause,
    TxnDriveStats* stats) {
  // The abort decision makes the outcome durable; the per-participant
  // aborts merely release intent locks early. Failures are fine — a
  // participant that misses its abort resolves via presumed abort.
  ++stats->messages;
  Status decide = transport_->TxnDecide(coordinator, txn_id, false);
  if (decide.ok() && !Step(TxnPhase::kDecide, coordinator, stats)) {
    return cause;
  }
  for (const auto& [participant, path] : prepared) {
    ++stats->messages;
    // Best-effort: the op aborts anyway once the participant resolves.
    (void)transport_->TxnAbort(participant, txn_id, path);
    if (!Step(TxnPhase::kAbort, participant, stats)) return cause;
  }
  return cause;
}

Status TxnDriver::Rename(std::uint64_t txn_id, const std::string& src,
                         MdsId src_home, const std::string& dst,
                         MdsId dst_home, TxnDriveStats* stats) {
  if (txn_id == 0) return Status::InvalidArgument("txn id 0 is reserved");
  if (src == dst) return Status::InvalidArgument("rename onto itself");
  TxnDriveStats local;
  if (stats == nullptr) stats = &local;
  const MdsId coordinator = src_home;
  std::vector<MdsId> participants{src_home};
  if (dst_home != src_home) participants.push_back(dst_home);

  std::vector<std::pair<MdsId, std::string>> prepared;

  // Prepare the remove first: it goes to the coordinator and opens the
  // txn there, and its vote carries src's metadata, which the insert
  // prepare needs. NotFound here IS the rename's NotFound.
  TxnPendingOp remove_op;
  remove_op.txn_id = txn_id;
  remove_op.subop = TxnSubOp::kRemove;
  remove_op.path = src;
  remove_op.coordinator = coordinator;
  remove_op.participants = participants;
  ++stats->messages;
  auto vote = transport_->TxnPrepare(src_home, remove_op);
  if (!vote.ok()) {
    return AbortAll(txn_id, coordinator, prepared, vote.status(), stats);
  }
  if (!vote->has_value()) {
    return AbortAll(txn_id, coordinator, prepared,
                    Status::Internal("remove vote carried no metadata"),
                    stats);
  }
  prepared.emplace_back(src_home, src);
  if (!Step(TxnPhase::kPrepare, src_home, stats)) {
    return Status::Unavailable("txn halted after src prepare");
  }

  TxnPendingOp insert_op;
  insert_op.txn_id = txn_id;
  insert_op.subop = TxnSubOp::kInsert;
  insert_op.path = dst;
  insert_op.metadata = **vote;
  insert_op.coordinator = coordinator;
  insert_op.participants = participants;
  ++stats->messages;
  if (auto ins = transport_->TxnPrepare(dst_home, insert_op); !ins.ok()) {
    return AbortAll(txn_id, coordinator, prepared, ins.status(), stats);
  }
  prepared.emplace_back(dst_home, dst);
  if (!Step(TxnPhase::kPrepare, dst_home, stats)) {
    return Status::Unavailable("txn halted after dst prepare");
  }

  // THE commit point. Failure to make the decision durable aborts; after
  // it returns, the rename is committed no matter what happens next.
  ++stats->messages;
  if (Status s = transport_->TxnDecide(coordinator, txn_id, true); !s.ok()) {
    return AbortAll(txn_id, coordinator, prepared, std::move(s), stats);
  }
  if (!Step(TxnPhase::kDecide, coordinator, stats)) {
    stats->commits_pending += 2;
    return Status::Ok();  // committed; closing messages owed to resolution
  }

  // Insert before remove: the transient double-presence window is benign
  // (both lookups succeed), a neither-present window would not be.
  const std::pair<MdsId, const std::string*> commits[] = {{dst_home, &dst},
                                                          {src_home, &src}};
  for (std::size_t i = 0; i < std::size(commits); ++i) {
    const auto [participant, path] = commits[i];
    ++stats->messages;
    if (Status s = transport_->TxnCommit(participant, txn_id, *path);
        !s.ok()) {
      ++stats->commits_pending;
      continue;  // already committed; resolution will close this op
    }
    if (!Step(TxnPhase::kCommit, participant, stats)) {
      // The commits after this one were never sent. Counted by position:
      // a same-server rename has dst_home == src_home.
      stats->commits_pending +=
          static_cast<std::uint32_t>(std::size(commits) - 1 - i);
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status TxnDriver::CreateExclusive(std::uint64_t txn_id,
                                  const std::string& path, MdsId home,
                                  const FileMetadata& metadata,
                                  TxnDriveStats* stats) {
  if (txn_id == 0) return Status::InvalidArgument("txn id 0 is reserved");
  TxnDriveStats local;
  if (stats == nullptr) stats = &local;
  TxnPendingOp op;
  op.txn_id = txn_id;
  op.subop = TxnSubOp::kInsert;
  op.path = path;
  op.metadata = metadata;
  op.coordinator = home;
  op.participants = {home};
  ++stats->messages;
  if (auto vote = transport_->TxnPrepare(home, op); !vote.ok()) {
    return AbortAll(txn_id, home, {}, vote.status(), stats);
  }
  if (!Step(TxnPhase::kPrepare, home, stats)) {
    return Status::Unavailable("txn halted after prepare");
  }

  ++stats->messages;
  if (Status s = transport_->TxnDecide(home, txn_id, true); !s.ok()) {
    return AbortAll(txn_id, home, {{home, path}}, std::move(s), stats);
  }
  if (!Step(TxnPhase::kDecide, home, stats)) {
    ++stats->commits_pending;
    return Status::Ok();
  }

  ++stats->messages;
  if (Status s = transport_->TxnCommit(home, txn_id, path); !s.ok()) {
    ++stats->commits_pending;
    return Status::Ok();  // committed; resolution closes it
  }
  (void)Step(TxnPhase::kCommit, home, stats);  // drive is complete either way
  return Status::Ok();
}

Result<std::uint64_t> TxnDriver::ResolveInDoubt(MdsId server) {
  auto pending = transport_->TxnList(server);
  if (!pending.ok()) return pending.status();

  std::uint64_t unresolved = 0;
  for (const TxnPendingOp& op : *pending) {
    // Only the coordinator's journal knows the verdict. A coordinator that
    // does not answer may be down, but its journal is not gone: the op
    // stays in doubt until it answers again.
    auto res = transport_->TxnQueryDecision(op.coordinator, op.txn_id);
    if (!res.ok()) {
      ++unresolved;
      continue;
    }
    TxnDecisionState verdict = *res;

    if (verdict == TxnDecisionState::kPending) {
      // Open but undecided: no client is still driving this txn (we are
      // the recovery path), so fix the verdict to abort first.
      if (Status s = transport_->TxnDecide(op.coordinator, op.txn_id, false);
          !s.ok()) {
        ++unresolved;
        continue;
      }
      verdict = TxnDecisionState::kAborted;
    }

    Status close = verdict == TxnDecisionState::kCommitted
                       ? transport_->TxnCommit(server, op.txn_id, op.path)
                       : transport_->TxnAbort(server, op.txn_id, op.path);
    if (!close.ok()) ++unresolved;
  }
  return unresolved;
}

}  // namespace ghba
