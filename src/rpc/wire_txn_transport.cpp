#include "rpc/wire_txn_transport.hpp"

#include <utility>

#include "rpc/protocol.hpp"

namespace ghba {

namespace {
/// The kTxnCommit or kTxnAbort frame closing `path`'s op of `txn_id`.
std::vector<std::uint8_t> FinishFrame(MsgType type, std::uint64_t txn_id,
                                      const std::string& path) {
  TxnFinishReq req;
  req.path = path;
  req.txn_id = txn_id;
  return EncodeTxnFinish(type, req);
}
}  // namespace

std::vector<std::uint8_t> WireTxnTransport::PrepareFrame(
    const TxnPendingOp& op) {
  TxnPrepareReq req;
  req.path = op.path;
  req.txn_id = op.txn_id;
  req.coordinator = op.coordinator;
  req.subop = op.subop;
  req.participants = op.participants;
  req.metadata = op.metadata;
  return EncodeTxnPrepare(req);
}

Result<std::optional<FileMetadata>> WireTxnTransport::VoteOf(
    const Result<std::vector<std::uint8_t>>& resp) {
  auto vote = PayloadOf(resp, DecodeTxnPrepareResp);
  if (!vote.ok()) return vote.status();
  if (!vote->has_metadata) return std::optional<FileMetadata>();
  return std::optional<FileMetadata>(std::move(vote->metadata));
}

Result<std::optional<FileMetadata>> WireTxnTransport::TxnPrepare(
    MdsId participant, const TxnPendingOp& op) {
  return VoteOf(Call(participant, PrepareFrame(op)));
}

Status WireTxnTransport::TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                                   bool commit) {
  TxnDecideReq req;
  req.txn_id = txn_id;
  req.commit = commit;
  return StatusOf(Call(coordinator, EncodeTxnDecide(req)));
}

Status WireTxnTransport::TxnCommit(MdsId participant, std::uint64_t txn_id,
                                   const std::string& path) {
  return StatusOf(
      Call(participant, FinishFrame(MsgType::kTxnCommit, txn_id, path)));
}

Status WireTxnTransport::TxnAbort(MdsId participant, std::uint64_t txn_id,
                                  const std::string& path) {
  return StatusOf(
      Call(participant, FinishFrame(MsgType::kTxnAbort, txn_id, path)));
}

Result<std::vector<TxnPendingOp>> WireTxnTransport::TxnList(MdsId server) {
  auto list = PayloadOf(Call(server, EncodeHeader(MsgType::kTxnList)),
                        DecodeTxnListResp);
  if (!list.ok()) return list.status();
  std::vector<TxnPendingOp> ops;
  ops.reserve(list->entries.size());
  for (TxnListEntry& e : list->entries) {
    TxnPendingOp op;
    op.txn_id = e.txn_id;
    op.coordinator = e.coordinator;
    op.subop = e.subop;
    op.path = std::move(e.path);
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<TxnDecisionState> WireTxnTransport::TxnQueryDecision(
    MdsId coordinator, std::uint64_t txn_id) {
  auto decided = PayloadOf(Call(coordinator, EncodeTxnResolve(txn_id)),
                           DecodeTxnResolveResp);
  if (!decided.ok()) return decided.status();
  return decided->state;
}

}  // namespace ghba
