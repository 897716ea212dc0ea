#include "client/daemon_client.hpp"

#include <chrono>

namespace ghba {

Result<DaemonClient> DaemonClient::Connect(std::uint16_t port,
                                           std::uint32_t io_timeout_ms) {
  auto conn = TcpConnection::Connect(
      port, Deadline::After(std::chrono::milliseconds(io_timeout_ms)));
  if (!conn.ok()) return conn.status();
  return DaemonClient(std::move(*conn), io_timeout_ms);
}

Result<std::vector<std::uint8_t>> DaemonClient::Call(
    const std::vector<std::uint8_t>& req) {
  const auto deadline =
      Deadline::After(std::chrono::milliseconds(io_timeout_ms_));
  if (Status s = conn_.SendFrame(req, deadline); !s.ok()) return s;
  return conn_.RecvFrame(deadline);
}

Status DaemonClient::StatusCall(const std::vector<std::uint8_t>& req) {
  auto resp = Call(req);
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

Status DaemonClient::Ping() { return StatusCall(EncodeHeader(MsgType::kPing)); }

Status DaemonClient::Insert(const std::string& path,
                            const FileMetadata& metadata) {
  return StatusCall(EncodeInsert(path, metadata));
}

Status DaemonClient::Unlink(const std::string& path) {
  return StatusCall(EncodePathRequest(MsgType::kUnlink, path));
}

Result<DaemonClient::VerifyResult> DaemonClient::Verify(
    const std::string& path) {
  auto resp =
      Call(EncodeProbeRequest(MsgType::kLookupLocal, path, /*lease=*/false));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  auto local = DecodeLocalLookupResp(in);
  if (!local.ok()) return local.status();
  VerifyResult out;
  out.verdict = local->verdict;
  out.replica_hits = std::move(local->hits);
  out.lru_unique = local->lru_unique;
  out.lru_home = local->lru_home;
  return out;
}

Result<LeaseGrantResp> DaemonClient::RequestLease(const std::string& path) {
  auto resp = Call(EncodePathRequest(MsgType::kLeaseGrant, path));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeLeaseGrantResp(in);
}

Status DaemonClient::Invalidate(const std::string& path) {
  return StatusCall(EncodePathRequest(MsgType::kInvalidate, path));
}

Result<StatsResp> DaemonClient::Stats() {
  auto resp = Call(EncodeHeader(MsgType::kGetStats));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeStatsResp(in);
}

Status DaemonClient::TxnBegin(std::uint64_t txn_id,
                              const std::vector<MdsId>& participants) {
  TxnBeginReq req;
  req.txn_id = txn_id;
  req.participants = participants;
  return StatusCall(EncodeTxnBegin(req));
}

Result<TxnPrepareResp> DaemonClient::TxnPrepare(const TxnPrepareReq& req) {
  auto resp = Call(EncodeTxnPrepare(req));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;  // a NO vote is a plain status
  return DecodeTxnPrepareResp(in);
}

Status DaemonClient::TxnDecide(std::uint64_t txn_id, bool commit) {
  TxnDecideReq req;
  req.txn_id = txn_id;
  req.commit = commit;
  return StatusCall(EncodeTxnDecide(req));
}

Status DaemonClient::TxnCommit(std::uint64_t txn_id, const std::string& path) {
  TxnFinishReq req;
  req.path = path;
  req.txn_id = txn_id;
  return StatusCall(EncodeTxnFinish(MsgType::kTxnCommit, req));
}

Status DaemonClient::TxnAbort(std::uint64_t txn_id, const std::string& path) {
  TxnFinishReq req;
  req.path = path;
  req.txn_id = txn_id;
  return StatusCall(EncodeTxnFinish(MsgType::kTxnAbort, req));
}

Result<TxnDecisionState> DaemonClient::TxnResolve(std::uint64_t txn_id) {
  auto resp = Call(EncodeTxnResolve(txn_id));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  auto decoded = DecodeTxnResolveResp(in);
  if (!decoded.ok()) return decoded.status();
  return decoded->state;
}

Result<TxnListResp> DaemonClient::TxnList() {
  auto resp = Call(EncodeHeader(MsgType::kTxnList));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeTxnListResp(in);
}

Result<std::uint32_t> DaemonClient::Version() {
  auto resp = Call(EncodeHeader(MsgType::kVersion));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeVersionResp(in);
}

Status DaemonClient::Shutdown() {
  return conn_.SendFrame(
      EncodeHeader(MsgType::kShutdown),
      Deadline::After(std::chrono::milliseconds(io_timeout_ms_)));
}

}  // namespace ghba
