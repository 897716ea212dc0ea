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

Status DaemonClient::Ping() {
  return StatusOf(Call(EncodeHeader(MsgType::kPing)));
}

Status DaemonClient::Insert(const std::string& path,
                            const FileMetadata& metadata) {
  return StatusOf(Call(EncodeInsert(path, metadata)));
}

Status DaemonClient::Unlink(const std::string& path) {
  return StatusOf(Call(EncodePathRequest(MsgType::kUnlink, path)));
}

Result<DaemonClient::VerifyResult> DaemonClient::Verify(
    const std::string& path) {
  auto local = PayloadOf(
      Call(EncodeProbeRequest(MsgType::kLookupLocal, path, /*lease=*/false)),
      DecodeLocalLookupResp);
  if (!local.ok()) return local.status();
  VerifyResult out;
  out.verdict = local->verdict;
  out.replica_hits = std::move(local->hits);
  out.lru_unique = local->lru_unique;
  out.lru_home = local->lru_home;
  return out;
}

Result<LeaseGrantResp> DaemonClient::RequestLease(const std::string& path) {
  return PayloadOf(Call(EncodePathRequest(MsgType::kLeaseGrant, path)),
                   DecodeLeaseGrantResp);
}

Result<StatsSnapshotResp> DaemonClient::Stats() {
  return PayloadOf(Call(EncodeHeader(MsgType::kStatsSnapshot)),
                   DecodeStatsSnapshotResp);
}

Result<std::uint32_t> DaemonClient::Version() {
  return PayloadOf(Call(EncodeHeader(MsgType::kVersion)), DecodeVersionResp);
}

Status DaemonClient::Shutdown() {
  return conn_.SendFrame(
      EncodeHeader(MsgType::kShutdown),
      Deadline::After(std::chrono::milliseconds(io_timeout_ms_)));
}

}  // namespace ghba
