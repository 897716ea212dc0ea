// DaemonClient — a thin, typed session with ONE running mds_daemon.
//
// Where ghba::Client drives the whole multi-server lookup cascade,
// DaemonClient speaks to a single server over a single connection: it is
// the library behind the ghba_client tool (and anything else that pokes a
// daemon by port), replacing hand-rolled EncodeHeader/OpenEnvelope code at
// every call site with typed Result<T> methods. No retries, no health
// tracking — a tool talking to one known port wants the first error, not
// a fail-over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mds/metadata.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

namespace ghba {

class DaemonClient {
 public:
  /// Connect to a daemon on `port` (loopback). Every subsequent call uses
  /// `io_timeout_ms` as its per-exchange deadline.
  static Result<DaemonClient> Connect(std::uint16_t port,
                                      std::uint32_t io_timeout_ms = 2000);

  DaemonClient(DaemonClient&&) = default;
  DaemonClient& operator=(DaemonClient&&) = default;

  /// What `Verify` learned from the daemon's probe reply: its own verdict
  /// on its store and the routing picture around the path.
  struct VerifyResult {
    /// The daemon's answer for its own store (kShed: hot path on an
    /// overloaded shard, no answer).
    SelfVerdict verdict = SelfVerdict::kAbsent;
    /// Replica owners whose filters (L2 segment array) match the path on
    /// this daemon, its own id included when its local filter does —
    /// where a cascade would route before verifying.
    std::vector<MdsId> replica_hits;
    /// The daemon's L1 verdict, when its LRU array answers uniquely.
    MdsId lru_home = kInvalidMds;
    bool lru_unique = false;
  };

  Status Ping();
  Status Insert(const std::string& path, const FileMetadata& metadata);
  Status Unlink(const std::string& path);

  /// Exact membership plus the routing picture in one v6 kLookupLocal
  /// probe (no lease): the daemon answers for its own store alongside its
  /// L1/L2 hits.
  Result<VerifyResult> Verify(const std::string& path);

  /// Lease/invalidate pair, exposed for scripting coherence experiments.
  Result<LeaseGrantResp> RequestLease(const std::string& path);
  Status Invalidate(const std::string& path);

  Result<StatsResp> Stats();

  // --- distributed transactions (v5) ---
  // Typed wrappers over the kTxn* family, one per wire message. The
  // txn_chaos tool builds its TxnTransport from these: the same TxnDriver
  // choreography proven in-process then runs against real daemons it can
  // kill -9 between phases.
  Status TxnBegin(std::uint64_t txn_id,
                  const std::vector<MdsId>& participants);
  Result<TxnPrepareResp> TxnPrepare(const TxnPrepareReq& req);
  Status TxnDecide(std::uint64_t txn_id, bool commit);
  Status TxnCommit(std::uint64_t txn_id, const std::string& path);
  Status TxnAbort(std::uint64_t txn_id, const std::string& path);
  Result<TxnDecisionState> TxnResolve(std::uint64_t txn_id);
  Result<TxnListResp> TxnList();

  /// Protocol version the daemon reports (kVersion).
  Result<std::uint32_t> Version();

  /// Fire-and-forget kShutdown.
  Status Shutdown();

 private:
  DaemonClient(TcpConnection conn, std::uint32_t io_timeout_ms)
      : conn_(std::move(conn)), io_timeout_ms_(io_timeout_ms) {}

  /// One request/response exchange with the per-call deadline.
  Result<std::vector<std::uint8_t>> Call(const std::vector<std::uint8_t>& req);
  /// Exchange + envelope open for calls whose payload is just a Status.
  Status StatusCall(const std::vector<std::uint8_t>& req);

  TcpConnection conn_;
  std::uint32_t io_timeout_ms_;
};

}  // namespace ghba
