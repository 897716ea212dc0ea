// The one client side of the v5 transaction messages.
//
// WireTxnTransport is TxnDriver's transport over the wire. It holds the
// only client-side encoder and decoder of each kTxn* message (prepare and
// its vote, decide, commit and abort, list, resolve). How a frame reaches
// a server is the subclass's one Call(): PrototypeCluster's TxnBridge
// sends it through the orchestrator's Router under the cluster mutex, and
// DaemonTxnTransport through a Router over the ports of a forked
// mds_daemon fleet. The choreography proven in-process therefore
// sends the daemons the same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "storage/txn_state.hpp"
#include "txn/txn_driver.hpp"

namespace ghba {

class WireTxnTransport : public TxnTransport {
 public:
  Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) override;
  Status TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                   bool commit) override;
  Status TxnCommit(MdsId participant, std::uint64_t txn_id,
                   const std::string& path) override;
  Status TxnAbort(MdsId participant, std::uint64_t txn_id,
                  const std::string& path) override;
  Result<std::vector<TxnPendingOp>> TxnList(MdsId server) override;
  Result<TxnDecisionState> TxnQueryDecision(MdsId coordinator,
                                            std::uint64_t txn_id) override;

 protected:
  /// One request/response round trip with `server`. A transport failure
  /// (the server down or unreachable) is the error.
  virtual Result<std::vector<std::uint8_t>> Call(
      MdsId server, const std::vector<std::uint8_t>& frame) = 0;

  /// The kTxnPrepare frame for `op`.
  static std::vector<std::uint8_t> PrepareFrame(const TxnPendingOp& op);
  /// A kTxnPrepare reply as the driver's vote: a remove's carries the
  /// file's metadata, an insert's none. A NO vote (NotFound,
  /// AlreadyExists, intent-locked, ...) is the error.
  static Result<std::optional<FileMetadata>> VoteOf(
      const Result<std::vector<std::uint8_t>>& resp);
};

}  // namespace ghba
