// Client-side two-phase-commit driver over an abstract transport.
//
// The driver owns the message choreography of a namespace transaction —
// who gets prepared, decided, committed, in what order — while the
// transport owns how a message reaches a server. There is one wire
// transport, rpc/wire_txn_transport.hpp, with one Call() per deployment:
// PrototypeCluster's (loopback sockets, in-process servers) and
// DaemonTxnTransport's (real mds_daemon processes that the txn_chaos tool
// can kill -9 between phases). Both run this file and encode every message
// in that one place, which is the point: the protocol proven crash-safe
// in-process is byte-for-byte the one the daemons speak.
//
// Protocol (presumed abort, client-driven — servers never dial out):
//
//   Prepare(C)        the first prepare goes to the coordinator C itself
//                     and opens the txn there: C counts a txn open while it
//                     holds one of its prepares naming C as coordinator
//   Prepare(P_i)      each participant validates, journals kTxnPrepare and
//                     takes an intent lock; a remove-prepare's vote carries
//                     the file's metadata so a rename needs no read RPC
//   Decide(C, commit) THE commit point: C journals kTxnDecision, and
//                     accepts a commit only while the txn is open. Only
//                     after this returns is the operation acked.
//   Commit(P_i)       each participant applies + closes in one WAL frame
//
// A rename is Prepare(src) -> Prepare(dst) -> Decide -> Commit(dst) ->
// Commit(src), coordinated by src's home: five messages, five appends.
// CreateExclusive is Prepare -> Decide -> Commit on the path's home.
//
// Any prepare refusal flips the txn to Decide(C, abort) + best-effort
// Abort(P_i). A crash after Decide leaves participants in doubt; recovery
// resolution (ResolveInDoubt) re-drives the closing messages from the
// coordinator's answer to kTxnResolve, and only from it: a coordinator
// that does not answer leaves its ops in doubt, since a down server still
// has its journal. A resolver that finds a txn open on its coordinator
// fences it with Decide(abort) first.
//
// Crash/halt instrumentation: after every message the driver calls the
// `after_step` hook with the phase, the message's position k among that
// phase's messages in this drive (the k of crash point txn.<phase>.<k>),
// and the server that just processed it. A false return halts the driver
// mid-protocol — exactly a client dying at that boundary — and the hook
// itself may crash the target server first. Both faults at every boundary
// are what the phase-matrix tests sweep.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "storage/txn_state.hpp"

namespace ghba {

/// Which protocol message just completed (hook tag; ArmCrashPoint tags are
/// built from these names — see TxnPhaseName).
enum class TxnPhase : std::uint8_t {
  kPrepare = 0,
  kDecide = 1,
  kCommit = 2,
  kAbort = 3,
};

constexpr const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kPrepare: return "prepare";
    case TxnPhase::kDecide: return "decide";
    case TxnPhase::kCommit: return "commit";
    case TxnPhase::kAbort: return "abort";
  }
  return "unknown";
}

/// How a transaction message reaches a server. Implementations return
/// kUnavailable-style errors for dead/unreachable targets; the driver
/// translates those into abort or in-doubt per phase.
class TxnTransport {
 public:
  virtual ~TxnTransport() = default;

  /// Returns the prepared file's prior metadata for kRemove sub-ops
  /// (nullopt for kInsert). A non-OK status is a NO vote or a transport
  /// failure; either way the driver aborts. A refused prepare leaves
  /// nothing staged. The first prepare of a txn goes to its coordinator.
  virtual Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) = 0;
  virtual Status TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                           bool commit) = 0;
  virtual Status TxnCommit(MdsId participant, std::uint64_t txn_id,
                           const std::string& path) = 0;
  virtual Status TxnAbort(MdsId participant, std::uint64_t txn_id,
                          const std::string& path) = 0;

  // --- recovery resolution ---
  /// Every in-doubt prepare on `server` (its kTxnList).
  virtual Result<std::vector<TxnPendingOp>> TxnList(MdsId server) = 0;
  /// Ask `coordinator` for its verdict on `txn_id` (its kTxnResolve).
  virtual Result<TxnDecisionState> TxnQueryDecision(MdsId coordinator,
                                                    std::uint64_t txn_id) = 0;
};

/// Outcome of one Rename/CreateExclusive drive, beyond the Status: which
/// closing messages could not be delivered (they stay in doubt on their
/// participants until ResolveInDoubt runs).
struct TxnDriveStats {
  std::uint32_t messages = 0;        ///< RPCs issued by this drive
  std::uint32_t commits_pending = 0; ///< acked commit left undelivered
  bool halted = false;               ///< hook stopped the driver mid-flight
  /// Steps run per TxnPhase (index): the next one of a phase is its k.
  std::array<std::uint32_t, 4> steps{};
};

class TxnDriver {
 public:
  /// `after_step` may be null (no instrumentation). It runs after every
  /// successful message with that message's position `k` within its phase
  /// in this drive (0-based); returning false halts the drive at that
  /// boundary.
  using StepHook =
      std::function<bool(TxnPhase, std::uint32_t k, MdsId target)>;

  explicit TxnDriver(TxnTransport* transport, StepHook after_step = nullptr)
      : transport_(transport), after_step_(std::move(after_step)) {}

  /// Atomically move `src` (homed on `src_home`) to `dst` (homed on
  /// `dst_home`), coordinated by `src_home`. Returns Ok once the commit
  /// decision is durable on the coordinator — even if a closing commit
  /// could not be delivered (see `stats->commits_pending`). NotFound when
  /// src is absent, AlreadyExists when dst is taken; both abort cleanly.
  Status Rename(std::uint64_t txn_id, const std::string& src, MdsId src_home,
                const std::string& dst, MdsId dst_home,
                TxnDriveStats* stats = nullptr);

  /// Atomically create `path` on `home` (also the coordinator) with
  /// `metadata`, failing with AlreadyExists if present. Single-participant
  /// 2PC: prepare, decide, commit, all on one server.
  Status CreateExclusive(std::uint64_t txn_id, const std::string& path,
                         MdsId home, const FileMetadata& metadata,
                         TxnDriveStats* stats = nullptr);

  /// Resolve every in-doubt prepare on `server` by consulting each op's
  /// coordinator: committed rolls forward, aborted/unknown rolls back, an
  /// undecided txn is first force-aborted on the coordinator. Returns the
  /// number of ops still in doubt (coordinator down or unreachable, or a
  /// closing message failed); 0 means the server is clean.
  Result<std::uint64_t> ResolveInDoubt(MdsId server);

 private:
  /// Count the step in `stats->steps` and run the hook; false means halt.
  bool Step(TxnPhase phase, MdsId target, TxnDriveStats* stats);

  /// Decide(abort) + best-effort aborts to every prepared participant,
  /// then return `cause` (the original failure).
  Status AbortAll(std::uint64_t txn_id, MdsId coordinator,
                  const std::vector<std::pair<MdsId, std::string>>& prepared,
                  Status cause, TxnDriveStats* stats);

  TxnTransport* transport_;
  StepHook after_step_;
};

}  // namespace ghba
