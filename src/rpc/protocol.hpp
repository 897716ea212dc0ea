// Wire protocol of the loopback prototype.
//
// Every frame is [u16 type][payload]; the TCP layer adds the length prefix.
// Requests and responses share the framing. Connections are pipelined: a
// client may have any number of requests in flight, and the server answers
// in request order (one-way messages simply produce no response frame; see
// docs/PROTOCOL.md "Pipelining"). kBatch additionally packs many
// request/response sub-frames into one TCP frame with a single CRC. All
// multi-byte integers little-endian via ByteWriter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_filter_array.hpp"
#include "common/bytes.hpp"
#include "common/metrics_registry.hpp"
#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "storage/wal.hpp"  // TxnSubOp: wire and WAL share the sub-op enum

namespace ghba {

enum class MsgType : std::uint16_t {
  // client/coordinator -> MDS
  kLookupLocal = 1,   ///< L1+L2 + self-answer on this MDS -> LocalLookupResp
  kGroupProbe = 2,    ///< segment probe + self-answer -> LocalLookupResp
  kGlobalProbe = 3,   ///< authoritative local check (filter + store) -> Bool
  kVerify = 4,        ///< exact store membership -> Bool
  kTouchLru = 5,      ///< teach the MDS's L1 a (path -> home); no response
  kInsert = 6,        ///< create file metadata here -> StatusResp
  kUnlink = 7,        ///< remove file metadata here -> StatusResp
  kGetFilter = 8,     ///< snapshot this MDS's local filter -> Filter
  kReplicaInstall = 9,   ///< add/refresh a replica in the segment array
  kReplicaDrop = 10,     ///< remove a replica from the segment array
  kReplicaFetch = 11,    ///< read a replica back out (migration) -> Filter
  kGetStats = 12,     ///< message/file counters -> StatsResp
  kPing = 13,         ///< liveness -> StatusResp
  kShutdown = 14,     ///< stop the server loop; no response
  kExportFiles = 15,  ///< drain all (path, metadata) pairs -> FileListResp
  kStatsSnapshot = 16,  ///< full metrics snapshot -> StatsSnapshotResp
  kReportOutcome = 17,  ///< client reports a finished lookup; no response
  kRecoveryInfo = 18,   ///< what recovery found at startup -> RecoveryInfoResp
  kVersion = 19,        ///< protocol version handshake -> u32 version
  kBatch = 20,          ///< many request/response sub-frames, one CRC
  // 21 and 22 carried the v3-v6 membership push; retired, never reused.
  kLeaseGrant = 23,   ///< verify + lease on this MDS -> LeaseGrantResp
  kInvalidate = 24,   ///< revoke any lease/L1 entry for a path -> StatusResp
  // Distributed-transaction messages (v5, two-phase commit).
  kTxnBegin = 25,    ///< coordinator: open a decision record -> StatusResp
  kTxnPrepare = 26,  ///< participant: journal intent + lock -> TxnPrepareResp
  kTxnDecide = 27,   ///< coordinator: durably fix the verdict -> StatusResp
  kTxnCommit = 28,   ///< participant: apply + close prepare -> StatusResp
  kTxnAbort = 29,    ///< participant: close prepare, no apply -> StatusResp
  kTxnResolve = 30,  ///< query a txn's outcome -> TxnResolveResp
  kTxnList = 31,     ///< enumerate in-doubt prepares -> TxnListResp
};

/// Protocol revision this build speaks. v2 added kVersion and kBatch; v3
/// added a server-held cluster view (types 21/22 and an epoch/members tail
/// on RecoveryInfoResp); v4 adds the client-cache coherence pair
/// (kLeaseGrant, kInvalidate) and the kRetryAfter shed status; v5 adds the
/// distributed-transaction family (kTxnBegin .. kTxnList) behind
/// Client::Rename / CreateExclusive; v6 makes every server asked about a
/// path answer for its own store in the same reply: probes carry a lease
/// flag, LocalLookupResp carries the responder's verdict and lease TTL, and
/// kLeaseGrant's reply tells "stored, no lease" apart from "not stored", so
/// it doubles as a verify. v7 deletes the server-held cluster view: types
/// 21/22 are retired and RecoveryInfoResp loses its epoch/members tail.
/// Every binary is built from one tree, so peers do not negotiate; kVersion
/// only reports this number to operators.
inline constexpr std::uint32_t kProtocolVersion = 7;

/// Upper bound on sub-frames per kBatch frame: enough for any realistic
/// pipeline depth, small enough that a mangled count cannot make the server
/// queue unbounded work from one frame.
inline constexpr std::uint64_t kMaxBatchFrames = 4096;

/// True when `type` may ride inside a kBatch frame: request/response
/// messages only. One-ways (kTouchLru, kReportOutcome) would leave a batch
/// slot forever unfilled, kShutdown kills the server mid-batch, nested
/// kBatch frames would let one frame amplify itself, and kExportFiles is a
/// whole-server drain that cannot run on a single shard.
bool BatchableType(MsgType type);

/// What a server says about a path in its own store (v6 self-answer).
enum class SelfVerdict : std::uint8_t {
  kAbsent = 0,  ///< not stored here (exact: the local filter has no false
                ///< negatives, and a filter hit is checked in the store)
  kHeld = 1,    ///< stored here
  kShed = 2,    ///< hot path on an overloaded shard: no answer, ask again
};

/// Local lookup outcome shipped back from kLookupLocal / kGroupProbe.
struct LocalLookupResp {
  // Every filter (replica or own) that answered positive.
  std::vector<MdsId> hits;
  // For kLookupLocal only: L1 produced a unique hit on this home.
  bool lru_unique = false;
  MdsId lru_home = kInvalidMds;
  // The responder's own verdict (v6) and, when the request asked for a
  // lease and the path is held, the lease it recorded (0 = none).
  SelfVerdict verdict = SelfVerdict::kAbsent;
  std::uint32_t lease_ttl_ms = 0;

  friend bool operator==(const LocalLookupResp&,
                         const LocalLookupResp&) = default;
};

struct StatsResp {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t files = 0;
  std::uint64_t replicas = 0;
};

/// Full per-MDS observability export (kStatsSnapshot). Fixed header fields
/// describe the server itself; `metrics` carries every named counter and
/// histogram from the server's MetricsRegistry (per-level hit counts fed by
/// kReportOutcome, serve-side latencies, ...). The schema is open-ended on
/// purpose: new named metrics need no protocol change.
struct StatsSnapshotResp {
  std::uint32_t mds_id = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t files = 0;
  std::uint64_t replicas = 0;
  /// Live analog of the simulator's LookupStateBytes: local filter +
  /// segment replica array + LRU array resident bytes.
  std::uint64_t lookup_state_bytes = 0;
  MetricsSnapshot metrics;
};

/// Client -> entry-MDS outcome report (kReportOutcome, one-way). The entry
/// server folds it into its registry so per-level hit counts accumulate
/// server-side and kStatsSnapshot can reproduce Fig. 13 from a live cluster.
struct OutcomeReport {
  std::uint8_t level = 0;  ///< 1..4, as in LookupTrace
  bool found = false;
  bool false_route = false;
  std::uint64_t elapsed_ns = 0;  ///< client-measured end-to-end
  std::uint32_t peers_contacted = 0;
  std::uint32_t retries = 0;
};

/// What the durable engine recovered at startup (kRecoveryInfo). A server
/// running without --data-dir answers with durable=false and zeros.
struct RecoveryInfoResp {
  bool durable = false;  ///< storage engine active on this server
  std::uint64_t files = 0;  ///< resident records right after recovery
  std::uint64_t wal_seq = 0;  ///< last WAL sequence recovered
  std::uint64_t replay_records = 0;  ///< records replayed beyond checkpoint
  bool torn_tail = false;  ///< WAL ended in a torn/corrupt frame
  bool filter_rebuilt = false;  ///< snapshot filter unusable, rebuilt
  bool filter_matched = true;  ///< replayed filter == rebuilt filter
  /// In-doubt transaction prepares recovery surfaced (v5): ops holding
  /// intent locks until resolution queries their coordinators.
  std::uint64_t txn_in_doubt = 0;

  friend bool operator==(const RecoveryInfoResp&,
                         const RecoveryInfoResp&) = default;
};

/// A server's answer to kLeaseGrant (v4; v6 semantics). `held` is the
/// exact store membership, so the reply stands in for a kVerify. A lease
/// is recorded only for a held path: `ttl_ms` > 0 means the client may
/// serve `home` from cache until the lease expires or the routing epoch
/// moves; held with ttl_ms 0 means "stored, no lease" (config
/// `lease_ttl_ms` = 0). Not held means "not here", which the client must
/// treat as a cache miss, never a negative for the cluster.
struct LeaseGrantResp {
  bool held = false;
  std::uint32_t ttl_ms = 0;
  MdsId home = kInvalidMds;  ///< the answering server's id when held

  friend bool operator==(const LeaseGrantResp&,
                         const LeaseGrantResp&) = default;
};

// --- distributed transactions (v5) ---

/// Coordinator -> its own log: open the decision record (kTxnBegin).
struct TxnBeginReq {
  std::uint64_t txn_id = 0;
  std::vector<MdsId> participants;

  friend bool operator==(const TxnBeginReq&, const TxnBeginReq&) = default;
};

/// Driver -> participant: journal the prepared sub-op and take the per-path
/// intent lock (kTxnPrepare). Path rides first so shard routing shares the
/// generic "string after type" parse. `metadata` is meaningful only for
/// TxnSubOp::kInsert.
struct TxnPrepareReq {
  std::string path;
  std::uint64_t txn_id = 0;
  MdsId coordinator = kInvalidMds;
  TxnSubOp subop = TxnSubOp::kNone;
  std::vector<MdsId> participants;
  FileMetadata metadata;

  friend bool operator==(const TxnPrepareReq&, const TxnPrepareReq&) = default;
};

/// Participant's yes-vote payload. A kRemove prepare returns the metadata
/// the commit will erase, so a rename driver never needs a separate read
/// RPC to re-home the file.
struct TxnPrepareResp {
  bool has_metadata = false;
  FileMetadata metadata;

  friend bool operator==(const TxnPrepareResp&,
                         const TxnPrepareResp&) = default;
};

/// Driver -> coordinator: durably fix the verdict (kTxnDecide). Once the
/// coordinator acks a commit=true decide, the transaction IS committed.
struct TxnDecideReq {
  std::uint64_t txn_id = 0;
  bool commit = false;

  friend bool operator==(const TxnDecideReq&, const TxnDecideReq&) = default;
};

/// Driver -> participant: close a prepared op (kTxnCommit / kTxnAbort).
struct TxnFinishReq {
  std::string path;
  std::uint64_t txn_id = 0;

  friend bool operator==(const TxnFinishReq&, const TxnFinishReq&) = default;
};

/// What a kTxnResolve query learned about a transaction's outcome.
/// kUnknown from a coordinator means "never began here" — under presumed
/// abort the resolver treats it exactly like kAborted. kPending means the
/// coordinator began the txn but never journaled a decision; the resolver
/// force-aborts it via kTxnDecide before releasing participants.
enum class TxnDecisionState : std::uint8_t {
  kUnknown = 0,
  kPending = 1,
  kCommitted = 2,
  kAborted = 3,
};

struct TxnResolveResp {
  TxnDecisionState state = TxnDecisionState::kUnknown;

  friend bool operator==(const TxnResolveResp&,
                         const TxnResolveResp&) = default;
};

/// One in-doubt prepared op (kTxnList). Metadata stays server-side: commit
/// replays from the participant's own journaled prepare.
struct TxnListEntry {
  std::uint64_t txn_id = 0;
  MdsId coordinator = kInvalidMds;
  TxnSubOp subop = TxnSubOp::kNone;
  std::string path;

  friend bool operator==(const TxnListEntry&, const TxnListEntry&) = default;
};

struct TxnListResp {
  std::vector<TxnListEntry> entries;

  friend bool operator==(const TxnListResp&, const TxnListResp&) = default;
};

// --- encode helpers (client side) ---
std::vector<std::uint8_t> EncodeHeader(MsgType type);
std::vector<std::uint8_t> EncodePathRequest(MsgType type,
                                            const std::string& path);
/// kLookupLocal / kGroupProbe request (v6): the path plus a lease flag
/// asking the responder to record a lease if it holds the path.
std::vector<std::uint8_t> EncodeProbeRequest(MsgType type,
                                             const std::string& path,
                                             bool lease);
std::vector<std::uint8_t> EncodeTouch(const std::string& path, MdsId home);
std::vector<std::uint8_t> EncodeInsert(const std::string& path,
                                       const FileMetadata& metadata);
std::vector<std::uint8_t> EncodeReplicaInstall(MdsId owner,
                                               const BloomFilter& filter);
std::vector<std::uint8_t> EncodeReplicaDrop(MdsId owner);
std::vector<std::uint8_t> EncodeReplicaFetch(MdsId owner);
std::vector<std::uint8_t> EncodeOutcomeReport(const OutcomeReport& report);

/// Server-side decode of a probe request body (after the type).
struct ProbeRequest {
  std::string path;
  bool lease = false;
};
Result<ProbeRequest> DecodeProbeRequest(ByteReader& in);

/// Batched writes on the wire: many request sub-frames share one TCP frame
/// and one CRC. Payload: [varint n][varint len, bytes]*n.
std::vector<std::uint8_t> EncodeBatch(
    const std::vector<std::vector<std::uint8_t>>& subs);

/// Server-side decode of a kBatch request body. Validates the count and
/// every length against the remaining frame bytes, and rejects sub-frames
/// whose leading type is not BatchableType.
Result<std::vector<std::vector<std::uint8_t>>> DecodeBatchRequest(
    ByteReader& in);

/// Server-side decode of a kReportOutcome request body.
Result<OutcomeReport> DecodeOutcomeReport(ByteReader& in);

// --- transaction requests (v5) ---
std::vector<std::uint8_t> EncodeTxnBegin(const TxnBeginReq& req);
std::vector<std::uint8_t> EncodeTxnPrepare(const TxnPrepareReq& req);
std::vector<std::uint8_t> EncodeTxnDecide(const TxnDecideReq& req);
std::vector<std::uint8_t> EncodeTxnFinish(MsgType type,
                                          const TxnFinishReq& req);
std::vector<std::uint8_t> EncodeTxnResolve(std::uint64_t txn_id);

Result<TxnBeginReq> DecodeTxnBegin(ByteReader& in);
Result<TxnPrepareReq> DecodeTxnPrepare(ByteReader& in);
Result<TxnDecideReq> DecodeTxnDecide(ByteReader& in);
Result<TxnFinishReq> DecodeTxnFinish(ByteReader& in);
Result<std::uint64_t> DecodeTxnResolve(ByteReader& in);

/// Exported file set (graceful decommissioning).
struct FileListResp {
  std::vector<std::pair<std::string, FileMetadata>> files;
};

// --- response encoders (server side) ---
std::vector<std::uint8_t> EncodeFileListResp(const FileListResp& resp);
std::vector<std::uint8_t> EncodeStatusResp(const Status& status);
std::vector<std::uint8_t> EncodeBoolResp(bool value);
std::vector<std::uint8_t> EncodeLocalLookupResp(const LocalLookupResp& resp);
std::vector<std::uint8_t> EncodeFilterResp(const BloomFilter& filter);
std::vector<std::uint8_t> EncodeStatsResp(const StatsResp& stats);
std::vector<std::uint8_t> EncodeStatsSnapshotResp(
    const StatsSnapshotResp& snap);
std::vector<std::uint8_t> EncodeRecoveryInfoResp(const RecoveryInfoResp& info);
std::vector<std::uint8_t> EncodeVersionResp(std::uint32_t version);
std::vector<std::uint8_t> EncodeLeaseGrantResp(const LeaseGrantResp& resp);
std::vector<std::uint8_t> EncodeTxnPrepareResp(const TxnPrepareResp& resp);
std::vector<std::uint8_t> EncodeTxnResolveResp(const TxnResolveResp& resp);
std::vector<std::uint8_t> EncodeTxnListResp(const TxnListResp& resp);
/// Batch response: [env 1][varint n][varint len, bytes]*n, one complete
/// response (envelope included) per sub-request, in sub-request order.
std::vector<std::uint8_t> EncodeBatchResp(
    const std::vector<std::vector<std::uint8_t>>& subs);

// --- decode helpers ---

/// Every response starts with one envelope byte: 0 = a Status body follows
/// (both errors and bare-ack successes), 1 = a typed payload follows.
struct Envelope {
  bool has_payload = false;
  Status status;  ///< meaningful when has_payload is false
};

/// Consume the envelope; on has_payload the reader sits at the payload.
Result<Envelope> OpenEnvelope(ByteReader& in);

Result<MsgType> DecodeType(ByteReader& in);

/// Remote status wrapped in a distinct type (Result<Status> would be
/// ambiguous: the error channel is itself a Status).
struct RemoteStatus {
  Status status;
};
Result<RemoteStatus> DecodeStatusResp(ByteReader& in);
Result<bool> DecodeBoolResp(ByteReader& in);
Result<LocalLookupResp> DecodeLocalLookupResp(ByteReader& in);
Result<StatsResp> DecodeStatsResp(ByteReader& in);
Result<StatsSnapshotResp> DecodeStatsSnapshotResp(ByteReader& in);
Result<FileListResp> DecodeFileListResp(ByteReader& in);
Result<RecoveryInfoResp> DecodeRecoveryInfoResp(ByteReader& in);
Result<std::uint32_t> DecodeVersionResp(ByteReader& in);
Result<LeaseGrantResp> DecodeLeaseGrantResp(ByteReader& in);
Result<TxnPrepareResp> DecodeTxnPrepareResp(ByteReader& in);
Result<TxnResolveResp> DecodeTxnResolveResp(ByteReader& in);
Result<TxnListResp> DecodeTxnListResp(ByteReader& in);
Result<std::vector<std::vector<std::uint8_t>>> DecodeBatchResp(ByteReader& in);

}  // namespace ghba
