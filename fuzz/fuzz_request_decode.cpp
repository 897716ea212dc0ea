// Fuzzes the server-side request parse, mirroring the per-type argument
// decoding MdsServer::Handle performs before touching any state. A real
// server owns sockets and an event loop, so the parse arms are replicated
// here argument-for-argument; if Handle grows a new arm, add it here.
//
// The property under test: no frame, however mangled, reaches past the
// bounds-checked readers (ByteReader, FileMetadata::Deserialize,
// DecompressFilter) — parsing either succeeds or returns a Status, never
// crashes or over-allocates.
#include <cstdint>
#include <span>

#include "bloom/compressed.hpp"
#include "mds/metadata.hpp"
#include "rpc/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ghba::ByteReader in(std::span(data, size));
  const auto type = ghba::DecodeType(in);
  if (!type.ok()) return 0;

  switch (*type) {
    case ghba::MsgType::kLookupLocal:
    case ghba::MsgType::kGroupProbe: {
      // v6 probes: path + strict lease flag, and the parse round-trips.
      const auto req = ghba::DecodeProbeRequest(in);
      if (req.ok()) {
        const auto bytes =
            ghba::EncodeProbeRequest(*type, req->path, req->lease);
        ghba::ByteReader again(bytes);
        if (!ghba::DecodeType(again).ok()) __builtin_trap();
        const auto redecoded = ghba::DecodeProbeRequest(again);
        if (!redecoded.ok() || redecoded->path != req->path ||
            redecoded->lease != req->lease) {
          __builtin_trap();
        }
      }
      break;
    }
    case ghba::MsgType::kGlobalProbe:
    case ghba::MsgType::kVerify:
    case ghba::MsgType::kUnlink:
    case ghba::MsgType::kLeaseGrant:
    case ghba::MsgType::kInvalidate:
      // Decode failures are the expected fuzz outcome everywhere below;
      // the property is "no crash", not "no error".
      (void)in.GetString();
      break;
    case ghba::MsgType::kTouchLru: {
      if (in.GetString().ok()) (void)in.GetU32();  // error = valid outcome
      break;
    }
    case ghba::MsgType::kInsert: {
      if (in.GetString().ok())
        (void)ghba::FileMetadata::Deserialize(in);  // error = valid outcome
      break;
    }
    case ghba::MsgType::kReplicaInstall: {
      if (in.GetU32().ok()) (void)ghba::DecompressFilter(in);  // ditto
      break;
    }
    case ghba::MsgType::kReplicaDrop:
    case ghba::MsgType::kReplicaFetch:
      (void)in.GetU32();  // error = valid outcome
      break;
    case ghba::MsgType::kReportOutcome:
      (void)ghba::DecodeOutcomeReport(in);  // error = valid outcome
      break;
    case ghba::MsgType::kBatch: {
      // Sub-frames are recursively typed; mirror Handle's one-level parse
      // (nested batches are rejected by DecodeBatchRequest itself).
      auto subs = ghba::DecodeBatchRequest(in);
      if (subs.ok()) {
        for (const auto& sub : *subs) {
          ghba::ByteReader sub_in(sub);
          (void)ghba::DecodeType(sub_in);  // error = valid outcome
        }
      }
      break;
    }
    case ghba::MsgType::kTxnBegin:
      (void)ghba::DecodeTxnBegin(in);  // error = valid outcome
      break;
    case ghba::MsgType::kTxnPrepare:
      (void)ghba::DecodeTxnPrepare(in);  // error = valid outcome
      break;
    case ghba::MsgType::kTxnDecide:
      (void)ghba::DecodeTxnDecide(in);  // error = valid outcome
      break;
    case ghba::MsgType::kTxnCommit:
    case ghba::MsgType::kTxnAbort:
      (void)ghba::DecodeTxnFinish(in);  // error = valid outcome
      break;
    case ghba::MsgType::kTxnResolve:
      (void)ghba::DecodeTxnResolve(in);  // error = valid outcome
      break;
    case ghba::MsgType::kGetFilter:
    case ghba::MsgType::kGetStats:
    case ghba::MsgType::kPing:
    case ghba::MsgType::kShutdown:
    case ghba::MsgType::kExportFiles:
    case ghba::MsgType::kStatsSnapshot:
    case ghba::MsgType::kRecoveryInfo:
    case ghba::MsgType::kVersion:
    case ghba::MsgType::kTxnList:
      break;  // no arguments
  }
  return 0;
}
