// Fuzzes the client-side response decoders: every byte sequence a peer (or
// the FaultInjector's corrupt/truncate modes) could hand back. The first
// input byte selects the decoder; the rest is the frame body.
//
// Invariants checked on every successful decode:
//  - re-encoding the decoded value and decoding it again round-trips, and
//  - decoded values respect their documented ranges (bool is 0/1, hit
//    counts fit the payload).
// Violations trap; decode errors are the expected outcome and are ignored.
#include <cstdint>
#include <span>

#include "rpc/protocol.hpp"

namespace {

void Require(bool cond) {
  if (!cond) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::uint8_t selector = data[0] % 16;
  ghba::ByteReader in(std::span(data + 1, size - 1));

  switch (selector) {
    case 0: {
      const auto type = ghba::DecodeType(in);
      if (type.ok()) {
        // Only an id with a row in the message table decodes, and it
        // decodes to itself: re-encoding gives back the same u16.
        const auto bytes = ghba::EncodeHeader(*type);
        Require(bytes.size() == 2 && bytes[0] == data[1] &&
                bytes[1] == data[2]);
      }
      break;
    }
    case 1: {
      const auto env = ghba::OpenEnvelope(in);
      if (env.ok() && !env->has_payload) {
        // The carried status must itself re-encode/decode cleanly.
        const auto bytes = ghba::EncodeStatusResp(env->status);
        ghba::ByteReader again(bytes);
        Require(ghba::OpenEnvelope(again).ok());
      }
      break;
    }
    case 2: {
      const auto value = ghba::DecodeBoolResp(in);
      if (value.ok()) {
        const auto bytes = ghba::EncodeBoolResp(*value);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        auto redecoded = ghba::DecodeBoolResp(again);
        Require(redecoded.ok() && *redecoded == *value);
      }
      break;
    }
    case 3: {
      const auto resp = ghba::DecodeLocalLookupResp(in);
      if (resp.ok()) {
        // The hardened count check admits at most remaining/4 hits.
        Require(resp->hits.size() <= size / 4);
        // v6 self-answer block: the verdict is range-checked at decode,
        // and only a held path can carry a lease.
        Require(resp->verdict <= ghba::SelfVerdict::kShed);
        Require(resp->lease_ttl_ms == 0 ||
                resp->verdict == ghba::SelfVerdict::kHeld);
        const auto bytes = ghba::EncodeLocalLookupResp(*resp);
        ghba::ByteReader again(bytes);
        Require(ghba::OpenEnvelope(again).ok());
        auto redecoded = ghba::DecodeLocalLookupResp(again);
        Require(redecoded.ok() && *redecoded == *resp);
        // The decoder consumed exactly the encoded body.
        Require(again.remaining() == 0);
      }
      break;
    }
    case 5: {
      const auto resp = ghba::DecodeFileListResp(in);
      if (resp.ok()) {
        Require(resp->files.size() <= size);
        const auto bytes = ghba::EncodeFileListResp(*resp);
        ghba::ByteReader again(bytes);
        Require(ghba::OpenEnvelope(again).ok());
        auto redecoded = ghba::DecodeFileListResp(again);
        Require(redecoded.ok() && redecoded->files.size() == resp->files.size());
      }
      break;
    }
    case 6: {
      const auto snap = ghba::DecodeStatsSnapshotResp(in);
      if (snap.ok()) {
        // The hardened count checks bound both maps by the payload size.
        Require(snap->metrics.counters.size() <= size / 9);
        Require(snap->metrics.histograms.size() <= size / 49);
        const auto bytes = ghba::EncodeStatsSnapshotResp(*snap);
        ghba::ByteReader again(bytes);
        Require(ghba::OpenEnvelope(again).ok());
        const auto redecoded = ghba::DecodeStatsSnapshotResp(again);
        Require(redecoded.ok() && redecoded->mds_id == snap->mds_id &&
                redecoded->lookup_state_bytes == snap->lookup_state_bytes &&
                redecoded->metrics.counters == snap->metrics.counters &&
                redecoded->metrics.histograms.size() ==
                    snap->metrics.histograms.size());
      }
      break;
    }
    case 7: {
      const auto report = ghba::DecodeOutcomeReport(in);
      if (report.ok()) {
        Require(report->level >= 1 && report->level <= 4);
        const auto bytes = ghba::EncodeOutcomeReport(*report);
        // Requests carry a leading u16 type, not an envelope.
        ghba::ByteReader again(bytes);
        Require(*ghba::DecodeType(again) == ghba::MsgType::kReportOutcome);
        const auto redecoded = ghba::DecodeOutcomeReport(again);
        Require(redecoded.ok() && redecoded->level == report->level &&
                redecoded->found == report->found &&
                redecoded->false_route == report->false_route &&
                redecoded->elapsed_ns == report->elapsed_ns &&
                redecoded->peers_contacted == report->peers_contacted &&
                redecoded->retries == report->retries);
      }
      break;
    }
    case 8: {
      const auto info = ghba::DecodeRecoveryInfoResp(in);
      if (info.ok()) {
        const auto bytes = ghba::EncodeRecoveryInfoResp(*info);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeRecoveryInfoResp(again);
        Require(redecoded.ok() && *redecoded == *info);
      }
      break;
    }
    case 9: {
      const auto version = ghba::DecodeVersionResp(in);
      if (version.ok()) {
        const auto bytes = ghba::EncodeVersionResp(*version);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeVersionResp(again);
        Require(redecoded.ok() && *redecoded == *version);
      }
      break;
    }
    case 11: {
      // Batch responses: each sub-frame is a complete enveloped response;
      // a mangled envelope byte inside one sub-frame must fail that
      // sub-decode without disturbing the outer framing.
      const auto subs = ghba::DecodeBatchResp(in);
      if (subs.ok()) {
        const auto bytes = ghba::EncodeBatchResp(*subs);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeBatchResp(again);
        Require(redecoded.ok() && *redecoded == *subs);
        for (const auto& sub : *subs) {
          ghba::ByteReader sub_in(sub);
          // Sub-envelope corruption is a legal mutation; only crashes count.
          (void)ghba::OpenEnvelope(sub_in);
        }
      }
      break;
    }
    case 12: {
      const auto lease = ghba::DecodeLeaseGrantResp(in);
      if (lease.ok()) {
        // v6: a held path names its server; a lease needs a held path.
        Require(!lease->held || lease->home != ghba::kInvalidMds);
        Require(lease->held || lease->ttl_ms == 0);
        const auto bytes = ghba::EncodeLeaseGrantResp(*lease);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeLeaseGrantResp(again);
        Require(redecoded.ok() && *redecoded == *lease);
      }
      break;
    }
    case 13: {
      const auto vote = ghba::DecodeTxnPrepareResp(in);
      if (vote.ok()) {
        // A vote without metadata must not smuggle any in.
        Require(vote->has_metadata || vote->metadata == ghba::FileMetadata{});
        const auto bytes = ghba::EncodeTxnPrepareResp(*vote);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeTxnPrepareResp(again);
        // Struct equality would reject NaN timestamps (NaN != NaN even
        // after a bit-exact round-trip), so compare re-encodings instead.
        Require(redecoded.ok() &&
                ghba::EncodeTxnPrepareResp(*redecoded) == bytes);
      }
      break;
    }
    case 14: {
      const auto resolve = ghba::DecodeTxnResolveResp(in);
      if (resolve.ok()) {
        // The state byte is range-checked at decode (the codec bounds it
        // by kAborted).
        Require(resolve->state <= ghba::TxnDecisionState::kAborted);
        const auto bytes = ghba::EncodeTxnResolveResp(*resolve);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeTxnResolveResp(again);
        Require(redecoded.ok() && *redecoded == *resolve);
      }
      break;
    }
    case 15: {
      const auto list = ghba::DecodeTxnListResp(in);
      if (list.ok()) {
        // The hardened count check bounds entries by the payload size
        // (each entry carries at least a u64 id).
        Require(list->entries.size() <= size);
        const auto bytes = ghba::EncodeTxnListResp(*list);
        ghba::ByteReader again(bytes);
        auto reopened = ghba::OpenEnvelope(again);
        Require(reopened.ok() && reopened->has_payload);
        const auto redecoded = ghba::DecodeTxnListResp(again);
        Require(redecoded.ok() && *redecoded == *list);
      }
      break;
    }
  }
  return 0;
}
