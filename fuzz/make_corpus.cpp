// Writes the encoder-generated seed corpus for every fuzz harness.
//
// Usage: make_corpus <output root>   (creates <root>/<harness>/<seed name>)
//
// Seeds come straight from the production encoders so each harness starts
// inside the valid-frame region and mutates outward from there. The seeds
// are deterministic; re-running refreshes fuzz/corpus in place.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bloom/compressed.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "bloom/id_bloom_array.hpp"
#include "mds/metadata.hpp"
#include "rpc/protocol.hpp"
#include "storage/checkpoint.hpp"
#include "storage/wal.hpp"

namespace {

using Bytes = std::vector<std::uint8_t>;

void WriteSeed(const std::filesystem::path& root, const std::string& harness,
               const std::string& name, const Bytes& data) {
  const auto dir = root / harness;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Prefix a harness selector byte.
Bytes Sel(std::uint8_t selector, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(selector);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// Drop the response envelope byte (the typed-payload decoders are fed the
/// body the harness reaches after OpenEnvelope).
Bytes StripEnvelope(const Bytes& frame) {
  return Bytes(frame.begin() + 1, frame.end());
}

ghba::BloomFilter DenseFilter() {
  auto bf = ghba::BloomFilter::ForCapacity(64, 8.0, /*seed=*/7);
  for (int i = 0; i < 64; ++i) bf.Add("dense-" + std::to_string(i));
  return bf;
}

ghba::BloomFilter SparseFilter() {
  auto bf = ghba::BloomFilter::ForCapacity(4096, 16.0, /*seed=*/9);
  bf.Add("one");
  bf.Add("two");
  return bf;
}

ghba::FileMetadata SampleMetadata() {
  ghba::FileMetadata md;
  md.inode = 42;
  md.mode = 0644;
  md.uid = 1000;
  md.gid = 1000;
  md.size_bytes = 1 << 20;
  md.atime = 1.0;
  md.mtime = 2.0;
  md.ctime = 3.0;
  md.data_servers = {1, 2, 3};
  return md;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];

  // --- fuzz_protocol_decode: selector + response body ---
  WriteSeed(root, "fuzz_protocol_decode", "type",
            Sel(0, ghba::EncodeHeader(ghba::MsgType::kGetStats)));
  // A retired type (21, the v3-v6 membership push) must not decode.
  WriteSeed(root, "fuzz_protocol_decode", "type_retired",
            Sel(0, Bytes{21, 0}));
  // Pins the decoder's range at kInvalidate: seeds like this one used to
  // trap the harness's stale range check after each protocol revision.
  WriteSeed(root, "fuzz_protocol_decode", "type_v4",
            Sel(0, ghba::EncodeHeader(ghba::MsgType::kInvalidate)));
  // And again for v5: pins the bound at the newest kTxn* type.
  WriteSeed(root, "fuzz_protocol_decode", "type_v5",
            Sel(0, ghba::EncodeHeader(ghba::MsgType::kTxnList)));
  WriteSeed(root, "fuzz_protocol_decode", "envelope_error",
            Sel(1, ghba::EncodeStatusResp(ghba::Status::NotFound("nope"))));
  WriteSeed(root, "fuzz_protocol_decode", "envelope_ok",
            Sel(1, ghba::EncodeStatusResp(ghba::Status::Ok())));
  WriteSeed(root, "fuzz_protocol_decode", "bool",
            Sel(2, StripEnvelope(ghba::EncodeBoolResp(true))));
  ghba::LocalLookupResp lookup;
  lookup.hits = {1, 3, 9};
  lookup.lru_unique = true;
  lookup.lru_home = 3;
  WriteSeed(root, "fuzz_protocol_decode", "lookup",
            Sel(3, StripEnvelope(ghba::EncodeLocalLookupResp(lookup))));
  // v6 self-answer block: a held verdict carrying a lease, and a shed one.
  lookup.verdict = ghba::SelfVerdict::kHeld;
  lookup.lease_ttl_ms = 2000;
  WriteSeed(root, "fuzz_protocol_decode", "lookup_v6_held",
            Sel(3, StripEnvelope(ghba::EncodeLocalLookupResp(lookup))));
  lookup.verdict = ghba::SelfVerdict::kShed;
  lookup.lease_ttl_ms = 0;
  WriteSeed(root, "fuzz_protocol_decode", "lookup_v6_shed",
            Sel(3, StripEnvelope(ghba::EncodeLocalLookupResp(lookup))));
  ghba::StatsResp stats{100, 99, 1234, 5};
  WriteSeed(root, "fuzz_protocol_decode", "stats",
            Sel(4, StripEnvelope(ghba::EncodeStatsResp(stats))));
  ghba::FileListResp files;
  files.files.emplace_back("/a/b", SampleMetadata());
  files.files.emplace_back("/c", SampleMetadata());
  WriteSeed(root, "fuzz_protocol_decode", "filelist",
            Sel(5, StripEnvelope(ghba::EncodeFileListResp(files))));
  ghba::StatsSnapshotResp snap;
  snap.mds_id = 2;
  snap.frames_in = 321;
  snap.frames_out = 320;
  snap.files = 777;
  snap.replicas = 3;
  snap.lookup_state_bytes = 65536;
  snap.metrics.counters["lookups.l1"] = 500;
  snap.metrics.counters["lookups.miss"] = 4;
  snap.metrics.counters["serve.verifies"] = 12;
  ghba::HistogramStats lat;
  lat.count = 504;
  lat.sum = 126.0;
  lat.min = 0.05;
  lat.max = 9.5;
  lat.p50 = 0.2;
  lat.p99 = 7.0;
  snap.metrics.histograms["latency.lookup_ms"] = lat;
  WriteSeed(root, "fuzz_protocol_decode", "stats_snapshot",
            Sel(6, StripEnvelope(ghba::EncodeStatsSnapshotResp(snap))));
  ghba::OutcomeReport report;
  report.level = 3;
  report.found = true;
  report.false_route = true;
  report.elapsed_ns = 1234567;
  report.peers_contacted = 5;
  report.retries = 1;
  {
    // The harness feeds DecodeOutcomeReport the body after the u16 type.
    auto frame = ghba::EncodeOutcomeReport(report);
    WriteSeed(root, "fuzz_protocol_decode", "outcome_report",
              Sel(7, Bytes(frame.begin() + 2, frame.end())));
  }
  ghba::RecoveryInfoResp recovery;
  recovery.durable = true;
  recovery.files = 1000;
  recovery.wal_seq = 1024;
  recovery.replay_records = 24;
  recovery.torn_tail = true;
  recovery.filter_rebuilt = false;
  recovery.filter_matched = true;
  WriteSeed(root, "fuzz_protocol_decode", "recovery_info",
            Sel(8, StripEnvelope(ghba::EncodeRecoveryInfoResp(recovery))));
  WriteSeed(root, "fuzz_protocol_decode", "version",
            Sel(9, StripEnvelope(ghba::EncodeVersionResp(
                       ghba::kProtocolVersion))));
  {
    // A batch response: one OK status sub-frame, one typed bool sub-frame.
    std::vector<Bytes> subs = {
        ghba::EncodeStatusResp(ghba::Status::Ok()),
        ghba::EncodeBoolResp(true),
    };
    WriteSeed(root, "fuzz_protocol_decode", "batch",
              Sel(11, StripEnvelope(ghba::EncodeBatchResp(subs))));
  }
  {
    ghba::LeaseGrantResp lease;
    lease.held = true;
    lease.ttl_ms = 2000;
    lease.home = 4;
    WriteSeed(root, "fuzz_protocol_decode", "lease_grant",
              Sel(12, StripEnvelope(ghba::EncodeLeaseGrantResp(lease))));
    // v6: stored here, no lease recorded — the reply stands in for a verify.
    lease.ttl_ms = 0;
    WriteSeed(root, "fuzz_protocol_decode", "lease_held_no_ttl",
              Sel(12, StripEnvelope(ghba::EncodeLeaseGrantResp(lease))));
    WriteSeed(root, "fuzz_protocol_decode", "lease_refusal",
              Sel(12, StripEnvelope(
                          ghba::EncodeLeaseGrantResp(ghba::LeaseGrantResp{}))));
  }
  {
    // v5 transaction responses: a remove-prepare YES vote (carries the
    // file's metadata), an insert vote (carries none), a resolve verdict
    // and an in-doubt listing.
    ghba::TxnPrepareResp vote;
    vote.has_metadata = true;
    vote.metadata = SampleMetadata();
    WriteSeed(root, "fuzz_protocol_decode", "txn_vote_remove",
              Sel(13, StripEnvelope(ghba::EncodeTxnPrepareResp(vote))));
    WriteSeed(root, "fuzz_protocol_decode", "txn_vote_insert",
              Sel(13, StripEnvelope(
                          ghba::EncodeTxnPrepareResp(ghba::TxnPrepareResp{}))));
    ghba::TxnResolveResp resolve;
    resolve.state = ghba::TxnDecisionState::kCommitted;
    WriteSeed(root, "fuzz_protocol_decode", "txn_resolve",
              Sel(14, StripEnvelope(ghba::EncodeTxnResolveResp(resolve))));
    ghba::TxnListResp list;
    list.entries.push_back(
        {77, 2, ghba::TxnSubOp::kRemove, "/txn/in-doubt/src"});
    list.entries.push_back(
        {77, 2, ghba::TxnSubOp::kInsert, "/txn/in-doubt/dst"});
    WriteSeed(root, "fuzz_protocol_decode", "txn_list",
              Sel(15, StripEnvelope(ghba::EncodeTxnListResp(list))));
  }

  // --- fuzz_request_decode: whole request frames ---
  WriteSeed(root, "fuzz_request_decode", "lookup",
            ghba::EncodeProbeRequest(ghba::MsgType::kLookupLocal, "/usr/lib",
                                     /*lease=*/false));
  // v6 probes carry the lease flag.
  WriteSeed(root, "fuzz_request_decode", "lookup_lease",
            ghba::EncodeProbeRequest(ghba::MsgType::kLookupLocal, "/usr/lib",
                                     /*lease=*/true));
  WriteSeed(root, "fuzz_request_decode", "group_probe_lease",
            ghba::EncodeProbeRequest(ghba::MsgType::kGroupProbe, "/usr/share",
                                     /*lease=*/true));
  WriteSeed(root, "fuzz_request_decode", "verify",
            ghba::EncodePathRequest(ghba::MsgType::kVerify, "/etc/passwd"));
  WriteSeed(root, "fuzz_request_decode", "touch",
            ghba::EncodeTouch("/var/tmp/f", 11));
  WriteSeed(root, "fuzz_request_decode", "insert",
            ghba::EncodeInsert("/new/file", SampleMetadata()));
  WriteSeed(root, "fuzz_request_decode", "install_dense",
            ghba::EncodeReplicaInstall(2, DenseFilter()));
  WriteSeed(root, "fuzz_request_decode", "install_sparse",
            ghba::EncodeReplicaInstall(3, SparseFilter()));
  WriteSeed(root, "fuzz_request_decode", "drop", ghba::EncodeReplicaDrop(2));
  WriteSeed(root, "fuzz_request_decode", "ping",
            ghba::EncodeHeader(ghba::MsgType::kPing));
  WriteSeed(root, "fuzz_request_decode", "export",
            ghba::EncodeHeader(ghba::MsgType::kExportFiles));
  WriteSeed(root, "fuzz_request_decode", "stats_snapshot",
            ghba::EncodeHeader(ghba::MsgType::kStatsSnapshot));
  WriteSeed(root, "fuzz_request_decode", "outcome_report",
            ghba::EncodeOutcomeReport(report));
  WriteSeed(root, "fuzz_request_decode", "recovery_info",
            ghba::EncodeHeader(ghba::MsgType::kRecoveryInfo));
  WriteSeed(root, "fuzz_request_decode", "version",
            ghba::EncodeHeader(ghba::MsgType::kVersion));
  WriteSeed(root, "fuzz_request_decode", "lease_grant",
            ghba::EncodePathRequest(ghba::MsgType::kLeaseGrant, "/hot/file"));
  WriteSeed(root, "fuzz_request_decode", "invalidate",
            ghba::EncodePathRequest(ghba::MsgType::kInvalidate, "/hot/file"));
  {
    // A pipelined batch of three request sub-frames.
    std::vector<Bytes> subs = {
        ghba::EncodeProbeRequest(ghba::MsgType::kLookupLocal, "/usr/bin",
                                 /*lease=*/false),
        ghba::EncodeInsert("/batched/file", SampleMetadata()),
        ghba::EncodeHeader(ghba::MsgType::kPing),
    };
    WriteSeed(root, "fuzz_request_decode", "batch", ghba::EncodeBatch(subs));
  }
  {
    // The v5 transaction family: one seed per wire message, in the order a
    // rename drives them.
    ghba::TxnBeginReq begin;
    begin.txn_id = 77;
    begin.participants = {2, 5};
    WriteSeed(root, "fuzz_request_decode", "txn_begin",
              ghba::EncodeTxnBegin(begin));
    ghba::TxnPrepareReq prep_remove;
    prep_remove.path = "/txn/src";
    prep_remove.txn_id = 77;
    prep_remove.coordinator = 2;
    prep_remove.subop = ghba::TxnSubOp::kRemove;
    prep_remove.participants = {2, 5};
    WriteSeed(root, "fuzz_request_decode", "txn_prepare_remove",
              ghba::EncodeTxnPrepare(prep_remove));
    ghba::TxnPrepareReq prep_insert = prep_remove;
    prep_insert.path = "/txn/dst";
    prep_insert.subop = ghba::TxnSubOp::kInsert;
    prep_insert.metadata = SampleMetadata();
    WriteSeed(root, "fuzz_request_decode", "txn_prepare_insert",
              ghba::EncodeTxnPrepare(prep_insert));
    ghba::TxnDecideReq decide;
    decide.txn_id = 77;
    decide.commit = true;
    WriteSeed(root, "fuzz_request_decode", "txn_decide",
              ghba::EncodeTxnDecide(decide));
    ghba::TxnFinishReq finish;
    finish.path = "/txn/dst";
    finish.txn_id = 77;
    WriteSeed(root, "fuzz_request_decode", "txn_commit",
              ghba::EncodeTxnFinish(ghba::MsgType::kTxnCommit, finish));
    finish.path = "/txn/src";
    WriteSeed(root, "fuzz_request_decode", "txn_abort",
              ghba::EncodeTxnFinish(ghba::MsgType::kTxnAbort, finish));
    WriteSeed(root, "fuzz_request_decode", "txn_resolve",
              ghba::EncodeTxnResolve(77));
    WriteSeed(root, "fuzz_request_decode", "txn_list",
              ghba::EncodeHeader(ghba::MsgType::kTxnList));
  }

  // --- fuzz_filter_decompress: raw and gap-coded compressed filters ---
  WriteSeed(root, "fuzz_filter_decompress", "raw",
            ghba::CompressFilter(DenseFilter()));
  WriteSeed(root, "fuzz_filter_decompress", "gap",
            ghba::CompressFilter(SparseFilter()));

  // --- fuzz_bitvector: selector + serialized filter-family bodies ---
  {
    ghba::ByteWriter w;
    DenseFilter().bits().Serialize(w);
    WriteSeed(root, "fuzz_bitvector", "bitvector", Sel(0, w.Take()));
  }
  {
    ghba::ByteWriter w;
    DenseFilter().Serialize(w);
    WriteSeed(root, "fuzz_bitvector", "bloom", Sel(1, w.Take()));
  }
  {
    auto cbf = ghba::CountingBloomFilter::ForCapacity(32, 8.0, 5);
    for (int i = 0; i < 32; ++i) cbf.Add("c" + std::to_string(i));
    ghba::ByteWriter w;
    cbf.Serialize(w);
    WriteSeed(root, "fuzz_bitvector", "counting", Sel(2, w.Take()));
  }
  {
    ghba::IdBloomArray idbfa;
    idbfa.AddMember(1);
    idbfa.AddMember(2);
    // Members 1 and 2 were just added; the replica adds cannot fail.
    (void)idbfa.AddReplica(1, 7);
    (void)idbfa.AddReplica(2, 9);
    ghba::ByteWriter w;
    idbfa.Serialize(w);
    WriteSeed(root, "fuzz_bitvector", "idbfa", Sel(3, w.Take()));
  }

  // --- fuzz_wal_decode: WAL log images, record payloads, checkpoints ---
  {
    ghba::WalRecord insert;
    insert.op = ghba::WalOp::kInsert;
    insert.seq = 1;
    insert.path = "/new/file";
    insert.metadata = SampleMetadata();
    ghba::WalRecord remove;
    remove.op = ghba::WalOp::kRemove;
    remove.seq = 2;
    remove.path = "/new/file";
    ghba::WalRecord clear;
    clear.op = ghba::WalOp::kClear;
    clear.seq = 3;

    // A clean three-record log image for the replay scanner.
    Bytes log;
    for (const auto* r : {&insert, &remove, &clear}) {
      const auto frame = ghba::EncodeWalRecordFrame(*r);
      log.insert(log.end(), frame.begin(), frame.end());
    }
    WriteSeed(root, "fuzz_wal_decode", "log_clean", Sel(0, log));
    // The same image with a torn tail (last frame cut mid-payload).
    Bytes torn(log.begin(), log.end() - 5);
    WriteSeed(root, "fuzz_wal_decode", "log_torn", Sel(0, torn));

    ghba::ByteWriter payload;
    ghba::EncodeWalRecordPayload(insert, payload);
    WriteSeed(root, "fuzz_wal_decode", "payload_insert", Sel(1, payload.Take()));

    // A transaction's full journal trail on one participant/coordinator:
    // begin, prepare (with the intent payload), the commit decision and the
    // closing commit — the records replay/recovery folds into txn state.
    ghba::WalRecord txn_begin;
    txn_begin.op = ghba::WalOp::kTxnBegin;
    txn_begin.seq = 4;
    txn_begin.txn_id = 77;
    txn_begin.members = {2, 5};
    ghba::WalRecord txn_prepare;
    txn_prepare.op = ghba::WalOp::kTxnPrepare;
    txn_prepare.seq = 5;
    txn_prepare.txn_id = 77;
    txn_prepare.txn_subop = ghba::TxnSubOp::kInsert;
    txn_prepare.path = "/txn/dst";
    txn_prepare.metadata = SampleMetadata();
    txn_prepare.owner = 2;  // coordinator
    txn_prepare.members = {2, 5};
    ghba::WalRecord txn_decision;
    txn_decision.op = ghba::WalOp::kTxnDecision;
    txn_decision.seq = 6;
    txn_decision.txn_id = 77;
    txn_decision.txn_commit = true;
    ghba::WalRecord txn_commit;
    txn_commit.op = ghba::WalOp::kTxnCommit;
    txn_commit.seq = 7;
    txn_commit.txn_id = 77;
    txn_commit.txn_subop = ghba::TxnSubOp::kInsert;
    txn_commit.path = "/txn/dst";
    txn_commit.metadata = SampleMetadata();
    Bytes txn_log;
    for (const auto* r : {&txn_begin, &txn_prepare, &txn_decision,
                          &txn_commit}) {
      const auto frame = ghba::EncodeWalRecordFrame(*r);
      txn_log.insert(txn_log.end(), frame.begin(), frame.end());
    }
    WriteSeed(root, "fuzz_wal_decode", "log_txn", Sel(0, txn_log));
    ghba::ByteWriter txn_payload;
    ghba::EncodeWalRecordPayload(txn_prepare, txn_payload);
    WriteSeed(root, "fuzz_wal_decode", "payload_txn_prepare",
              Sel(1, txn_payload.Take()));

    ghba::CheckpointState state;
    state.wal_seq = 3;
    state.files.emplace_back("/a/b", SampleMetadata());
    state.files.emplace_back("/c", SampleMetadata());
    state.has_filter = true;
    auto cbf = ghba::CountingBloomFilter::ForCapacity(64, 8.0, 5);
    cbf.Add("/a/b");
    cbf.Add("/c");
    state.filter = std::move(cbf);
    state.replicas.emplace_back(1, DenseFilter());
    state.replicas.emplace_back(2, SparseFilter());
    WriteSeed(root, "fuzz_wal_decode", "checkpoint",
              Sel(2, ghba::EncodeCheckpoint(state)));
    ghba::CheckpointState minimal;
    minimal.wal_seq = 0;
    WriteSeed(root, "fuzz_wal_decode", "checkpoint_empty",
              Sel(2, ghba::EncodeCheckpoint(minimal)));
    // A checkpoint carrying folded transaction state: one in-doubt
    // prepare plus a two-row decision table.
    ghba::CheckpointState with_txn;
    with_txn.wal_seq = 9;
    with_txn.files.emplace_back("/txn/src", SampleMetadata());
    ghba::TxnPendingOp pending;
    pending.txn_id = 77;
    pending.subop = ghba::TxnSubOp::kRemove;
    pending.path = "/txn/src";
    pending.coordinator = 2;
    pending.participants = {2, 5};
    with_txn.txn_pending.push_back(pending);
    with_txn.txn_decisions.push_back({76, ghba::TxnCoordState::kCommitted});
    with_txn.txn_decisions.push_back({77, ghba::TxnCoordState::kBegun});
    WriteSeed(root, "fuzz_wal_decode", "checkpoint_txn",
              Sel(2, ghba::EncodeCheckpoint(with_txn)));
  }

  std::fprintf(stderr, "corpus written under %s\n", root.string().c_str());
  return 0;
}
