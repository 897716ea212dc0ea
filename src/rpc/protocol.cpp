#include "rpc/protocol.hpp"

#include "bloom/compressed.hpp"

namespace ghba {

namespace {
ByteWriter WriterFor(MsgType type) {
  ByteWriter w;
  w.PutU16(static_cast<std::uint16_t>(type));
  return w;
}
}  // namespace

std::vector<std::uint8_t> EncodeHeader(MsgType type) {
  return WriterFor(type).Take();
}

std::vector<std::uint8_t> EncodePathRequest(MsgType type,
                                            const std::string& path) {
  auto w = WriterFor(type);
  w.PutString(path);
  return w.Take();
}

std::vector<std::uint8_t> EncodeProbeRequest(MsgType type,
                                             const std::string& path,
                                             bool lease) {
  auto w = WriterFor(type);
  w.PutString(path);
  w.PutU8(lease ? 1 : 0);
  return w.Take();
}

Result<ProbeRequest> DecodeProbeRequest(ByteReader& in) {
  ProbeRequest req;
  auto path = in.GetString();
  if (!path.ok()) return path.status();
  req.path = std::move(*path);
  auto lease = in.GetU8();
  if (!lease.ok()) return lease.status();
  if (*lease > 1) return Status::Corruption("bad bool byte");
  req.lease = (*lease != 0);
  return req;
}

std::vector<std::uint8_t> EncodeTouch(const std::string& path, MdsId home) {
  auto w = WriterFor(MsgType::kTouchLru);
  w.PutString(path);
  w.PutU32(home);
  return w.Take();
}

std::vector<std::uint8_t> EncodeInsert(const std::string& path,
                                       const FileMetadata& metadata) {
  auto w = WriterFor(MsgType::kInsert);
  w.PutString(path);
  metadata.Serialize(w);
  return w.Take();
}

std::vector<std::uint8_t> EncodeReplicaInstall(MdsId owner,
                                               const BloomFilter& filter) {
  auto w = WriterFor(MsgType::kReplicaInstall);
  w.PutU32(owner);
  // Replicas ship compressed: sparse filters (fresh MDSs, post-split
  // installs) gap-code to a fraction of their raw size.
  w.PutBytes(CompressFilter(filter));
  return w.Take();
}

std::vector<std::uint8_t> EncodeReplicaDrop(MdsId owner) {
  auto w = WriterFor(MsgType::kReplicaDrop);
  w.PutU32(owner);
  return w.Take();
}

std::vector<std::uint8_t> EncodeReplicaFetch(MdsId owner) {
  auto w = WriterFor(MsgType::kReplicaFetch);
  w.PutU32(owner);
  return w.Take();
}

std::vector<std::uint8_t> EncodeOutcomeReport(const OutcomeReport& report) {
  auto w = WriterFor(MsgType::kReportOutcome);
  w.PutU8(report.level);
  w.PutU8(report.found ? 1 : 0);
  w.PutU8(report.false_route ? 1 : 0);
  w.PutU64(report.elapsed_ns);
  w.PutU32(report.peers_contacted);
  w.PutU32(report.retries);
  return w.Take();
}

Result<OutcomeReport> DecodeOutcomeReport(ByteReader& in) {
  OutcomeReport report;
  auto level = in.GetU8();
  if (!level.ok()) return level.status();
  // Levels are 1..4; anything else is a mangled frame.
  if (*level < 1 || *level > 4) return Status::Corruption("bad level");
  report.level = *level;
  auto found = in.GetU8();
  if (!found.ok()) return found.status();
  if (*found > 1) return Status::Corruption("bad bool byte");
  report.found = (*found != 0);
  auto false_route = in.GetU8();
  if (!false_route.ok()) return false_route.status();
  if (*false_route > 1) return Status::Corruption("bad bool byte");
  report.false_route = (*false_route != 0);
  auto elapsed = in.GetU64();
  if (!elapsed.ok()) return elapsed.status();
  report.elapsed_ns = *elapsed;
  auto peers = in.GetU32();
  if (!peers.ok()) return peers.status();
  report.peers_contacted = *peers;
  auto retries = in.GetU32();
  if (!retries.ok()) return retries.status();
  report.retries = *retries;
  return report;
}

std::vector<std::uint8_t> EncodeLeaseGrantResp(const LeaseGrantResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU8(resp.held ? 1 : 0);
  w.PutU32(resp.ttl_ms);
  w.PutU32(resp.home);
  return w.Take();
}

Result<LeaseGrantResp> DecodeLeaseGrantResp(ByteReader& in) {
  LeaseGrantResp resp;
  auto held = in.GetU8();
  if (!held.ok()) return held.status();
  if (*held > 1) return Status::Corruption("bad bool byte");
  resp.held = (*held != 0);
  auto ttl = in.GetU32();
  if (!ttl.ok()) return ttl.status();
  resp.ttl_ms = *ttl;
  auto home = in.GetU32();
  if (!home.ok()) return home.status();
  resp.home = *home;
  // A held path names its server; a lease exists only for a held path.
  if (resp.held && resp.home == kInvalidMds) {
    return Status::Corruption("held path without a home");
  }
  if (!resp.held && resp.ttl_ms != 0) {
    return Status::Corruption("lease on a path not held");
  }
  return resp;
}

std::vector<std::uint8_t> EncodeStatusResp(const Status& status) {
  ByteWriter w;
  w.PutU8(0);  // envelope: 0 = Status follows
  w.PutU8(static_cast<std::uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Take();
}

std::vector<std::uint8_t> EncodeBoolResp(bool value) {
  ByteWriter w;
  w.PutU8(1);  // envelope: 1 = payload follows
  w.PutU8(value ? 1 : 0);
  return w.Take();
}

std::vector<std::uint8_t> EncodeLocalLookupResp(const LocalLookupResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU8(resp.lru_unique ? 1 : 0);
  w.PutU32(resp.lru_home);
  w.PutVarint(resp.hits.size());
  for (const MdsId h : resp.hits) w.PutU32(h);
  w.PutU8(static_cast<std::uint8_t>(resp.verdict));
  w.PutU32(resp.lease_ttl_ms);
  return w.Take();
}

std::vector<std::uint8_t> EncodeFilterResp(const BloomFilter& filter) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutBytes(CompressFilter(filter));
  return w.Take();
}

std::vector<std::uint8_t> EncodeStatsResp(const StatsResp& stats) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU64(stats.frames_in);
  w.PutU64(stats.frames_out);
  w.PutU64(stats.files);
  w.PutU64(stats.replicas);
  return w.Take();
}

std::vector<std::uint8_t> EncodeStatsSnapshotResp(
    const StatsSnapshotResp& snap) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU32(snap.mds_id);
  w.PutU64(snap.frames_in);
  w.PutU64(snap.frames_out);
  w.PutU64(snap.files);
  w.PutU64(snap.replicas);
  w.PutU64(snap.lookup_state_bytes);
  w.PutVarint(snap.metrics.counters.size());
  for (const auto& [name, value] : snap.metrics.counters) {
    w.PutString(name);
    w.PutU64(value);
  }
  w.PutVarint(snap.metrics.histograms.size());
  for (const auto& [name, h] : snap.metrics.histograms) {
    w.PutString(name);
    w.PutU64(h.count);
    w.PutDouble(h.sum);
    w.PutDouble(h.min);
    w.PutDouble(h.max);
    w.PutDouble(h.p50);
    w.PutDouble(h.p99);
  }
  return w.Take();
}

Result<StatsSnapshotResp> DecodeStatsSnapshotResp(ByteReader& in) {
  StatsSnapshotResp snap;
  auto id = in.GetU32();
  if (!id.ok()) return id.status();
  snap.mds_id = *id;
  const auto fixed = [&](std::uint64_t& field) -> Status {
    auto v = in.GetU64();
    if (!v.ok()) return v.status();
    field = *v;
    return Status::Ok();
  };
  if (Status s = fixed(snap.frames_in); !s.ok()) return s;
  if (Status s = fixed(snap.frames_out); !s.ok()) return s;
  if (Status s = fixed(snap.files); !s.ok()) return s;
  if (Status s = fixed(snap.replicas); !s.ok()) return s;
  if (Status s = fixed(snap.lookup_state_bytes); !s.ok()) return s;

  auto n_counters = in.GetVarint();
  if (!n_counters.ok()) return n_counters.status();
  // A counter entry costs at least 9 bytes (1-byte length of an empty name
  // + 8-byte value); a larger claimed count means a mangled length field.
  if (*n_counters > in.remaining() / 9) {
    return Status::Corruption("absurd counter count");
  }
  for (std::uint64_t i = 0; i < *n_counters; ++i) {
    auto name = in.GetString();
    if (!name.ok()) return name.status();
    auto value = in.GetU64();
    if (!value.ok()) return value.status();
    snap.metrics.counters[std::move(*name)] = *value;
  }

  auto n_hists = in.GetVarint();
  if (!n_hists.ok()) return n_hists.status();
  // 1-byte name length + count + five doubles = 49 bytes minimum.
  if (*n_hists > in.remaining() / 49) {
    return Status::Corruption("absurd histogram count");
  }
  for (std::uint64_t i = 0; i < *n_hists; ++i) {
    auto name = in.GetString();
    if (!name.ok()) return name.status();
    HistogramStats h;
    auto count = in.GetU64();
    if (!count.ok()) return count.status();
    h.count = *count;
    const auto dbl = [&](double& field) -> Status {
      auto v = in.GetDouble();
      if (!v.ok()) return v.status();
      field = *v;
      return Status::Ok();
    };
    if (Status s = dbl(h.sum); !s.ok()) return s;
    if (Status s = dbl(h.min); !s.ok()) return s;
    if (Status s = dbl(h.max); !s.ok()) return s;
    if (Status s = dbl(h.p50); !s.ok()) return s;
    if (Status s = dbl(h.p99); !s.ok()) return s;
    snap.metrics.histograms[std::move(*name)] = h;
  }
  return snap;
}

std::vector<std::uint8_t> EncodeFileListResp(const FileListResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutVarint(resp.files.size());
  for (const auto& [path, md] : resp.files) {
    w.PutString(path);
    md.Serialize(w);
  }
  return w.Take();
}

Result<FileListResp> DecodeFileListResp(ByteReader& in) {
  auto count = in.GetVarint();
  if (!count.ok()) return count.status();
  // Each entry costs at least one byte on the wire, so a count beyond the
  // remaining frame bytes can only come from a mangled length field.
  if (*count > in.remaining()) return Status::Corruption("absurd file count");
  FileListResp resp;
  resp.files.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto path = in.GetString();
    if (!path.ok()) return path.status();
    auto md = FileMetadata::Deserialize(in);
    if (!md.ok()) return md.status();
    resp.files.emplace_back(std::move(*path), std::move(*md));
  }
  return resp;
}

std::vector<std::uint8_t> EncodeRecoveryInfoResp(
    const RecoveryInfoResp& info) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU8(info.durable ? 1 : 0);
  w.PutU64(info.files);
  w.PutU64(info.wal_seq);
  w.PutU64(info.replay_records);
  w.PutU8(info.torn_tail ? 1 : 0);
  w.PutU8(info.filter_rebuilt ? 1 : 0);
  w.PutU8(info.filter_matched ? 1 : 0);
  w.PutU64(info.txn_in_doubt);
  return w.Take();
}

Result<RecoveryInfoResp> DecodeRecoveryInfoResp(ByteReader& in) {
  RecoveryInfoResp info;
  const auto flag = [&](bool& field) -> Status {
    auto v = in.GetU8();
    if (!v.ok()) return v.status();
    if (*v > 1) return Status::Corruption("bad bool byte");
    field = (*v != 0);
    return Status::Ok();
  };
  const auto fixed = [&](std::uint64_t& field) -> Status {
    auto v = in.GetU64();
    if (!v.ok()) return v.status();
    field = *v;
    return Status::Ok();
  };
  if (Status s = flag(info.durable); !s.ok()) return s;
  if (Status s = fixed(info.files); !s.ok()) return s;
  if (Status s = fixed(info.wal_seq); !s.ok()) return s;
  if (Status s = fixed(info.replay_records); !s.ok()) return s;
  if (Status s = flag(info.torn_tail); !s.ok()) return s;
  if (Status s = flag(info.filter_rebuilt); !s.ok()) return s;
  if (Status s = flag(info.filter_matched); !s.ok()) return s;
  auto in_doubt = in.GetU64();
  if (!in_doubt.ok()) return in_doubt.status();
  info.txn_in_doubt = *in_doubt;
  return info;
}

namespace {

void PutMdsIds(ByteWriter& w, const std::vector<MdsId>& ids) {
  w.PutVarint(ids.size());
  for (const MdsId id : ids) w.PutU32(id);
}

Status GetMdsIds(ByteReader& in, std::vector<MdsId>* out) {
  auto n = in.GetVarint();
  if (!n.ok()) return n.status();
  if (*n > in.remaining() / 4) {
    return Status::Corruption("too many participants");
  }
  out->reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto id = in.GetU32();
    if (!id.ok()) return id.status();
    out->push_back(*id);
  }
  return Status::Ok();
}

Result<TxnSubOp> GetSubOp(ByteReader& in) {
  auto subop = in.GetU8();
  if (!subop.ok()) return subop.status();
  if (*subop < static_cast<std::uint8_t>(TxnSubOp::kInsert) ||
      *subop > static_cast<std::uint8_t>(TxnSubOp::kRemove)) {
    return Status::Corruption("bad txn sub-op");
  }
  return static_cast<TxnSubOp>(*subop);
}

}  // namespace

std::vector<std::uint8_t> EncodeTxnBegin(const TxnBeginReq& req) {
  auto w = WriterFor(MsgType::kTxnBegin);
  w.PutU64(req.txn_id);
  PutMdsIds(w, req.participants);
  return w.Take();
}

Result<TxnBeginReq> DecodeTxnBegin(ByteReader& in) {
  TxnBeginReq req;
  auto txn_id = in.GetU64();
  if (!txn_id.ok()) return txn_id.status();
  // Txn id 0 is the "no transaction" sentinel everywhere in the manager.
  if (*txn_id == 0) return Status::Corruption("bad txn id");
  req.txn_id = *txn_id;
  if (Status s = GetMdsIds(in, &req.participants); !s.ok()) return s;
  return req;
}

std::vector<std::uint8_t> EncodeTxnPrepare(const TxnPrepareReq& req) {
  auto w = WriterFor(MsgType::kTxnPrepare);
  w.PutString(req.path);
  w.PutU64(req.txn_id);
  w.PutU32(req.coordinator);
  w.PutU8(static_cast<std::uint8_t>(req.subop));
  PutMdsIds(w, req.participants);
  if (req.subop == TxnSubOp::kInsert) req.metadata.Serialize(w);
  return w.Take();
}

Result<TxnPrepareReq> DecodeTxnPrepare(ByteReader& in) {
  TxnPrepareReq req;
  auto path = in.GetString();
  if (!path.ok()) return path.status();
  req.path = std::move(*path);
  auto txn_id = in.GetU64();
  if (!txn_id.ok()) return txn_id.status();
  if (*txn_id == 0) return Status::Corruption("bad txn id");
  req.txn_id = *txn_id;
  auto coord = in.GetU32();
  if (!coord.ok()) return coord.status();
  req.coordinator = *coord;
  auto subop = GetSubOp(in);
  if (!subop.ok()) return subop.status();
  req.subop = *subop;
  if (Status s = GetMdsIds(in, &req.participants); !s.ok()) return s;
  if (req.subop == TxnSubOp::kInsert) {
    auto md = FileMetadata::Deserialize(in);
    if (!md.ok()) return md.status();
    req.metadata = std::move(*md);
  }
  return req;
}

std::vector<std::uint8_t> EncodeTxnDecide(const TxnDecideReq& req) {
  auto w = WriterFor(MsgType::kTxnDecide);
  w.PutU64(req.txn_id);
  w.PutU8(req.commit ? 1 : 0);
  return w.Take();
}

Result<TxnDecideReq> DecodeTxnDecide(ByteReader& in) {
  TxnDecideReq req;
  auto txn_id = in.GetU64();
  if (!txn_id.ok()) return txn_id.status();
  if (*txn_id == 0) return Status::Corruption("bad txn id");
  req.txn_id = *txn_id;
  auto commit = in.GetU8();
  if (!commit.ok()) return commit.status();
  if (*commit > 1) return Status::Corruption("bad bool byte");
  req.commit = (*commit != 0);
  return req;
}

std::vector<std::uint8_t> EncodeTxnFinish(MsgType type,
                                          const TxnFinishReq& req) {
  auto w = WriterFor(type);
  w.PutString(req.path);
  w.PutU64(req.txn_id);
  return w.Take();
}

Result<TxnFinishReq> DecodeTxnFinish(ByteReader& in) {
  TxnFinishReq req;
  auto path = in.GetString();
  if (!path.ok()) return path.status();
  req.path = std::move(*path);
  auto txn_id = in.GetU64();
  if (!txn_id.ok()) return txn_id.status();
  if (*txn_id == 0) return Status::Corruption("bad txn id");
  req.txn_id = *txn_id;
  return req;
}

std::vector<std::uint8_t> EncodeTxnResolve(std::uint64_t txn_id) {
  auto w = WriterFor(MsgType::kTxnResolve);
  w.PutU64(txn_id);
  return w.Take();
}

Result<std::uint64_t> DecodeTxnResolve(ByteReader& in) {
  auto txn_id = in.GetU64();
  if (!txn_id.ok()) return txn_id.status();
  if (*txn_id == 0) return Status::Corruption("bad txn id");
  return *txn_id;
}

std::vector<std::uint8_t> EncodeTxnPrepareResp(const TxnPrepareResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU8(resp.has_metadata ? 1 : 0);
  if (resp.has_metadata) resp.metadata.Serialize(w);
  return w.Take();
}

Result<TxnPrepareResp> DecodeTxnPrepareResp(ByteReader& in) {
  TxnPrepareResp resp;
  auto has_md = in.GetU8();
  if (!has_md.ok()) return has_md.status();
  if (*has_md > 1) return Status::Corruption("bad bool byte");
  resp.has_metadata = (*has_md != 0);
  if (resp.has_metadata) {
    auto md = FileMetadata::Deserialize(in);
    if (!md.ok()) return md.status();
    resp.metadata = std::move(*md);
  }
  return resp;
}

std::vector<std::uint8_t> EncodeTxnResolveResp(const TxnResolveResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU8(static_cast<std::uint8_t>(resp.state));
  return w.Take();
}

Result<TxnResolveResp> DecodeTxnResolveResp(ByteReader& in) {
  auto state = in.GetU8();
  if (!state.ok()) return state.status();
  if (*state > static_cast<std::uint8_t>(TxnDecisionState::kAborted)) {
    return Status::Corruption("bad txn decision state");
  }
  TxnResolveResp resp;
  resp.state = static_cast<TxnDecisionState>(*state);
  return resp;
}

std::vector<std::uint8_t> EncodeTxnListResp(const TxnListResp& resp) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutVarint(resp.entries.size());
  for (const auto& e : resp.entries) {
    w.PutU64(e.txn_id);
    w.PutU32(e.coordinator);
    w.PutU8(static_cast<std::uint8_t>(e.subop));
    w.PutString(e.path);
  }
  return w.Take();
}

Result<TxnListResp> DecodeTxnListResp(ByteReader& in) {
  auto n = in.GetVarint();
  if (!n.ok()) return n.status();
  // An entry costs at least 14 bytes (8 id + 4 coordinator + 1 sub-op +
  // 1-byte length of an empty path); beyond that the count is mangled.
  if (*n > in.remaining() / 14) {
    return Status::Corruption("absurd txn list count");
  }
  TxnListResp resp;
  resp.entries.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    TxnListEntry e;
    auto txn_id = in.GetU64();
    if (!txn_id.ok()) return txn_id.status();
    if (*txn_id == 0) return Status::Corruption("bad txn id");
    e.txn_id = *txn_id;
    auto coord = in.GetU32();
    if (!coord.ok()) return coord.status();
    e.coordinator = *coord;
    auto subop = GetSubOp(in);
    if (!subop.ok()) return subop.status();
    e.subop = *subop;
    auto path = in.GetString();
    if (!path.ok()) return path.status();
    e.path = std::move(*path);
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

Result<Envelope> OpenEnvelope(ByteReader& in) {
  auto kind = in.GetU8();
  if (!kind.ok()) return kind.status();
  Envelope env;
  if (*kind == 1) {
    env.has_payload = true;
    return env;
  }
  if (*kind != 0) return Status::Corruption("bad envelope byte");
  auto status = DecodeStatusResp(in);
  if (!status.ok()) return status.status();
  env.status = status->status;
  return env;
}

Result<MsgType> DecodeType(ByteReader& in) {
  auto t = in.GetU16();
  if (!t.ok()) return t.status();
  // 21 and 22 are the retired membership-push types.
  if (*t < 1 || *t > static_cast<std::uint16_t>(MsgType::kTxnList) ||
      *t == 21 || *t == 22) {
    return Status::Corruption("unknown message type");
  }
  return static_cast<MsgType>(*t);
}

bool BatchableType(MsgType type) {
  switch (type) {
    case MsgType::kTouchLru:
    case MsgType::kReportOutcome:
    case MsgType::kShutdown:
    case MsgType::kBatch:
    // A whole-server drain needs every shard parked; it cannot share a
    // frame with requests that execute on individual shards.
    case MsgType::kExportFiles:
      return false;
    default:
      return true;
  }
}

std::vector<std::uint8_t> EncodeBatch(
    const std::vector<std::vector<std::uint8_t>>& subs) {
  auto w = WriterFor(MsgType::kBatch);
  w.PutVarint(subs.size());
  for (const auto& sub : subs) {
    w.PutVarint(sub.size());
    w.PutBytes(sub);
  }
  return w.Take();
}

Result<std::vector<std::vector<std::uint8_t>>> DecodeBatchRequest(
    ByteReader& in) {
  auto n = in.GetVarint();
  if (!n.ok()) return n.status();
  if (*n == 0) return Status::InvalidArgument("empty batch");
  // Every sub-frame costs at least one length byte plus a 2-byte type, so
  // a count beyond remaining/3 can only come from a mangled length field.
  if (*n > kMaxBatchFrames || *n > in.remaining() / 3) {
    return Status::Corruption("absurd batch count");
  }
  std::vector<std::vector<std::uint8_t>> subs;
  subs.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto len = in.GetVarint();
    if (!len.ok()) return len.status();
    if (*len > in.remaining()) return Status::Corruption("bad sub-frame len");
    auto bytes = in.GetBytes(*len);
    if (!bytes.ok()) return bytes.status();
    ByteReader sub(*bytes);
    auto type = DecodeType(sub);
    if (!type.ok()) return type.status();
    if (!BatchableType(*type)) {
      return Status::InvalidArgument("message type not allowed in a batch");
    }
    subs.push_back(std::move(*bytes));
  }
  return subs;
}

std::vector<std::uint8_t> EncodeVersionResp(std::uint32_t version) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutU32(version);
  return w.Take();
}

Result<std::uint32_t> DecodeVersionResp(ByteReader& in) {
  auto v = in.GetU32();
  if (!v.ok()) return v.status();
  if (*v == 0) return Status::Corruption("bad protocol version");
  return *v;
}

std::vector<std::uint8_t> EncodeBatchResp(
    const std::vector<std::vector<std::uint8_t>>& subs) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutVarint(subs.size());
  for (const auto& sub : subs) {
    w.PutVarint(sub.size());
    w.PutBytes(sub);
  }
  return w.Take();
}

Result<std::vector<std::vector<std::uint8_t>>> DecodeBatchResp(
    ByteReader& in) {
  auto n = in.GetVarint();
  if (!n.ok()) return n.status();
  if (*n > kMaxBatchFrames || *n > in.remaining()) {
    return Status::Corruption("absurd batch count");
  }
  std::vector<std::vector<std::uint8_t>> subs;
  subs.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto len = in.GetVarint();
    if (!len.ok()) return len.status();
    if (*len > in.remaining()) return Status::Corruption("bad sub-frame len");
    auto bytes = in.GetBytes(*len);
    if (!bytes.ok()) return bytes.status();
    subs.push_back(std::move(*bytes));
  }
  return subs;
}

Result<RemoteStatus> DecodeStatusResp(ByteReader& in) {
  auto code = in.GetU8();
  if (!code.ok()) return code.status();
  auto msg = in.GetString();
  if (!msg.ok()) return msg.status();
  if (*code > static_cast<std::uint8_t>(StatusCode::kRetryAfter)) {
    return Status::Corruption("bad status code");
  }
  return RemoteStatus{Status(static_cast<StatusCode>(*code), std::move(*msg))};
}

Result<bool> DecodeBoolResp(ByteReader& in) {
  auto v = in.GetU8();
  if (!v.ok()) return v.status();
  // Strict: the encoder only ever emits 0 or 1, so anything else is a
  // mangled frame, not a truthy value.
  if (*v > 1) return Status::Corruption("bad bool byte");
  return *v != 0;
}

Result<LocalLookupResp> DecodeLocalLookupResp(ByteReader& in) {
  LocalLookupResp resp;
  auto unique = in.GetU8();
  if (!unique.ok()) return unique.status();
  if (*unique > 1) return Status::Corruption("bad bool byte");
  resp.lru_unique = (*unique != 0);
  auto home = in.GetU32();
  if (!home.ok()) return home.status();
  resp.lru_home = *home;
  auto n = in.GetVarint();
  if (!n.ok()) return n.status();
  // The claimed count must fit in what is actually left on the wire
  // (4 bytes per hit) — otherwise a corrupted length field would make us
  // reserve and loop far past the frame.
  if (*n > in.remaining() / 4) return Status::Corruption("too many hits");
  resp.hits.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto h = in.GetU32();
    if (!h.ok()) return h.status();
    resp.hits.push_back(*h);
  }
  auto verdict = in.GetU8();
  if (!verdict.ok()) return verdict.status();
  if (*verdict > static_cast<std::uint8_t>(SelfVerdict::kShed)) {
    return Status::Corruption("bad self verdict");
  }
  resp.verdict = static_cast<SelfVerdict>(*verdict);
  auto ttl = in.GetU32();
  if (!ttl.ok()) return ttl.status();
  // A lease is recorded only for a path the responder holds.
  if (*ttl != 0 && resp.verdict != SelfVerdict::kHeld) {
    return Status::Corruption("lease on a path not held");
  }
  resp.lease_ttl_ms = *ttl;
  return resp;
}

Result<StatsResp> DecodeStatsResp(ByteReader& in) {
  StatsResp stats;
  auto a = in.GetU64();
  if (!a.ok()) return a.status();
  stats.frames_in = *a;
  auto b = in.GetU64();
  if (!b.ok()) return b.status();
  stats.frames_out = *b;
  auto c = in.GetU64();
  if (!c.ok()) return c.status();
  stats.files = *c;
  auto d = in.GetU64();
  if (!d.ok()) return d.status();
  stats.replicas = *d;
  return stats;
}

}  // namespace ghba
