#include "rpc/protocol.hpp"

#include "bloom/compressed.hpp"
#include "bloom/counting_bloom_filter.hpp"

#include <gtest/gtest.h>

namespace ghba {
namespace {

TEST(ProtocolTest, PathRequestRoundTrip) {
  const auto frame = EncodePathRequest(MsgType::kVerify, "/a/b/c");
  ByteReader in(frame);
  const auto type = DecodeType(in);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kVerify);
  EXPECT_EQ(*in.GetString(), "/a/b/c");
}

TEST(ProtocolTest, UnknownTypeRejected) {
  // 12 is the retired counters-only stats, 21 and 22 the retired
  // membership-push types, 24 the retired lease revocation, 25 the retired
  // txn begin.
  for (const std::uint16_t type : {0, 12, 21, 22, 24, 25, 32, 999}) {
    ByteWriter w;
    w.PutU16(type);
    ByteReader in(w.data());
    EXPECT_FALSE(DecodeType(in).ok()) << type;
  }
}

TEST(ProtocolTest, StatusRespRoundTrip) {
  const auto frame = EncodeStatusResp(Status::NotFound("gone"));
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->has_payload);
  EXPECT_EQ(env->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(env->status.message(), "gone");
}

TEST(ProtocolTest, OkStatusRoundTrip) {
  const auto frame = EncodeStatusResp(Status::Ok());
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->has_payload);
  EXPECT_TRUE(env->status.ok());
}

TEST(ProtocolTest, BoolRespRoundTrip) {
  for (const bool value : {true, false}) {
    const auto frame = EncodeBoolResp(value);
    ByteReader in(frame);
    const auto env = OpenEnvelope(in);
    ASSERT_TRUE(env.ok());
    ASSERT_TRUE(env->has_payload);
    const auto decoded = DecodeBoolResp(in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
  }
}

TEST(ProtocolTest, LocalLookupRespRoundTrip) {
  LocalLookupResp resp;
  resp.lru_unique = true;
  resp.lru_home = 7;
  resp.hits = {1, 5, 9};
  const auto frame = EncodeLocalLookupResp(resp);
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto decoded = DecodeLocalLookupResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->lru_unique);
  EXPECT_EQ(decoded->lru_home, 7u);
  EXPECT_EQ(decoded->hits, (std::vector<MdsId>{1, 5, 9}));
  EXPECT_EQ(decoded->verdict, SelfVerdict::kAbsent);
  EXPECT_EQ(decoded->lease_ttl_ms, 0u);
}

TEST(ProtocolTest, V6SelfAnswerRoundTrip) {
  for (const SelfVerdict verdict :
       {SelfVerdict::kAbsent, SelfVerdict::kHeld, SelfVerdict::kShed}) {
    LocalLookupResp resp;
    resp.hits = {2};
    resp.verdict = verdict;
    resp.lease_ttl_ms = verdict == SelfVerdict::kHeld ? 1500 : 0;
    const auto frame = EncodeLocalLookupResp(resp);
    ByteReader in(frame);
    ASSERT_TRUE(OpenEnvelope(in).ok());
    const auto decoded = DecodeLocalLookupResp(in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, resp);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST(ProtocolTest, V6SelfAnswerRejectsBadVerdictAndStrayLease) {
  const auto encode = [](std::uint8_t verdict, std::uint32_t ttl) {
    ByteWriter w;
    w.PutU8(0);             // lru_unique
    w.PutU32(kInvalidMds);  // lru_home
    w.PutVarint(0);         // no hits
    w.PutU8(verdict);
    w.PutU32(ttl);
    return w.Take();
  };
  // A verdict byte past kShed, and a lease on a path the responder does
  // not hold, are both mangled frames.
  for (const auto& body : {encode(3, 0), encode(0, 10), encode(2, 10)}) {
    ByteReader in(body);
    const auto decoded = DecodeLocalLookupResp(in);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
  const auto held = encode(1, 10);
  ByteReader in(held);
  EXPECT_TRUE(DecodeLocalLookupResp(in).ok());
}

TEST(ProtocolTest, ProbeRequestCarriesTheLeaseFlag) {
  for (const MsgType type : {MsgType::kLookupLocal, MsgType::kGroupProbe}) {
    for (const bool lease : {false, true}) {
      const auto frame = EncodeProbeRequest(type, "/p/q", lease);
      ByteReader in(frame);
      const auto decoded_type = DecodeType(in);
      ASSERT_TRUE(decoded_type.ok());
      EXPECT_EQ(*decoded_type, type);
      const auto req = DecodeProbeRequest(in);
      ASSERT_TRUE(req.ok());
      EXPECT_EQ(req->path, "/p/q");
      EXPECT_EQ(req->lease, lease);
    }
  }
  // No v5 fallback: a bare path request is missing the flag.
  const auto bare = EncodePathRequest(MsgType::kLookupLocal, "/p/q");
  ByteReader in(bare);
  ASSERT_TRUE(DecodeType(in).ok());
  EXPECT_FALSE(DecodeProbeRequest(in).ok());
  // The flag is a strict bool byte.
  ByteWriter w;
  w.PutString("/p/q");
  w.PutU8(2);
  ByteReader bad(w.data());
  const auto decoded = DecodeProbeRequest(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, InsertCarriesMetadata) {
  FileMetadata md;
  md.inode = 99;
  md.data_servers = {1, 2};
  const auto frame = EncodeInsert("/x", md);
  ByteReader in(frame);
  ASSERT_EQ(*DecodeType(in), MsgType::kInsert);
  EXPECT_EQ(*in.GetString(), "/x");
  const auto decoded = FileMetadata::Deserialize(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, md);
}

TEST(ProtocolTest, ReplicaInstallCarriesFilter) {
  auto bf = BloomFilter::ForCapacity(100, 8.0, 5);
  bf.Add("/file");
  const auto frame = EncodeReplicaInstall(3, bf);
  ByteReader in(frame);
  ASSERT_EQ(*DecodeType(in), MsgType::kReplicaInstall);
  EXPECT_EQ(*in.GetU32(), 3u);
  const auto decoded = DecompressFilter(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->MayContain("/file"));
}

TEST(ProtocolTest, LeaseGrantRespRoundTrip) {
  LeaseGrantResp resp;
  resp.held = true;
  resp.ttl_ms = 2000;
  resp.home = 5;
  const auto frame = EncodeLeaseGrantResp(resp);
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto decoded = DecodeLeaseGrantResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, resp);
}

TEST(ProtocolTest, LeaseRefusalRoundTrip) {
  // held=false, ttl 0: "not here" — a cache miss, never a negative.
  const auto frame = EncodeLeaseGrantResp(LeaseGrantResp{});
  ByteReader in(frame);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeLeaseGrantResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->held);
  EXPECT_EQ(decoded->ttl_ms, 0u);
}

TEST(ProtocolTest, LeaseReplyTellsStoredWithoutLeaseFromNotStored) {
  // held=true, ttl 0: the path is here but no lease was recorded, so the
  // reply still answers as a verify.
  LeaseGrantResp stored;
  stored.held = true;
  stored.home = 4;
  const auto frame = EncodeLeaseGrantResp(stored);
  ByteReader in(frame);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeLeaseGrantResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stored);
  // A lease on a path not held is a mangled frame.
  ByteWriter w;
  w.PutU8(0);
  w.PutU32(100);
  w.PutU32(kInvalidMds);
  ByteReader bad(w.data());
  EXPECT_EQ(DecodeLeaseGrantResp(bad).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, V4PathRequestsDecode) {
  const auto frame = EncodePathRequest(MsgType::kLeaseGrant, "/v4/p");
  ByteReader in(frame);
  const auto decoded = DecodeType(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, MsgType::kLeaseGrant);
  EXPECT_EQ(*in.GetString(), "/v4/p");
}

TEST(ProtocolTest, RetryAfterStatusRoundTrips) {
  const auto frame = EncodeStatusResp(Status::RetryAfter("hot shard"));
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->has_payload);
  EXPECT_EQ(env->status.code(), StatusCode::kRetryAfter);
  EXPECT_EQ(env->status.message(), "hot shard");
}

TEST(ProtocolTest, TruncatedEnvelopeRejected) {
  ByteReader in(std::span<const std::uint8_t>{});
  EXPECT_FALSE(OpenEnvelope(in).ok());
}

TEST(ProtocolTest, BadEnvelopeByteRejected) {
  const std::uint8_t bad[] = {7};
  ByteReader in(bad);
  EXPECT_FALSE(OpenEnvelope(in).ok());
}

// --- malformed-frame hardening: every decoder must answer kCorruption,
// never mis-parse or read out of bounds, when fed mangled bytes ---

TEST(ProtocolHardeningTest, TimedOutStatusRoundTrips) {
  const auto frame = EncodeStatusResp(Status::TimedOut("deadline"));
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->has_payload);
  EXPECT_EQ(env->status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(env->status.message(), "deadline");
}

TEST(ProtocolHardeningTest, OutOfRangeStatusCodeRejected) {
  ByteWriter w;
  w.PutU8(0);    // envelope: status follows
  w.PutU8(200);  // no such StatusCode
  w.PutString("");
  ByteReader in(w.data());
  const auto env = OpenEnvelope(in);
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolHardeningTest, BadBoolByteRejected) {
  ByteWriter w;
  w.PutU8(1);  // envelope: payload
  w.PutU8(7);  // neither 0 nor 1: a flipped bit, not a truthy value
  ByteReader in(w.data());
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeBoolResp(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolHardeningTest, LyingHitCountRejected) {
  // The count field claims far more hits than the frame has bytes for.
  ByteWriter w;
  w.PutU8(1);         // envelope
  w.PutU8(0);         // lru_unique
  w.PutU32(0);        // lru_home
  w.PutVarint(1000);  // claimed hits, no bytes behind them
  ByteReader in(w.data());
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeLocalLookupResp(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolHardeningTest, LyingFileCountRejected) {
  ByteWriter w;
  w.PutU8(1);  // envelope
  w.PutVarint(1ULL << 40);
  ByteReader in(w.data());
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeFileListResp(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolHardeningTest, EveryTruncationOfLocalLookupRejected) {
  LocalLookupResp resp;
  resp.lru_unique = true;
  resp.lru_home = 3;
  resp.hits = {1, 2, 3};
  const auto full = EncodeLocalLookupResp(resp);
  // Every proper prefix must fail cleanly: either the envelope itself is
  // short, or the body decoder reports the truncation.
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader in(std::span<const std::uint8_t>(full.data(), len));
    const auto env = OpenEnvelope(in);
    if (!env.ok()) continue;
    EXPECT_FALSE(DecodeLocalLookupResp(in).ok()) << "prefix length " << len;
  }
}

TEST(ProtocolHardeningTest, EveryTruncationOfV6LocalLookupRejected) {
  // The v6 self-answer block (verdict + lease TTL) closes the frame, so a
  // prefix that keeps every v5 field but cuts the block must fail too.
  LocalLookupResp resp;
  resp.lru_unique = true;
  resp.lru_home = 2;
  resp.hits = {0, 2};
  resp.verdict = SelfVerdict::kHeld;
  resp.lease_ttl_ms = 600000;
  const auto full = EncodeLocalLookupResp(resp);
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader in(std::span<const std::uint8_t>(full.data(), len));
    const auto env = OpenEnvelope(in);
    if (!env.ok()) continue;
    EXPECT_FALSE(DecodeLocalLookupResp(in).ok()) << "prefix length " << len;
  }
  ByteReader in(full);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto decoded = DecodeLocalLookupResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, resp);
}

TEST(ProtocolHardeningTest, EveryTruncationOfLeaseGrantRejected) {
  LeaseGrantResp resp;
  resp.held = true;
  resp.ttl_ms = 1234;
  resp.home = 9;
  const auto full = EncodeLeaseGrantResp(resp);
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader in(std::span<const std::uint8_t>(full.data(), len));
    const auto env = OpenEnvelope(in);
    if (!env.ok()) continue;
    EXPECT_FALSE(DecodeLeaseGrantResp(in).ok()) << "prefix length " << len;
  }
}

// --- regression tests distilled from the fuzz corpus (fuzz/) ---
// Each reproduces a frame shape the mutation loop generates constantly:
// length prefixes promising more than the payload holds, and geometry
// fields big enough that decoding must fail *before* allocating.

TEST(ProtocolFuzzRegressionTest, GiantBitVectorPrefixFailsBeforeAllocating) {
  // Raw-mode compressed filter whose bit count claims 2^33 bits (1 GiB)
  // backed by zero payload bytes. Must be rejected by the remaining-bytes
  // check, not by attempting the allocation.
  ByteWriter w;
  w.PutU8(0);  // compression mode: raw
  w.PutU32(4);
  w.PutU64(0);
  w.PutU64(0);
  w.PutVarint(1ULL << 33);  // num_bits with no words behind it
  ByteReader in(w.data());
  const auto filter = DecompressFilter(in);
  ASSERT_FALSE(filter.ok());
  EXPECT_EQ(filter.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolFuzzRegressionTest, OverCapBitVectorPrefixRejected) {
  ByteWriter w;
  w.PutU8(0);
  w.PutU32(4);
  w.PutU64(0);
  w.PutU64(0);
  w.PutVarint((1ULL << 33) + 64);  // just past the wire geometry cap
  for (int i = 0; i < 1024; ++i) w.PutU64(0);
  ByteReader in(w.data());
  EXPECT_FALSE(DecompressFilter(in).ok());
}

TEST(ProtocolFuzzRegressionTest, GapModePopcountBombRejected) {
  // Gap mode claiming a billion set bits in a ~20-byte frame: every gap
  // costs at least one wire byte, so the popcount check fires first.
  ByteWriter w;
  w.PutU8(1);  // compression mode: gap
  w.PutU32(4);
  w.PutU64(7);
  w.PutU64(1);
  w.PutVarint(1ULL << 32);  // num_bits (within cap)
  w.PutVarint(1ULL << 30);  // popcount far beyond the payload
  w.PutVarint(1);           // a single actual gap
  ByteReader in(w.data());
  const auto filter = DecompressFilter(in);
  ASSERT_FALSE(filter.ok());
  EXPECT_EQ(filter.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolFuzzRegressionTest, ReplicaInstallTruncatedAtEveryByteRejected) {
  // The full request-parse arm for kReplicaInstall: every strict prefix of
  // a valid frame must park in a Status, never crash or succeed.
  auto bf = BloomFilter::ForCapacity(256, 8.0, 3);
  for (int i = 0; i < 256; ++i) bf.Add("f" + std::to_string(i));
  const auto full = EncodeReplicaInstall(9, bf);
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader in(std::span<const std::uint8_t>(full.data(), len));
    const auto type = DecodeType(in);
    if (!type.ok()) continue;
    ASSERT_EQ(*type, MsgType::kReplicaInstall);
    const auto owner = in.GetU32();
    if (!owner.ok()) continue;
    EXPECT_FALSE(DecompressFilter(in).ok()) << "prefix length " << len;
  }
}

TEST(ProtocolFuzzRegressionTest, CountingFilterLengthBombRejected) {
  // Serialized counting filter whose counter-byte length exceeds both the
  // geometry cap and the payload; must fail before GetBytes allocates.
  ByteWriter w;
  w.PutU32(4);              // k
  w.PutU64(0);              // seed
  w.PutU64(10);             // items
  w.PutVarint(1ULL << 40);  // counter bytes: over the cap
  ByteReader in(w.data());
  const auto cbf = CountingBloomFilter::Deserialize(in);
  ASSERT_FALSE(cbf.ok());
  EXPECT_EQ(cbf.status().code(), StatusCode::kCorruption);

  ByteWriter w2;
  w2.PutU32(4);
  w2.PutU64(0);
  w2.PutU64(10);
  w2.PutVarint(1 << 20);  // within the cap but beyond the payload
  w2.PutU8(0xff);
  ByteReader in2(w2.data());
  EXPECT_FALSE(CountingBloomFilter::Deserialize(in2).ok());
}

TEST(ProtocolFuzzRegressionTest, NonzeroTailBitsRejected) {
  // A raw bitvector whose final word sets bits past num_bits: accepting it
  // would make equal-looking filters compare unequal after a round trip.
  ByteWriter w;
  w.PutVarint(60);         // num_bits: one partial word
  w.PutU64(~0ULL);         // all 64 bits set, 4 of them out of range
  ByteReader in(w.data());
  const auto bv = BitVector::Deserialize(in);
  ASSERT_FALSE(bv.ok());
  EXPECT_EQ(bv.status().code(), StatusCode::kCorruption);
}

// --- observability messages (kStatsSnapshot / kReportOutcome) ---

TEST(ProtocolBatchTest, BatchRequestRoundTrips) {
  FileMetadata md;
  md.inode = 7;
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodeInsert("/b/a", md));
  subs.push_back(EncodePathRequest(MsgType::kVerify, "/b/a"));
  subs.push_back(EncodeProbeRequest(MsgType::kLookupLocal, "/b/c", false));
  const auto frame = EncodeBatch(subs);

  ByteReader in(frame);
  const auto type = DecodeType(in);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kBatch);
  const auto out = DecodeBatchRequest(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) EXPECT_EQ((*out)[i], subs[i]);
}

TEST(ProtocolBatchTest, NonBatchableSubFrameRejected) {
  for (const MsgType type :
       {MsgType::kShutdown, MsgType::kTouchLru, MsgType::kReportOutcome,
        MsgType::kBatch, MsgType::kExportFiles}) {
    EXPECT_FALSE(Batchable(RowOf(type)));
    std::vector<std::vector<std::uint8_t>> subs;
    subs.push_back(EncodePathRequest(MsgType::kVerify, "/ok"));
    subs.push_back(EncodeHeader(type));
    const auto frame = EncodeBatch(subs);
    ByteReader in(frame);
    ASSERT_TRUE(DecodeType(in).ok());
    EXPECT_FALSE(DecodeBatchRequest(in).ok())
        << "type " << static_cast<int>(type) << " slipped into a batch";
  }
  EXPECT_TRUE(Batchable(RowOf(MsgType::kInsert)));
  EXPECT_TRUE(Batchable(RowOf(MsgType::kVerify)));
  EXPECT_TRUE(Batchable(RowOf(MsgType::kLookupLocal)));
}

TEST(ProtocolBatchTest, CountBombRejectedBeforeAllocating) {
  // Hand-craft a kBatch frame whose count exceeds kMaxBatchFrames: the
  // decoder must reject on the count alone, not trust it and allocate.
  ByteWriter out;
  out.PutU16(static_cast<std::uint16_t>(MsgType::kBatch));
  out.PutVarint(kMaxBatchFrames + 1);
  const auto frame = out.Take();
  ByteReader in(frame);
  ASSERT_TRUE(DecodeType(in).ok());
  EXPECT_FALSE(DecodeBatchRequest(in).ok());
}

TEST(ProtocolBatchTest, LyingSubFrameLengthRejected) {
  // A sub-frame length pointing past the payload end must be rejected.
  ByteWriter out;
  out.PutU16(static_cast<std::uint16_t>(MsgType::kBatch));
  out.PutVarint(1);
  out.PutVarint(1000);  // claims 1000 bytes; none follow
  const auto frame = out.Take();
  ByteReader in(frame);
  ASSERT_TRUE(DecodeType(in).ok());
  EXPECT_FALSE(DecodeBatchRequest(in).ok());
}

TEST(ProtocolBatchTest, BatchRespRoundTripsAndTruncationsRejected) {
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodeBoolResp(true));
  subs.push_back(EncodeStatusResp(Status::NotFound("nope")));
  const auto frame = EncodeBatchResp(subs);

  ByteReader in(frame);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto out = DecodeBatchResp(in);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0], subs[0]);
  EXPECT_EQ((*out)[1], subs[1]);

  for (std::size_t cut = 1; cut < frame.size(); ++cut) {
    const std::vector<std::uint8_t> part(frame.begin(),
                                         frame.begin() +
                                             static_cast<std::ptrdiff_t>(cut));
    ByteReader pin(part);
    auto penv = OpenEnvelope(pin);
    if (!penv.ok() || !penv->has_payload) continue;
    EXPECT_FALSE(DecodeBatchResp(pin).ok()) << "cut at " << cut;
  }
}

TEST(ProtocolBatchTest, MangledSubFrameEnvelopeFailsThatSlotOnly) {
  // Regression for the batch envelope layering: each sub-frame of a batch
  // response carries its own envelope byte. Mangling one slot's envelope
  // must corrupt exactly that slot — the outer framing still parses (the
  // sub-frames are length-delimited opaque bytes) and the intact sibling
  // still decodes. A bug that made the outer decoder peek into sub-frame
  // envelopes would fail the whole batch here.
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodeBoolResp(true));
  subs.push_back(EncodeStatusResp(Status::Ok()));
  auto frame = EncodeBatchResp(subs);

  // Locate sub-frame 0's envelope byte: outer envelope, varint count (=2),
  // varint len of sub 0 — with both subs short, each varint is one byte.
  const std::size_t sub0_envelope = 3;
  ASSERT_EQ(frame[sub0_envelope], 1u);  // bool resp: typed payload follows
  frame[sub0_envelope] = 0x7F;          // neither 0 nor 1: corrupt

  ByteReader in(frame);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto out = DecodeBatchResp(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);

  ByteReader sub0((*out)[0]);
  auto env0 = OpenEnvelope(sub0);
  ASSERT_FALSE(env0.ok());
  EXPECT_EQ(env0.status().code(), StatusCode::kCorruption);

  ByteReader sub1((*out)[1]);
  auto env1 = OpenEnvelope(sub1);
  ASSERT_TRUE(env1.ok());
  EXPECT_FALSE(env1->has_payload);
  EXPECT_TRUE(env1->status.ok());
}

TEST(ProtocolBatchTest, MangledOuterEnvelopeRejectsTheBatch) {
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodeBoolResp(false));
  auto frame = EncodeBatchResp(subs);
  ASSERT_EQ(frame[0], 1u);
  frame[0] = 0x2A;  // corrupt the batch's own envelope byte
  ByteReader in(frame);
  auto env = OpenEnvelope(in);
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolVersionTest, VersionRespRoundTrips) {
  const auto frame = EncodeVersionResp(kProtocolVersion);
  ByteReader in(frame);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto version = DecodeVersionResp(in);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, kProtocolVersion);
}

TEST(ProtocolObservabilityTest, StatsSnapshotRoundTripsEveryField) {
  StatsSnapshotResp snap;
  snap.mds_id = 3;
  snap.frames_in = 101;
  snap.frames_out = 99;
  snap.files = 12345;
  snap.replicas = 5;
  snap.lookup_state_bytes = 1 << 20;
  snap.metrics.counters["lookups.l1"] = 70;
  snap.metrics.counters["lookups.miss"] = 2;
  snap.metrics.counters["serve.verifies"] = 0;
  HistogramStats lat;
  lat.count = 72;
  lat.sum = 36.0;
  lat.min = 0.1;
  lat.max = 4.25;
  lat.p50 = 0.4;
  lat.p99 = 3.9;
  snap.metrics.histograms["latency.lookup_ms"] = lat;

  const auto frame = EncodeStatsSnapshotResp(snap);
  ByteReader in(frame);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto decoded = DecodeStatsSnapshotResp(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->mds_id, 3u);
  EXPECT_EQ(decoded->frames_in, 101u);
  EXPECT_EQ(decoded->frames_out, 99u);
  EXPECT_EQ(decoded->files, 12345u);
  EXPECT_EQ(decoded->replicas, 5u);
  EXPECT_EQ(decoded->lookup_state_bytes, 1u << 20);
  EXPECT_EQ(decoded->metrics.counters, snap.metrics.counters);
  ASSERT_EQ(decoded->metrics.histograms.size(), 1u);
  const auto& h = decoded->metrics.histograms.at("latency.lookup_ms");
  EXPECT_EQ(h.count, 72u);
  EXPECT_DOUBLE_EQ(h.sum, 36.0);
  EXPECT_DOUBLE_EQ(h.min, 0.1);
  EXPECT_DOUBLE_EQ(h.max, 4.25);
  EXPECT_DOUBLE_EQ(h.p50, 0.4);
  EXPECT_DOUBLE_EQ(h.p99, 3.9);
}

TEST(ProtocolObservabilityTest, StatsSnapshotTruncatedAtEveryByteRejected) {
  StatsSnapshotResp snap;
  snap.mds_id = 1;
  snap.metrics.counters["c"] = 9;
  HistogramStats h;
  h.count = 1;
  h.sum = 2.0;
  snap.metrics.histograms["h"] = h;
  const auto frame = EncodeStatsSnapshotResp(snap);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    ByteReader in(std::span<const std::uint8_t>(frame.data(), len));
    const auto env = OpenEnvelope(in);
    if (!env.ok()) continue;  // truncated inside the envelope byte
    EXPECT_FALSE(DecodeStatsSnapshotResp(in).ok()) << "len=" << len;
  }
}

TEST(ProtocolObservabilityTest, StatsSnapshotAbsurdCountsRejected) {
  // A counter count claiming more entries than the payload could hold must
  // fail before any allocation, not while looping.
  ByteWriter w;
  w.PutU32(0);             // mds_id
  for (int i = 0; i < 5; ++i) w.PutU64(0);  // fixed header fields
  w.PutVarint(1ULL << 40);  // counters "present"
  ByteReader in(w.data());
  const auto decoded = DecodeStatsSnapshotResp(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolObservabilityTest, OutcomeReportRoundTrips) {
  OutcomeReport report;
  report.level = 3;
  report.found = true;
  report.false_route = true;
  report.elapsed_ns = 123456789;
  report.peers_contacted = 4;
  report.retries = 2;
  const auto frame = EncodeOutcomeReport(report);
  ByteReader in(frame);
  ASSERT_EQ(*DecodeType(in), MsgType::kReportOutcome);
  const auto decoded = DecodeOutcomeReport(in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->level, 3);
  EXPECT_TRUE(decoded->found);
  EXPECT_TRUE(decoded->false_route);
  EXPECT_EQ(decoded->elapsed_ns, 123456789u);
  EXPECT_EQ(decoded->peers_contacted, 4u);
  EXPECT_EQ(decoded->retries, 2u);
}

TEST(ProtocolObservabilityTest, OutcomeReportBadLevelRejected) {
  for (const std::uint8_t level : {0, 5, 255}) {
    OutcomeReport report;
    report.level = 1;
    auto frame = EncodeOutcomeReport(report);
    frame[2] = level;  // [u16 type][level]...
    ByteReader in(frame);
    ASSERT_EQ(*DecodeType(in), MsgType::kReportOutcome);
    const auto decoded = DecodeOutcomeReport(in);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(ProtocolObservabilityTest, OutcomeReportBadBoolByteRejected) {
  OutcomeReport report;
  report.level = 2;
  auto frame = EncodeOutcomeReport(report);
  frame[3] = 7;  // `found` byte must be 0 or 1
  ByteReader in(frame);
  ASSERT_EQ(*DecodeType(in), MsgType::kReportOutcome);
  const auto decoded = DecodeOutcomeReport(in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace ghba
