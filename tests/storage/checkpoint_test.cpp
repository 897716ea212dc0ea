#include "storage/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace ghba {
namespace {

FileMetadata Md(std::uint64_t inode) {
  FileMetadata md;
  md.inode = inode;
  md.mode = 0644;
  md.size_bytes = inode << 10;
  return md;
}

CheckpointState SampleState(std::uint64_t wal_seq) {
  CheckpointState state;
  state.wal_seq = wal_seq;
  state.files.emplace_back("/a/b", Md(1));
  state.files.emplace_back("/c", Md(2));
  state.has_filter = true;
  auto filter = CountingBloomFilter::ForCapacity(64, 8.0, /*seed=*/5);
  filter.Add("/a/b");
  filter.Add("/c");
  state.filter = std::move(filter);
  return state;
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ghba_ckpt_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST(CheckpointCodecTest, RoundTrip) {
  const auto state = SampleState(42);
  const auto bytes = EncodeCheckpoint(state);
  const auto decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->wal_seq, 42u);
  ASSERT_EQ(decoded->files.size(), 2u);
  EXPECT_EQ(decoded->files[0].first, "/a/b");
  EXPECT_EQ(decoded->files[0].second, state.files[0].second);
  ASSERT_TRUE(decoded->has_filter);
  EXPECT_TRUE(decoded->filter.MayContain("/a/b"));
  EXPECT_EQ(decoded->filter.num_counters(), state.filter.num_counters());
}

TEST(CheckpointCodecTest, MinimalStateRoundTrips) {
  CheckpointState state;  // no files, no filter, no txn state
  const auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->wal_seq, 0u);
  EXPECT_TRUE(decoded->files.empty());
  EXPECT_FALSE(decoded->has_filter);
}

TEST(CheckpointCodecTest, TxnStateRoundTrips) {
  auto state = SampleState(7);
  TxnPendingOp pending;
  pending.txn_id = 77;
  pending.subop = TxnSubOp::kInsert;
  pending.path = "/txn/dst";
  pending.metadata = Md(9);
  pending.coordinator = 2;
  pending.participants = {2, 5};
  state.txn_pending.push_back(pending);
  TxnPendingOp remove;
  remove.txn_id = 78;
  remove.subop = TxnSubOp::kRemove;  // no metadata on the wire
  remove.path = "/txn/src";
  remove.coordinator = 4;
  remove.participants = {4};
  state.txn_pending.push_back(remove);
  state.txn_decisions.push_back({76, TxnCoordState::kCommitted});
  state.txn_decisions.push_back({77, TxnCoordState::kAborted});
  const auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->txn_pending, state.txn_pending);
  EXPECT_EQ(decoded->txn_decisions, state.txn_decisions);
}

TEST(CheckpointCodecTest, RejectsAbsurdMemberCount) {
  // One in-doubt remove with no participants and an empty path: the body
  // ends [participant count][path length 0][decision count 0]. Claim far
  // more participants than bytes remain and fix up the CRC.
  auto state = SampleState(3);
  TxnPendingOp op;
  op.txn_id = 9;
  op.subop = TxnSubOp::kRemove;
  state.txn_pending.push_back(op);
  auto bytes = EncodeCheckpoint(state);
  bytes[bytes.size() - 3] = 0x7f;
  const std::size_t body_len = bytes.size() - kCheckpointHeaderBytes;
  const std::uint32_t crc =
      Crc32(bytes.data() + kCheckpointHeaderBytes, body_len);
  bytes[16] = static_cast<std::uint8_t>(crc);
  bytes[17] = static_cast<std::uint8_t>(crc >> 8);
  bytes[18] = static_cast<std::uint8_t>(crc >> 16);
  bytes[19] = static_cast<std::uint8_t>(crc >> 24);
  const auto decoded = DecodeCheckpoint(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointCodecTest, DecisionStateIsOneOfTheTwoVerdicts) {
  // The body ends with the one decision row's state byte. 0 was v5's
  // "begun"; an undecided txn no longer has a row.
  auto state = SampleState(2);
  state.txn_decisions.push_back({77, TxnCoordState::kAborted});
  for (const std::uint8_t byte : {0, 3}) {
    auto bytes = EncodeCheckpoint(state);
    bytes.back() = byte;
    const std::size_t body_len = bytes.size() - kCheckpointHeaderBytes;
    const std::uint32_t crc =
        Crc32(bytes.data() + kCheckpointHeaderBytes, body_len);
    for (int i = 0; i < 4; ++i) {
      bytes[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    const auto decoded = DecodeCheckpoint(bytes);
    ASSERT_FALSE(decoded.ok()) << int{byte};
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << int{byte};
  }
}

TEST(CheckpointCodecTest, RejectsCorruptBody) {
  auto bytes = EncodeCheckpoint(SampleState(1));
  bytes.back() ^= 0x01;  // body CRC mismatch
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

TEST(CheckpointCodecTest, RejectsBadMagicVersionAndLength) {
  const auto good = EncodeCheckpoint(SampleState(1));
  {
    auto bytes = good;
    bytes[0] = 0x00;
    EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
  }
  {
    auto bytes = good;
    bytes[2] = 0xee;  // version: foreign, not corrupt
    const auto decoded = DecodeCheckpoint(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto bytes = good;
    bytes.resize(bytes.size() - 1);  // body shorter than header claims
    EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
  }
}

TEST(CheckpointCodecTest, HeaderCapsBodyLengthBeforeAllocation) {
  ByteWriter w;
  w.PutU8(kCheckpointMagic0);
  w.PutU8(kCheckpointMagic1);
  w.PutU16(kCheckpointVersion);
  w.PutU64(1);
  w.PutU32(0xffffffff);  // absurd body_len
  w.PutU32(0);
  ByteReader r(w.data());
  EXPECT_FALSE(DecodeCheckpointHeader(r).ok());
}

TEST(CheckpointCodecTest, FileNamesSortByWalSeq) {
  EXPECT_LT(CheckpointFileName(9), CheckpointFileName(10));
  EXPECT_LT(CheckpointFileName(99), CheckpointFileName(1000));
}

TEST_F(CheckpointDirTest, WriteThenLoadNewest) {
  ASSERT_TRUE(WriteCheckpointFile(dir_, SampleState(10), /*keep=*/2).ok());
  ASSERT_TRUE(WriteCheckpointFile(dir_, SampleState(20), /*keep=*/2).ok());

  const auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->state.wal_seq, 20u);
  EXPECT_FALSE(loaded->used_fallback);
  EXPECT_FALSE(loaded->file.empty());
}

TEST_F(CheckpointDirTest, EmptyDirLoadsEmptyState) {
  const auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->state.wal_seq, 0u);
  EXPECT_TRUE(loaded->file.empty());
  EXPECT_FALSE(loaded->used_fallback);
}

TEST_F(CheckpointDirTest, CorruptNewestFallsBackToOlder) {
  ASSERT_TRUE(WriteCheckpointFile(dir_, SampleState(10), 2).ok());
  const auto newest = WriteCheckpointFile(dir_, SampleState(20), 2);
  ASSERT_TRUE(newest.ok());

  // Flip one byte in the newest file (half-written before a crash).
  {
    std::fstream f(*newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    const char garbage = '\xff';
    f.write(&garbage, 1);
  }
  const auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->state.wal_seq, 10u);
  EXPECT_TRUE(loaded->used_fallback);
}

TEST_F(CheckpointDirTest, PruneKeepsOnlyNewest) {
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(WriteCheckpointFile(dir_, SampleState(seq), /*keep=*/2).ok());
  }
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  const auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->state.wal_seq, 5u);
}

TEST_F(CheckpointDirTest, TempFilesAreIgnoredByLoader) {
  ASSERT_TRUE(WriteCheckpointFile(dir_, SampleState(7), 2).ok());
  {
    std::ofstream f(dir_ + "/" + CheckpointFileName(99) + ".tmp",
                    std::ios::binary);
    f << "unfinished";
  }
  const auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->state.wal_seq, 7u);
}

}  // namespace
}  // namespace ghba
