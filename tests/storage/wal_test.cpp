#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace ghba {
namespace {

FileMetadata Md(std::uint64_t inode) {
  FileMetadata md;
  md.inode = inode;
  md.size_bytes = inode * 512;
  return md;
}

WalRecord Insert(std::uint64_t seq, const std::string& path) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.seq = seq;
  record.path = path;
  record.metadata = Md(seq);
  return record;
}

WalRecord Remove(std::uint64_t seq, const std::string& path) {
  WalRecord record;
  record.op = WalOp::kRemove;
  record.seq = seq;
  record.path = path;
  return record;
}

std::vector<std::uint8_t> FramesFor(const std::vector<WalRecord>& records) {
  std::vector<std::uint8_t> out;
  for (const auto& record : records) {
    const auto frame = EncodeWalRecordFrame(record);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

/// Unique scratch directory per test, removed on teardown.
class WalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ghba_wal_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/" + "wal.log";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

TEST(WalCodecTest, PayloadRoundTrip) {
  const auto record = Insert(7, "/a/b/c");
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  ByteReader r(w.data());
  const auto decoded = DecodeWalRecordPayload(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*decoded, record);
}

TEST(WalCodecTest, PayloadOmitsMetadataForRemove) {
  ByteWriter with_md;
  EncodeWalRecordPayload(Insert(1, "/p"), with_md);
  ByteWriter without_md;
  EncodeWalRecordPayload(Remove(1, "/p"), without_md);
  EXPECT_LT(without_md.size(), with_md.size());

  ByteReader r(without_md.data());
  const auto decoded = DecodeWalRecordPayload(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, WalOp::kRemove);
}

TEST(WalCodecTest, RejectsBadOpAndLongPath) {
  ByteWriter w;
  EncodeWalRecordPayload(Insert(1, "/p"), w);
  auto bytes = w.Take();
  bytes[0] = 99;  // op out of range
  ByteReader r(bytes);
  EXPECT_FALSE(DecodeWalRecordPayload(r).ok());

  WalRecord long_path = Remove(1, std::string(kMaxWalPathBytes + 1, 'x'));
  ByteWriter w2;
  EncodeWalRecordPayload(long_path, w2);
  ByteReader r2(w2.data());
  EXPECT_FALSE(DecodeWalRecordPayload(r2).ok());
}

TEST(WalCodecTest, ReplicaInstallRoundTrip) {
  WalRecord record;
  record.op = WalOp::kReplicaInstall;
  record.seq = 11;
  record.owner = 4;
  record.filter_blob = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  ByteReader r(w.data());
  const auto decoded = DecodeWalRecordPayload(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*decoded, record);
}

TEST(WalCodecTest, ReplicaDropRoundTrip) {
  WalRecord record;
  record.op = WalOp::kReplicaDrop;
  record.seq = 12;
  record.owner = 9;
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  ByteReader r(w.data());
  const auto decoded = DecodeWalRecordPayload(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*decoded, record);
}

TEST(WalCodecTest, RejectsRetiredMembershipOp) {
  // Op 7 journaled a server-held cluster view that no longer exists; its
  // number stays reserved and the decoder refuses it.
  WalRecord record;
  record.op = WalOp::kReplicaDrop;
  record.seq = 13;
  record.owner = 3;
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  auto bytes = w.Take();
  bytes[0] = 7;
  ByteReader r(bytes);
  const auto decoded = DecodeWalRecordPayload(r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalCodecTest, RejectsTruncatedReplicaBlob) {
  WalRecord record;
  record.op = WalOp::kReplicaInstall;
  record.seq = 1;
  record.owner = 2;
  record.filter_blob.assign(64, 0x5a);
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  auto bytes = w.Take();
  bytes.resize(bytes.size() - 16);  // blob length now overruns the record
  ByteReader r(bytes);
  EXPECT_FALSE(DecodeWalRecordPayload(r).ok());
}

TEST(WalCodecTest, RejectsTruncatedMemberList) {
  WalRecord record;
  record.op = WalOp::kTxnBegin;
  record.seq = 1;
  record.txn_id = 5;
  record.members = {1, 2, 3, 4, 5, 6, 7, 8};
  ByteWriter w;
  EncodeWalRecordPayload(record, w);
  auto bytes = w.Take();
  bytes.resize(bytes.size() - 6);  // member count now overruns the record
  ByteReader r(bytes);
  EXPECT_FALSE(DecodeWalRecordPayload(r).ok());
}

TEST(WalReplayTest, ReconfigurationRecordsReplayInline) {
  WalRecord install;
  install.op = WalOp::kReplicaInstall;
  install.seq = 2;
  install.owner = 3;
  install.filter_blob = {1, 2, 3};
  WalRecord drop;
  drop.op = WalOp::kReplicaDrop;
  drop.seq = 3;
  drop.owner = 3;
  const auto buf = FramesFor({Insert(1, "/a"), install, drop, Insert(4, "/b")});
  const auto replay = ReplayWalBuffer(buf, 0);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records[1], install);
  EXPECT_EQ(replay.records[2], drop);
}

TEST(WalReplayTest, CleanLogReplaysEverything) {
  const auto buf = FramesFor({Insert(1, "/a"), Remove(2, "/a"), Insert(3, "/b")});
  const auto replay = ReplayWalBuffer(buf, /*from_seq=*/0);
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.scanned_records, 3u);
  EXPECT_EQ(replay.valid_bytes, buf.size());
  EXPECT_FALSE(replay.torn_tail);
}

TEST(WalReplayTest, FromSeqSkipsCheckpointedRecords) {
  const auto buf = FramesFor({Insert(1, "/a"), Insert(2, "/b"), Insert(3, "/c")});
  const auto replay = ReplayWalBuffer(buf, /*from_seq=*/2);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].seq, 3u);
  EXPECT_EQ(replay.scanned_records, 3u);
  EXPECT_EQ(replay.valid_bytes, buf.size());
}

TEST(WalReplayTest, TornTailMidRecordDropsOnlyTail) {
  auto buf = FramesFor({Insert(1, "/a"), Insert(2, "/b")});
  const auto clean = FramesFor({Insert(1, "/a")});
  buf.resize(buf.size() - 3);  // cut the second frame mid-payload
  const auto replay = ReplayWalBuffer(buf, 0);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.valid_bytes, clean.size());
  EXPECT_TRUE(replay.torn_tail);
}

TEST(WalReplayTest, TornTailAtHeaderBoundary) {
  auto buf = FramesFor({Insert(1, "/a")});
  const auto clean_size = buf.size();
  buf.push_back(kWalMagic0);  // lone magic byte: torn header
  const auto replay = ReplayWalBuffer(buf, 0);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.valid_bytes, clean_size);
  EXPECT_TRUE(replay.torn_tail);
}

TEST(WalReplayTest, CorruptCrcStopsReplay) {
  auto buf = FramesFor({Insert(1, "/a"), Insert(2, "/b")});
  buf.back() ^= 0xff;  // flip a payload byte of the second frame
  const auto replay = ReplayWalBuffer(buf, 0);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_TRUE(replay.torn_tail);
}

TEST(WalReplayTest, NonMonotonicSequenceStopsReplay) {
  // A sequence regression marks records that predate the last Reset.
  const auto buf = FramesFor({Insert(5, "/a"), Insert(6, "/b"), Insert(2, "/c")});
  const auto replay = ReplayWalBuffer(buf, 0);
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_TRUE(replay.torn_tail);
}

TEST_F(WalFileTest, AppendCommitReadBack) {
  StorageOptions options;
  options.fsync = FsyncPolicy::kAlways;
  auto wal = WriteAheadLog::Open(path_, options, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Insert(1, "/a")).ok());
  ASSERT_TRUE(wal->Append(Insert(2, "/b")).ok());
  ASSERT_TRUE(wal->Commit().ok());

  const auto bytes = WriteAheadLog::ReadAll(path_);
  ASSERT_TRUE(bytes.ok());
  const auto replay = ReplayWalBuffer(*bytes, 0);
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(wal->size_bytes(), bytes->size());
}

TEST_F(WalFileTest, MissingFileReadsAsEmptyLog) {
  const auto bytes = WriteAheadLog::ReadAll(dir_ + "/absent.log");
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
}

TEST_F(WalFileTest, FsyncAlwaysSyncsEveryCommit) {
  StorageOptions options;
  options.fsync = FsyncPolicy::kAlways;
  auto wal = WriteAheadLog::Open(path_, options, 0);
  ASSERT_TRUE(wal.ok());
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(wal->Append(Insert(seq, "/f")).ok());
    ASSERT_TRUE(wal->Commit().ok());
    EXPECT_EQ(wal->durable_bytes(), wal->size_bytes());
  }
  EXPECT_EQ(wal->fsyncs(), 3u);
  EXPECT_EQ(wal->appends(), 3u);
}

TEST_F(WalFileTest, FsyncIntervalGroupsCommits) {
  StorageOptions options;
  options.fsync = FsyncPolicy::kInterval;
  options.fsync_interval_appends = 3;
  auto wal = WriteAheadLog::Open(path_, options, 0);
  ASSERT_TRUE(wal.ok());
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    ASSERT_TRUE(wal->Append(Insert(seq, "/f")).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  EXPECT_EQ(wal->fsyncs(), 0u);
  EXPECT_EQ(wal->durable_bytes(), 0u);
  ASSERT_TRUE(wal->Append(Insert(3, "/f")).ok());
  ASSERT_TRUE(wal->Commit().ok());  // third append crosses the window
  EXPECT_EQ(wal->fsyncs(), 1u);
  EXPECT_EQ(wal->durable_bytes(), wal->size_bytes());
}

TEST_F(WalFileTest, FsyncNeverReportsHonestDurableBytes) {
  StorageOptions options;
  options.fsync = FsyncPolicy::kNever;
  auto wal = WriteAheadLog::Open(path_, options, 0);
  ASSERT_TRUE(wal.ok());
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(wal->Append(Insert(seq, "/f")).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  // Nothing was ever forced out: the durable high-water mark stays at 0,
  // which is exactly the bounded-not-silent loss contract.
  EXPECT_EQ(wal->fsyncs(), 0u);
  EXPECT_EQ(wal->durable_bytes(), 0u);
  EXPECT_GT(wal->size_bytes(), 0u);

  ASSERT_TRUE(wal->Sync().ok());  // explicit barrier still works
  EXPECT_EQ(wal->durable_bytes(), wal->size_bytes());
}

TEST_F(WalFileTest, OpenAtOffsetTruncatesTornTail) {
  StorageOptions options;
  {
    auto wal = WriteAheadLog::Open(path_, options, 0);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Insert(1, "/a")).ok());
    ASSERT_TRUE(wal->Append(Insert(2, "/b")).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  // Simulate a torn tail: append garbage, then reopen at the clean prefix.
  auto bytes = WriteAheadLog::ReadAll(path_);
  ASSERT_TRUE(bytes.ok());
  const auto replay = ReplayWalBuffer(*bytes, 0);
  {
    std::filesystem::resize_file(path_, bytes->size() + 7);
    auto wal = WriteAheadLog::Open(path_, options, replay.valid_bytes);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Insert(3, "/c")).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  const auto after = WriteAheadLog::ReadAll(path_);
  ASSERT_TRUE(after.ok());
  const auto replay2 = ReplayWalBuffer(*after, 0);
  EXPECT_EQ(replay2.records.size(), 3u);
  EXPECT_FALSE(replay2.torn_tail);
}

TEST_F(WalFileTest, ResetEmptiesTheLog) {
  StorageOptions options;
  auto wal = WriteAheadLog::Open(path_, options, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Insert(1, "/a")).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->size_bytes(), 0u);
  EXPECT_EQ(wal->durable_bytes(), 0u);

  const auto bytes = WriteAheadLog::ReadAll(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
}

}  // namespace
}  // namespace ghba
