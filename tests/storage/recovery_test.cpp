#include "storage/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/checkpoint.hpp"
#include "storage/engine.hpp"

namespace ghba {
namespace {

FileMetadata Md(std::uint64_t inode) {
  FileMetadata md;
  md.inode = inode;
  md.size_bytes = inode << 9;
  return md;
}

CountingBloomFilter Template() {
  return CountingBloomFilter::ForCapacity(256, 8.0, /*seed=*/11);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ghba_rec_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    wal_path_ = dir_ + "/" + kWalFileName;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StorageOptions Options(FsyncPolicy fsync = FsyncPolicy::kAlways) {
    StorageOptions options;
    options.data_dir = dir_;
    options.fsync = fsync;
    return options;
  }

  /// Open an engine, log `count` inserts named /f<base+i>, close it.
  void RunInserts(const StorageOptions& options, std::uint64_t base,
                  std::uint64_t count) {
    auto engine = StorageEngine::Open(options, Template(), nullptr);
    ASSERT_TRUE(engine.ok());
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto path = "/f" + std::to_string(base + i);
      ASSERT_TRUE((*engine)->LogInsert(path, Md(base + i)).ok());
    }
  }

  /// Every file in the data dir, by name (a refused Open must change none).
  std::map<std::string, std::vector<std::uint8_t>> DirBytes() const {
    std::map<std::string, std::vector<std::uint8_t>> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      auto content = WriteAheadLog::ReadAll(entry.path().string());
      EXPECT_TRUE(content.ok());
      files[entry.path().filename().string()] = std::move(*content);
    }
    return files;
  }

  std::string dir_;
  std::string wal_path_;
};

TEST_F(RecoveryTest, EmptyDirRecoversEmptyState) {
  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->store.empty());
  EXPECT_EQ(state->next_seq, 1u);
  EXPECT_EQ(state->replay_records, 0u);
  EXPECT_FALSE(state->torn_tail);
  EXPECT_TRUE(state->filter_matched);
}

TEST_F(RecoveryTest, WalTailReplaysIntoStoreAndFilter) {
  RunInserts(Options(), 0, 10);

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->store.size(), 10u);
  EXPECT_EQ(state->replay_records, 10u);
  EXPECT_EQ(state->next_seq, 11u);
  EXPECT_FALSE(state->torn_tail);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto path = "/f" + std::to_string(i);
    EXPECT_TRUE(state->store.Contains(path));
    EXPECT_TRUE(state->filter.MayContain(path));
  }
  // The L4-exactness invariant: the replayed filter flattens to the same
  // bits as one rebuilt from scratch over the recovered store.
  EXPECT_TRUE(state->filter_matched);
  auto rebuilt = Template();
  state->store.ForEach(
      [&](const std::string& path, const FileMetadata&) { rebuilt.Add(path); });
  EXPECT_TRUE(state->filter.ToBloomFilter() == rebuilt.ToBloomFilter());
}

TEST_F(RecoveryTest, RemovesAndUpdatesReplayInOrder) {
  {
    auto engine = StorageEngine::Open(Options(), Template(), nullptr);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->LogInsert("/a", Md(1)).ok());
    ASSERT_TRUE((*engine)->LogInsert("/b", Md(2)).ok());
    ASSERT_TRUE((*engine)->LogUpdate("/a", Md(7)).ok());
    ASSERT_TRUE((*engine)->LogRemove("/b").ok());
  }
  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->store.size(), 1u);
  EXPECT_EQ(state->store.Lookup("/a")->inode, 7u);
  EXPECT_FALSE(state->store.Contains("/b"));
  EXPECT_FALSE(state->filter.MayContain("/b"));
  EXPECT_TRUE(state->filter_matched);
}

TEST_F(RecoveryTest, TornTailIsDetectedAndDropped) {
  RunInserts(Options(), 0, 5);
  // Append garbage: a power cut mid-append leaves a torn frame.
  {
    std::filesystem::resize_file(wal_path_,
                                 std::filesystem::file_size(wal_path_) + 6);
  }
  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->torn_tail);
  EXPECT_EQ(state->store.size(), 5u);
  EXPECT_EQ(state->next_seq, 6u);
}

TEST_F(RecoveryTest, CheckpointPlusTailRecoversBoth) {
  {
    auto engine = StorageEngine::Open(Options(), Template(), nullptr);
    ASSERT_TRUE(engine.ok());
    MetadataStore store;
    auto filter = Template();
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto path = "/ck" + std::to_string(i);
      ASSERT_TRUE(store.Insert(path, Md(i)).ok());
      filter.Add(path);
      ASSERT_TRUE((*engine)->LogInsert(path, Md(i)).ok());
    }
    ASSERT_TRUE((*engine)->WriteCheckpoint(store, filter).ok());
    EXPECT_EQ((*engine)->wal().size_bytes(), 0u);  // log truncated

    // Tail records past the checkpoint.
    ASSERT_TRUE((*engine)->LogInsert("/tail", Md(100)).ok());
  }

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->store.size(), 7u);
  EXPECT_EQ(state->replay_records, 1u);  // only /tail came from the WAL
  EXPECT_TRUE(state->store.Contains("/ck3"));
  EXPECT_TRUE(state->store.Contains("/tail"));
  EXPECT_TRUE(state->filter_matched);
}

TEST_F(RecoveryTest, FilterlessCheckpointTriggersRebuild) {
  CheckpointState snapshot;
  snapshot.wal_seq = 2;
  snapshot.files.emplace_back("/a", Md(1));
  snapshot.files.emplace_back("/b", Md(2));
  snapshot.has_filter = false;
  ASSERT_TRUE(WriteCheckpointFile(dir_, snapshot, 2).ok());

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->filter_rebuilt);
  EXPECT_TRUE(state->filter_matched);
  EXPECT_TRUE(state->filter.MayContain("/a"));
  EXPECT_TRUE(state->filter.MayContain("/b"));
  EXPECT_EQ(state->next_seq, 3u);
}

TEST_F(RecoveryTest, GeometryDriftTriggersRebuild) {
  CheckpointState snapshot;
  snapshot.wal_seq = 1;
  snapshot.files.emplace_back("/a", Md(1));
  snapshot.has_filter = true;
  auto drifted = CountingBloomFilter::ForCapacity(16, 4.0, /*seed=*/99);
  drifted.Add("/a");
  snapshot.filter = std::move(drifted);
  ASSERT_TRUE(WriteCheckpointFile(dir_, snapshot, 2).ok());

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->filter_rebuilt);
  // The rebuilt filter has the *configured* geometry, not the drifted one.
  EXPECT_EQ(state->filter.num_counters(), Template().num_counters());
  EXPECT_TRUE(state->filter.MayContain("/a"));
}

TEST_F(RecoveryTest, CorruptNewestCheckpointFallsBack) {
  CheckpointState old_snapshot;
  old_snapshot.wal_seq = 0;
  old_snapshot.files.emplace_back("/old", Md(1));
  ASSERT_TRUE(WriteCheckpointFile(dir_, old_snapshot, 3).ok());

  CheckpointState new_snapshot;
  new_snapshot.wal_seq = 5;
  new_snapshot.files.emplace_back("/new", Md(2));
  const auto path = WriteCheckpointFile(dir_, new_snapshot, 3);
  ASSERT_TRUE(path.ok());
  {
    // Corrupt the newest snapshot in place.
    auto bytes = *WriteAheadLog::ReadAll(*path);
    bytes[bytes.size() / 2] ^= 0xff;
    std::ofstream f(*path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->used_fallback_checkpoint);
  EXPECT_TRUE(state->store.Contains("/old"));
  EXPECT_FALSE(state->store.Contains("/new"));
}

TEST_F(RecoveryTest, FsyncNeverLosesOnlyTheUnsyncedTail) {
  // Phase 1: durable inserts (fsync=always).
  RunInserts(Options(FsyncPolicy::kAlways), 0, 3);

  // Phase 2: fsync=never inserts on top. Reopening at a non-zero offset
  // syncs once, so the durable high-water mark covers exactly phase 1.
  std::uint64_t durable = 0;
  {
    auto engine = StorageEngine::Open(Options(FsyncPolicy::kNever),
                                      Template(), nullptr);
    ASSERT_TRUE(engine.ok());
    for (std::uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*engine)->LogInsert("/lost" + std::to_string(i), Md(100 + i)).ok());
    }
    durable = (*engine)->wal().durable_bytes();
    EXPECT_LT(durable, (*engine)->wal().size_bytes());
  }

  // Power cut: everything past the last fsync evaporates.
  std::filesystem::resize_file(wal_path_, durable);

  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  // Bounded loss, not silent: the durable prefix survives in full, and the
  // loss is exactly the records acked after the final fsync.
  EXPECT_EQ(state->store.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(state->store.Contains("/f" + std::to_string(i)));
  }
  EXPECT_FALSE(state->store.Contains("/lost0"));
}

TEST_F(RecoveryTest, EngineReopenRestoresStateAndInfo) {
  RunInserts(Options(), 0, 4);

  auto engine = StorageEngine::Open(Options(), Template(), nullptr);
  ASSERT_TRUE(engine.ok());
  const auto& info = (*engine)->recovery_info();
  EXPECT_EQ(info.recovered_files, 4u);
  EXPECT_EQ(info.replay_records, 4u);
  EXPECT_EQ(info.wal_seq, 4u);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_TRUE(info.filter_matched);
  EXPECT_EQ((*engine)->next_seq(), 5u);

  auto recovered = (*engine)->TakeRecovered();
  EXPECT_EQ(recovered.store.size(), 4u);

  // New appends continue the sequence; a further reopen sees everything.
  ASSERT_TRUE((*engine)->LogInsert("/f4", Md(4)).ok());
  engine->reset();
  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->store.size(), 5u);
  EXPECT_EQ(state->next_seq, 6u);
}

TEST_F(RecoveryTest, EngineCheckpointsWhenWalOutgrowsThreshold) {
  auto options = Options();
  options.checkpoint_wal_bytes = 4096;
  auto engine = StorageEngine::Open(options, Template(), nullptr);
  ASSERT_TRUE(engine.ok());

  MetadataStore store;
  auto filter = Template();
  bool checkpointed = false;
  for (std::uint64_t i = 0; i < 200 && !checkpointed; ++i) {
    const auto path = "/grow" + std::to_string(i);
    ASSERT_TRUE(store.Insert(path, Md(i)).ok());
    filter.Add(path);
    ASSERT_TRUE((*engine)->LogInsert(path, Md(i)).ok());
    auto wrote = (*engine)->MaybeCheckpoint(store, filter);
    ASSERT_TRUE(wrote.ok());
    checkpointed = *wrote;
  }
  ASSERT_TRUE(checkpointed);
  EXPECT_EQ((*engine)->wal().size_bytes(), 0u);
  engine->reset();

  // Everything lives in the checkpoint now; replay has nothing to do.
  const auto state = RecoverState(dir_, Template());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->store.size(), store.size());
  EXPECT_EQ(state->replay_records, 0u);
}

TEST_F(RecoveryTest, OtherCheckpointVersionFailsOpenAndLeavesDirUntouched) {
  // A data dir written by another build: a WAL plus one checkpoint whose
  // header says version 3. Skipping the checkpoint as corrupt would start
  // from nothing over a WAL truncated at that checkpoint, losing every file
  // it held; Open must refuse instead and change no byte.
  RunInserts(Options(), 0, 4);
  CheckpointState state;
  state.wal_seq = 2;
  state.files.emplace_back("/old", Md(1));
  auto bytes = EncodeCheckpoint(state);
  bytes[2] = 3;  // version u16 LE; the CRC covers only the body
  bytes[3] = 0;
  const std::string ckpt = dir_ + "/" + CheckpointFileName(state.wal_seq);
  {
    std::ofstream out(ckpt, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const auto before = DirBytes();

  auto engine = StorageEngine::Open(Options(), Template(), nullptr);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status().ToString();
  EXPECT_NE(engine.status().message().find("checkpoint format version 3"),
            std::string::npos)
      << engine.status().ToString();
  EXPECT_EQ(DirBytes(), before);
}

TEST_F(RecoveryTest, RetiredWalRecordFailsOpenAndLeavesDirUntouched) {
  // A WAL from a build that journaled replicas (op 5) or cluster views
  // (op 7) and never checkpointed. Treating the CRC-clean retired frame as
  // a torn tail would truncate every record after it; Open must refuse
  // instead.
  for (const int op : {5, 7}) {
    SCOPED_TRACE(op);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    RunInserts(Options(), 0, 2);
    WalRecord retired;
    retired.op = WalOp::kRemove;
    retired.seq = 3;
    retired.path = "/retired";
    ByteWriter payload;
    EncodeWalRecordPayload(retired, payload);
    auto body = payload.Take();
    body[0] = static_cast<std::uint8_t>(op);
    ByteWriter frame;
    frame.PutU8(kWalMagic0);
    frame.PutU8(kWalMagic1);
    frame.PutU32(static_cast<std::uint32_t>(body.size()));
    frame.PutU32(Crc32(body.data(), body.size()));
    frame.PutBytes(body);
    WalRecord after;
    after.op = WalOp::kInsert;
    after.seq = 4;
    after.path = "/after";
    after.metadata = Md(4);
    const auto tail = EncodeWalRecordFrame(after);
    {
      std::ofstream out(wal_path_, std::ios::binary | std::ios::app);
      out.write(reinterpret_cast<const char*>(frame.data().data()),
                static_cast<std::streamsize>(frame.data().size()));
      out.write(reinterpret_cast<const char*>(tail.data()),
                static_cast<std::streamsize>(tail.size()));
    }
    const auto before = DirBytes();

    auto engine = StorageEngine::Open(Options(), Template(), nullptr);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
        << engine.status().ToString();
    EXPECT_EQ(DirBytes(), before);
  }
}

TEST_F(RecoveryTest, ToStoreMutationMapsEveryOp) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.path = "/p";
  record.metadata = Md(1);
  EXPECT_EQ(ToStoreMutation(record).kind, StoreMutation::Kind::kInsert);
  record.op = WalOp::kUpdate;
  EXPECT_EQ(ToStoreMutation(record).kind, StoreMutation::Kind::kUpdate);
  record.op = WalOp::kRemove;
  EXPECT_EQ(ToStoreMutation(record).kind, StoreMutation::Kind::kRemove);
  record.op = WalOp::kClear;
  EXPECT_EQ(ToStoreMutation(record).kind, StoreMutation::Kind::kClear);
}

}  // namespace
}  // namespace ghba
