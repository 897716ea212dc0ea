// Daemon-mode transaction crash matrix: run the txn_chaos harness against
// real mds_daemon processes — fork/exec, kill -9 at every 2PC boundary,
// restart on the same data dir, resolve, audit. The tool exits 0 only if
// every endpoint invariant held; this test makes that exit code a tier-1
// gate. Binary paths are injected by CMake ($<TARGET_FILE:...>), so the
// test always exercises the binaries built alongside it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace ghba {
namespace {

/// Run the sweep with the daemons' WAL under `fsync`; expect exit 0.
void ExpectChaosSweepPasses(const char* fsync) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("ghba_txn_daemon_test_") + fsync);
  std::filesystem::remove_all(dir);
  const std::string cmd = std::string(GHBA_TXN_CHAOS_BIN) +
                          " --daemon " GHBA_MDS_DAEMON_BIN
                          " --mds 3 --renames 2 --fsync " + fsync +
                          " --data-dir " + dir.string();
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "txn_chaos reported an inconsistency: " << cmd;
  std::filesystem::remove_all(dir);
}

TEST(TxnDaemonTest, ChaosSweepAgainstRealDaemonsPasses) {
  ExpectChaosSweepPasses("always");
}

// fsync=never: the daemons run the 2PC handlers inline on the event
// thread of an idle shard. kill -9 keeps the page cache, so every case
// must still recover.
TEST(TxnDaemonTest, ChaosSweepWithTheHandlersInlinePasses) {
  ExpectChaosSweepPasses("never");
}

}  // namespace
}  // namespace ghba
