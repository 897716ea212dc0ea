// Concurrency stress: many client threads hammering one MdsServer's poll
// loop at once. The server's state is single-threaded by design (one event
// loop); this verifies the loop serializes concurrent connections without
// dropping, corrupting, or interleaving frames.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rpc/server.hpp"

namespace ghba {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig c;
  c.expected_files_per_mds = 10000;
  c.lru_capacity = 256;
  c.seed = 99;
  return c;
}

TEST(ServerConcurrencyTest, ParallelClientsInsertAndVerify) {
  MdsServer server(0, TestConfig());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto conn = TcpConnection::Connect(server.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string path =
            "/c" + std::to_string(t) + "/f" + std::to_string(i);
        FileMetadata md;
        md.inode = static_cast<std::uint64_t>(t) * 1000 + i;
        // Insert ...
        if (!conn->SendFrame(EncodeInsert(path, md)).ok()) {
          ++failures;
          return;
        }
        auto resp = conn->RecvFrame();
        if (!resp.ok()) {
          ++failures;
          return;
        }
        ByteReader in(*resp);
        auto env = OpenEnvelope(in);
        if (!env.ok() || !env->status.ok()) {
          ++failures;
          return;
        }
        // ... then verify through the same connection.
        if (!conn->SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok()) {
          ++failures;
          return;
        }
        auto vresp = conn->RecvFrame();
        if (!vresp.ok()) {
          ++failures;
          return;
        }
        ByteReader vin(*vresp);
        auto venv = OpenEnvelope(vin);
        if (!venv.ok() || !venv->has_payload) {
          ++failures;
          return;
        }
        auto found = DecodeBoolResp(vin);
        if (!found.ok() || !*found) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every insert from every thread landed exactly once.
  auto conn = TcpConnection::Connect(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(EncodeHeader(MsgType::kStatsSnapshot)).ok());
  auto resp = conn->RecvFrame();
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto stats = DecodeStatsSnapshotResp(in);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);

  server.Stop();
}

// Pipelined multi-frame clients under concurrent load: every thread keeps
// a full window of requests in flight on its own connection and checks
// that the responses come back in request order, while the other threads'
// windows execute on other shards at the same time.
TEST(ServerConcurrencyTest, PipelinedClientsKeepPerConnectionOrder) {
  ClusterConfig config = TestConfig();
  config.rpc.server_shards = 4;
  MdsServer server(0, config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kWindows = 12;
  constexpr int kWindow = 16;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto conn = TcpConnection::Connect(server.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int w = 0; w < kWindows; ++w) {
        // A window of inserts, fired without reading...
        for (int i = 0; i < kWindow; ++i) {
          const std::string path = "/p" + std::to_string(t) + "/w" +
                                   std::to_string(w) + "/f" +
                                   std::to_string(i);
          FileMetadata md;
          md.inode = static_cast<std::uint64_t>(i);
          if (!conn->SendFrame(EncodeInsert(path, md)).ok()) {
            ++failures;
            return;
          }
        }
        // ...then a window of same-path verifies...
        for (int i = 0; i < kWindow; ++i) {
          const std::string path = "/p" + std::to_string(t) + "/w" +
                                   std::to_string(w) + "/f" +
                                   std::to_string(i);
          if (!conn->SendFrame(
                       EncodePathRequest(MsgType::kVerify, path))
                   .ok()) {
            ++failures;
            return;
          }
        }
        // ...then 2*kWindow responses: insert acks first, in order, then
        // the verifies, every one finding its file.
        for (int i = 0; i < kWindow; ++i) {
          auto resp = conn->RecvFrame();
          if (!resp.ok()) {
            ++failures;
            return;
          }
          ByteReader in(*resp);
          auto env = OpenEnvelope(in);
          if (!env.ok() || env->has_payload || !env->status.ok()) {
            ++failures;
            return;
          }
        }
        for (int i = 0; i < kWindow; ++i) {
          auto resp = conn->RecvFrame();
          if (!resp.ok()) {
            ++failures;
            return;
          }
          ByteReader in(*resp);
          auto env = OpenEnvelope(in);
          if (!env.ok() || !env->has_payload) {
            ++failures;
            return;
          }
          auto found = DecodeBoolResp(in);
          if (!found.ok() || !*found) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

TEST(ServerConcurrencyTest, ConnectionChurnSurvives) {
  MdsServer server(0, TestConfig());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        // Fresh connection per request; some close without reading.
        auto conn = TcpConnection::Connect(server.port());
        if (!conn.ok()) {
          ++failures;
          return;
        }
        if (!conn->SendFrame(EncodeHeader(MsgType::kPing)).ok()) {
          ++failures;
          return;
        }
        if (i % 3 == 0) continue;  // abandon the connection mid-exchange
        auto resp = conn->RecvFrame();
        if (!resp.ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The server is still healthy.
  auto conn = TcpConnection::Connect(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(EncodeHeader(MsgType::kPing)).ok());
  EXPECT_TRUE(conn->RecvFrame().ok());
  server.Stop();
}

}  // namespace
}  // namespace ghba
