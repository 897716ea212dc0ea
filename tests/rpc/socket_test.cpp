#include "rpc/socket.hpp"

#include <gtest/gtest.h>
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <thread>

namespace ghba {
namespace {

TEST(SocketTest, BindAssignsPort) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener->port(), 0);
}

TEST(SocketTest, FrameRoundTrip) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());

  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = conn->RecvFrame();
    ASSERT_TRUE(frame.ok());
    // Echo back reversed.
    std::vector<std::uint8_t> reply(frame->rbegin(), frame->rend());
    ASSERT_TRUE(conn->SendFrame(reply).ok());
  });

  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SendFrame({1, 2, 3, 4}).ok());
  auto reply = client->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  server.join();
}

TEST(SocketTest, EmptyFrameAllowed) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = conn->RecvFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(frame->empty());
    ASSERT_TRUE(conn->SendFrame({}).ok());
  });
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendFrame({}).ok());
  auto reply = client->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->empty());
  server.join();
}

TEST(SocketTest, LargeFrame) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  const std::vector<std::uint8_t> big(1 << 20, 0xaa);
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = conn->RecvFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->size(), big.size());
    ASSERT_TRUE(conn->SendFrame(*frame).ok());
  });
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendFrame(big).ok());
  auto reply = client->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, big);
  server.join();
}

TEST(SocketTest, PeerCloseReportsUnavailable) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    conn->Close();
  });
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  server.join();
  const auto frame = client->RecvFrame();
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind then close a listener to obtain a (very likely) dead port.
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::Bind();
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  const auto conn = TcpConnection::Connect(dead_port);
  EXPECT_FALSE(conn.ok());
}

TEST(SocketTest, OversizedFrameRejected) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> huge(static_cast<std::size_t>(65) << 20);
  EXPECT_EQ(client->SendFrame(huge).code(), StatusCode::kInvalidArgument);
}

TEST(DeadlineTest, NeverNeverExpires) {
  const Deadline d = Deadline::Never();
  EXPECT_TRUE(d.never());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.PollTimeoutMs(), -1);
}

TEST(DeadlineTest, AfterZeroIsAlreadyExpired) {
  const Deadline d = Deadline::After(std::chrono::milliseconds(0));
  EXPECT_FALSE(d.never());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.PollTimeoutMs(), 0);
}

TEST(DeadlineTest, PollTimeoutRoundsUpNotDownToZero) {
  // A deadline a hair in the future must yield a positive poll timeout,
  // never 0 (which poll(2) treats as "return immediately" = busy spin).
  const Deadline d = Deadline::After(std::chrono::milliseconds(100));
  const int t = d.PollTimeoutMs();
  EXPECT_GT(t, 0);
  EXPECT_LE(t, 100);
}

TEST(SocketDeadlineTest, RecvFrameTimesOutOnSilentPeer) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  // Nobody ever accepts or writes: the recv must give up at its deadline.
  const auto start = std::chrono::steady_clock::now();
  const auto frame =
      client->RecvFrame(Deadline::After(std::chrono::milliseconds(50)));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(elapsed.count(), 40);    // did wait for the budget...
  EXPECT_LT(elapsed.count(), 2000);  // ...but not (much) longer
}

TEST(SocketDeadlineTest, DeadlineDoesNotDisturbHealthyTraffic) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = conn->RecvFrame(Deadline::After(std::chrono::seconds(5)));
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(
        conn->SendFrame(*frame, Deadline::After(std::chrono::seconds(5)))
            .ok());
  });
  auto client = TcpConnection::Connect(
      listener->port(), Deadline::After(std::chrono::seconds(5)));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(
      client->SendFrame({9, 8, 7}, Deadline::After(std::chrono::seconds(5)))
          .ok());
  const auto reply =
      client->RecvFrame(Deadline::After(std::chrono::seconds(5)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (std::vector<std::uint8_t>{9, 8, 7}));
  server.join();
}

TEST(SocketFaultTest, InjectedConnectRefusal) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  FaultInjector::Options opts;
  opts.refuse_connect_prob = 1.0;
  FaultInjector injector(opts);
  const auto conn = TcpConnection::Connect(
      listener->port(), Deadline::After(std::chrono::seconds(1)), &injector);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(injector.counters().refused_connects, 1u);
}

TEST(SocketFaultTest, DroppedFrameNeverArrives) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  FaultInjector::Options opts;
  opts.drop_prob = 1.0;
  FaultInjector injector(opts);
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  client->set_injector(&injector);
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  // The sender sees success (the network ate it), the receiver nothing.
  ASSERT_TRUE(client->SendFrame({1, 2, 3}).ok());
  const auto frame =
      server->RecvFrame(Deadline::After(std::chrono::milliseconds(100)));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(injector.counters().drops, 1u);
}

TEST(SocketFaultTest, TruncatedFrameStallsReceiverUntilDeadline) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  FaultInjector::Options opts;
  opts.truncate_prob = 1.0;
  FaultInjector injector(opts);
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  client->set_injector(&injector);
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  // The length prefix promises the full payload but only a prefix is sent,
  // so the receiver blocks mid-frame until its deadline fires.
  ASSERT_TRUE(client->SendFrame(std::vector<std::uint8_t>(64, 0x5a)).ok());
  const auto frame =
      server->RecvFrame(Deadline::After(std::chrono::milliseconds(100)));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(injector.counters().truncations, 1u);
}

TEST(SocketFaultTest, CorruptedFrameDetectedByChecksum) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  FaultInjector::Options opts;
  opts.corrupt_prob = 1.0;
  FaultInjector injector(opts);
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  client->set_injector(&injector);
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  const std::vector<std::uint8_t> sent(32, 0xcd);
  ASSERT_TRUE(client->SendFrame(sent).ok());
  // The header's CRC covers the intended payload, so the mangled bytes
  // never reach the caller: the receiver reports kCorruption instead.
  const auto frame =
      server->RecvFrame(Deadline::After(std::chrono::seconds(2)));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
  EXPECT_GE(injector.counters().corruptions, 1u);
}

// One SendFrame is one write: header and payload leave as one TCP segment,
// so a peer already blocked in recv(2) wakes once for the whole frame.
TEST(SocketTransportTest, FrameLeavesAsOneSegmentAndOneRecv) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  const std::vector<std::uint8_t> payload(200, 0x42);
  ssize_t got = -1;
  std::thread reader([&] {
    std::vector<std::uint8_t> buf(4096);
    got = ::recv(server->fd(), buf.data(), buf.size(), 0);
  });
  // Let the reader block in recv before the frame goes out.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tcp_info before{};
  tcp_info after{};
  socklen_t len = sizeof(before);
  ASSERT_EQ(::getsockopt(client->fd(), IPPROTO_TCP, TCP_INFO, &before, &len),
            0);
  ASSERT_TRUE(client->SendFrame(payload).ok());
  len = sizeof(after);
  ASSERT_EQ(::getsockopt(client->fd(), IPPROTO_TCP, TCP_INFO, &after, &len),
            0);
  reader.join();
  EXPECT_EQ(after.tcpi_data_segs_out - before.tcpi_data_segs_out, 1u);
  EXPECT_EQ(got, static_cast<ssize_t>(kFrameHeaderBytes + payload.size()));
}

TEST(SocketTransportTest, SendDeadlineFiresOnFullSocketBuffer) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  // Accepted but never read: once both socket buffers fill, send blocks.
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  int small = 4096;
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  const std::vector<std::uint8_t> big(8u << 20, 0x11);
  const auto start = std::chrono::steady_clock::now();
  const Status s =
      client->SendFrame(big, Deadline::After(std::chrono::milliseconds(100)));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(s.code(), StatusCode::kTimedOut) << s.ToString();
  EXPECT_GE(elapsed.count(), 80);
  EXPECT_LT(elapsed.count(), 2000);
}

TEST(SocketTransportTest, RecvDeadlineFiresMidFrame) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  // A header that promises 64 bytes, then silence.
  const std::uint8_t header[kFrameHeaderBytes] = {kFrameMagic0, kFrameMagic1,
                                                  64, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(server->fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  const auto start = std::chrono::steady_clock::now();
  const auto frame =
      client->RecvFrame(Deadline::After(std::chrono::milliseconds(50)));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(elapsed.count(), 40);
  EXPECT_LT(elapsed.count(), 2000);
}

TEST(SocketTransportTest, ExpiredDeadlineTimesOutBeforeAnyIo) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  const Deadline expired = Deadline::After(std::chrono::milliseconds(0));
  EXPECT_EQ(client->SendFrame({1, 2, 3}, expired).code(),
            StatusCode::kTimedOut);
  // Even with a whole frame waiting, an expired deadline reads nothing.
  ASSERT_TRUE(server->SendFrame({4, 5, 6}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(client->RecvFrame(expired).status().code(), StatusCode::kTimedOut);
  const auto frame =
      client->RecvFrame(Deadline::After(std::chrono::seconds(2)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, (std::vector<std::uint8_t>{4, 5, 6}));
}

TEST(SocketFaultTest, TruncatedFrameDesyncsTheNextIntoCorruption) {
  auto listener = TcpListener::Bind();
  ASSERT_TRUE(listener.ok());
  FaultInjector::Options opts;
  opts.truncate_prob = 1.0;
  FaultInjector injector(opts);
  auto client = TcpConnection::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  client->set_injector(&injector);
  ASSERT_TRUE(client->SendFrame(std::vector<std::uint8_t>(64, 0x5a)).ok());
  client->set_injector(nullptr);
  ASSERT_TRUE(client->SendFrame(std::vector<std::uint8_t>(64, 0x77)).ok());
  // The truncated body swallows the start of the next frame: the CRC
  // catches the mix instead of handing it to a decoder.
  const auto frame =
      server->RecvFrame(Deadline::After(std::chrono::seconds(2)));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
  EXPECT_GE(injector.counters().truncations, 1u);
}

TEST(FdHandleTest, MoveSemantics) {
  FdHandle a(42);  // fake fd number; never used for IO
  EXPECT_TRUE(a.valid());
  FdHandle b(std::move(a));
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_EQ(b.get(), 42);
  EXPECT_EQ(b.Release(), 42);  // release so the dtor won't close fd 42
  EXPECT_FALSE(b.valid());
}

}  // namespace
}  // namespace ghba
