// ghba_client — poke a running mds_daemon over the wire, via DaemonClient.
//
//   $ ghba_client <port> ping
//   $ ghba_client <port> insert </path> [inode]
//   $ ghba_client <port> verify </path>
//   $ ghba_client <port> lease </path>
//   $ ghba_client <port> unlink </path>
//   $ ghba_client <port> stats
//   $ ghba_client <port> version
//   $ ghba_client <port> shutdown
//
// `verify` sends one probe and prints the daemon's verdict for its own
// store (held, absent or shed) with the routing picture: the replica owners
// whose filters match and the L1 hint, e.g.
//
//   held replicas=[0 2] l1=mds2
//
// Exit status: 0 success (verify: held); 1 failure (verify: shed); 2 usage;
// 3 verify says absent.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "client/daemon_client.hpp"

using namespace ghba;

namespace {

int PrintStatus(const Status& s) {
  std::printf("%s\n", s.ToString().c_str());
  return s.ok() ? 0 : 1;
}

int RunVerify(DaemonClient& client, const std::string& path) {
  const auto v = client.Verify(path);
  if (!v.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", v.status().ToString().c_str());
    return 1;
  }
  const char* verdict = "absent";
  if (v->verdict == SelfVerdict::kHeld) verdict = "held";
  if (v->verdict == SelfVerdict::kShed) verdict = "shed";
  std::printf("%s replicas=[", verdict);
  for (std::size_t i = 0; i < v->replica_hits.size(); ++i) {
    std::printf("%s%u", i ? " " : "", v->replica_hits[i]);
  }
  std::printf("]");
  if (v->lru_unique) std::printf(" l1=mds%u", v->lru_home);
  std::printf("\n");
  switch (v->verdict) {
    case SelfVerdict::kHeld:
      return 0;
    case SelfVerdict::kShed:
      return 1;
    case SelfVerdict::kAbsent:
      break;
  }
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <port> <ping|insert|verify|lease|unlink|"
                 "stats|version|shutdown> [args]\n",
                 argv[0]);
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[1]));
  const std::string cmd = argv[2];

  auto client = DaemonClient::Connect(port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  const auto need_path = [&]() -> const char* {
    if (argc < 4) {
      std::fprintf(stderr, "%s needs a path\n", cmd.c_str());
      return nullptr;
    }
    return argv[3];
  };

  if (cmd == "ping") return PrintStatus(client->Ping());
  if (cmd == "insert") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    FileMetadata md;
    md.inode = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    return PrintStatus(client->Insert(path, md));
  }
  if (cmd == "verify") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    return RunVerify(*client, path);
  }
  if (cmd == "lease") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    const auto lease = client->RequestLease(path);
    if (!lease.ok()) {
      std::fprintf(stderr, "lease failed: %s\n",
                   lease.status().ToString().c_str());
      return 1;
    }
    if (lease->held) {
      std::printf("held home=mds%u ttl_ms=%u\n", lease->home, lease->ttl_ms);
      return 0;
    }
    std::printf("absent\n");
    return 3;
  }
  if (cmd == "unlink") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    return PrintStatus(client->Unlink(path));
  }
  if (cmd == "stats") {
    const auto stats = client->Stats();
    if (!stats.ok()) return 1;
    std::printf("frames_in=%llu frames_out=%llu files=%llu replicas=%llu\n",
                static_cast<unsigned long long>(stats->frames_in),
                static_cast<unsigned long long>(stats->frames_out),
                static_cast<unsigned long long>(stats->files),
                static_cast<unsigned long long>(stats->replicas));
    return 0;
  }
  if (cmd == "version") {
    const auto v = client->Version();
    if (!v.ok()) return 1;
    std::printf("v%u\n", *v);
    return 0;
  }
  if (cmd == "shutdown") {
    if (!client->Shutdown().ok()) return 1;
    std::printf("shutdown sent\n");
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
