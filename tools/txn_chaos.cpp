// txn_chaos — deployment-mode crash sweep for distributed transactions.
//
//   $ txn_chaos --daemon ./tools/mds_daemon [--mds N] [--data-dir DIR]
//               [--renames K] [--fsync always|never] [--keep]
//
// Spawns N real mds_daemon processes (durable, fsync=always unless
// --fsync says otherwise, ephemeral ports), then proves the claims the
// in-process matrix proves — with kill -9 instead of a simulated crash:
//
//   1. clean cross-daemon renames move files atomically;
//   2. killing the targeted daemon at EVERY 2PC message boundary (and the
//      client at the two interesting ones) recovers, after restart on the
//      same data dir plus in-doubt resolution, to exactly one endpoint:
//      the new name iff the rename was acked, the old name otherwise —
//      never both, never neither, and no background file is ever lost;
//   3. a participant whose coordinator is down stays in doubt until the
//      coordinator is back, even when the rename was acked.
//
// kill -9 keeps the page cache, so --fsync never is sound for these
// process crashes; under it the daemons run the 2PC handlers inline on
// the event thread of an idle shard.
//
// Exit status 0 iff every audit passed; CI runs this as the txn-chaos
// stage. The namespace layout mirrors the orchestrator: a path's home is
// Fnv1a64(path) % N, so the tool and the daemons agree on placement
// without any lookup protocol.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "client/daemon_client.hpp"
#include "client/daemon_harness.hpp"
#include "hash/fnv.hpp"

namespace {

using ghba::DaemonClient;
using ghba::DaemonProcess;
using ghba::DaemonTxnTransport;
using ghba::FileMetadata;
using ghba::MdsId;
using ghba::Status;
using ghba::TxnDriver;
using ghba::TxnPhase;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  ok: %s\n", what.c_str());
  } else {
    std::printf("  FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct Fleet {
  std::vector<DaemonProcess> daemons;
  DaemonTxnTransport transport;

  DaemonProcess& at(MdsId id) { return daemons[id]; }

  Status StartAll(const std::string& binary, const std::string& data_dir,
                  const std::string& fsync, std::size_t n) {
    for (std::size_t id = 0; id < n; ++id) {
      DaemonProcess::Options opt;
      opt.binary = binary;
      opt.id = static_cast<MdsId>(id);
      opt.data_dir = data_dir;
      opt.fsync = fsync;
      daemons.emplace_back(std::move(opt));
      if (Status s = daemons.back().Start(); !s.ok()) return s;
      transport.SetPort(static_cast<MdsId>(id), daemons.back().port());
    }
    return Status::Ok();
  }

  MdsId HomeOf(const std::string& path) const {
    return static_cast<MdsId>(ghba::Fnv1a64(path) % daemons.size());
  }

  /// Kill -9 `id`; calls to it then fail at once.
  void Kill(MdsId id) {
    at(id).Kill9();
    transport.SetPort(id, 0);
  }

  /// Restart `id` on its data dir; rebind the transport to the new port.
  Status Restart(MdsId id) {
    if (Status s = at(id).Start(); !s.ok()) return s;
    transport.SetPort(id, at(id).port());
    return Status::Ok();
  }

  /// A short-lived session for plain (non-txn) requests.
  ghba::Result<DaemonClient> Connect(MdsId id) {
    return DaemonClient::Connect(at(id).port(), 2000);
  }

  Status Insert(const std::string& path, const FileMetadata& md) {
    auto c = Connect(HomeOf(path));
    if (!c.ok()) return c.status();
    return c->Insert(path, md);
  }

  /// Is `path` present on its hash home?
  ghba::Result<bool> Present(const std::string& path) {
    auto c = Connect(HomeOf(path));
    if (!c.ok()) return c.status();
    auto v = c->Verify(path);
    if (!v.ok()) return v.status();
    if (v->verdict == ghba::SelfVerdict::kShed) {
      return ghba::Status::RetryAfter("verify shed");
    }
    return v->verdict == ghba::SelfVerdict::kHeld;
  }
};

/// Pick a dst whose hash home differs from src's, so every matrix case is
/// genuinely cross-daemon.
std::string CrossDst(const Fleet& fleet, const std::string& stem,
                     MdsId src_home) {
  for (int i = 0; i < 256; ++i) {
    const std::string candidate = stem + std::to_string(i);
    if (fleet.HomeOf(candidate) != src_home) return candidate;
  }
  return stem + "0";
}

/// One armed fault: when message number `k` of `phase` completes, either
/// kill -9 the targeted daemon (crash=true) or halt the driver — a client
/// death at that boundary (crash=false).
struct Fault {
  const char* name;
  TxnPhase phase;
  std::uint32_t k;
  bool crash;        ///< kill the target daemon vs. halt the client
  bool victim_dst;   ///< which home dies when crash (false: coordinator)
  bool acked;        ///< must the drive return Ok?
};

/// The two names of one case's rename and their hash homes.
struct Endpoints {
  std::string src;
  std::string dst;
  MdsId src_home;
  MdsId dst_home;
};

/// Print the case header, pick a cross-daemon dst and insert src.
Endpoints StartCase(Fleet& fleet, std::uint64_t txn_id, const char* name) {
  std::printf("case %s:\n", name);
  Endpoints e;
  e.src = std::string("/chaos/") + name + "/src";
  e.src_home = fleet.HomeOf(e.src);
  e.dst = CrossDst(fleet, std::string("/chaos/") + name + "/dst", e.src_home);
  e.dst_home = fleet.HomeOf(e.dst);
  FileMetadata md;
  md.inode = txn_id + 1000;
  Check(fleet.Insert(e.src, md).ok(), "insert src");
  return e;
}

/// Resolve both homes from a fresh driver — exactly what a recovering
/// deployment runs — participant before coordinator, so a committed
/// rename's insert lands before its remove. Then audit the endpoints.
void ResolveAndAudit(Fleet& fleet, const Endpoints& e, bool acked) {
  TxnDriver resolver(&fleet.transport);
  for (const MdsId id : {e.dst_home, e.src_home}) {
    const auto left = resolver.ResolveInDoubt(id);
    Check(left.ok() && *left == 0,
          "in-doubt resolution drained mds " + std::to_string(id));
  }

  const auto src_present = fleet.Present(e.src);
  const auto dst_present = fleet.Present(e.dst);
  Check(src_present.ok() && dst_present.ok(), "post-recovery probes");
  if (src_present.ok() && dst_present.ok()) {
    Check(*dst_present == acked, "dst present iff acked");
    Check(*src_present == !acked, "src present iff not acked");
    Check(!(*src_present && *dst_present), "never both endpoints");
  }
}

/// Run the whole rename-under-fault cycle for one case and audit it.
void RunFaultCase(Fleet& fleet, std::uint64_t& txn_id, const Fault& f) {
  const Endpoints e = StartCase(fleet, txn_id, f.name);
  const MdsId victim = f.victim_dst ? e.dst_home : e.src_home;
  bool fired = false;
  TxnDriver driver(&fleet.transport,
                   [&](TxnPhase phase, std::uint32_t k, MdsId /*target*/) {
                     if (phase != f.phase || k != f.k) return true;
                     fired = true;
                     if (f.crash) {
                       fleet.Kill(victim);
                       return true;  // the driver runs on into the dead peer
                     }
                     return false;  // client dies at this boundary
                   });

  const Status drove =
      driver.Rename(++txn_id, e.src, e.src_home, e.dst, e.dst_home);
  Check(fired, "armed fault fired");
  Check(drove.ok() == f.acked,
        std::string("ack matches the commit point (got ") + drove.ToString() +
            ")");

  if (f.crash) {
    Check(fleet.Restart(victim).ok(), "victim restarted on its data dir");
  }
  ResolveAndAudit(fleet, e, f.acked);
}

/// The client dies right after the commit decision, and the coordinator
/// is killed before any commit reached a participant. The rename is
/// acked, so while the coordinator is down its participant must stay in
/// doubt: only the coordinator's journal knows the verdict.
void RunDownCoordinatorCase(Fleet& fleet, std::uint64_t& txn_id) {
  const Endpoints e = StartCase(fleet, txn_id, "halt-decide-kill-coordinator");
  TxnDriver driver(&fleet.transport,
                   [&](TxnPhase phase, std::uint32_t k, MdsId target) {
                     if (phase != TxnPhase::kDecide || k != 0) return true;
                     fleet.Kill(target);
                     return false;  // and the client dies too
                   });
  Check(driver.Rename(++txn_id, e.src, e.src_home, e.dst, e.dst_home).ok(),
        "acked at the commit decision");

  TxnDriver resolver(&fleet.transport);
  const auto left = resolver.ResolveInDoubt(e.dst_home);
  Check(left.ok() && *left == 1,
        "participant stays in doubt while its coordinator is down");
  const auto dst_present = fleet.Present(e.dst);
  Check(dst_present.ok() && !*dst_present, "dst not applied without a verdict");

  Check(fleet.Restart(e.src_home).ok(),
        "coordinator restarted on its data dir");
  ResolveAndAudit(fleet, e, /*acked=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  std::string binary;
  std::string data_dir;
  std::string fsync = "always";
  std::size_t num_mds = 3;
  int renames = 8;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--daemon") == 0 && i + 1 < argc) {
      binary = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--mds") == 0 && i + 1 < argc) {
      num_mds = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--renames") == 0 && i + 1 < argc) {
      renames = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--fsync") == 0 && i + 1 < argc &&
               (std::strcmp(argv[i + 1], "always") == 0 ||
                std::strcmp(argv[i + 1], "never") == 0)) {
      fsync = argv[++i];
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      keep = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --daemon PATH [--mds N] [--data-dir DIR] "
                   "[--renames K] [--fsync always|never] [--keep]\n",
                   argv[0]);
      return 2;
    }
  }
  if (binary.empty() || num_mds < 2) {
    std::fprintf(stderr, "--daemon is required and --mds must be >= 2\n");
    return 2;
  }
  const bool own_dir = data_dir.empty();
  if (own_dir) {
    char tmpl[] = "/tmp/ghba_txn_chaos_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    data_dir = tmpl;
  }

  int rc = 1;
  {
    Fleet fleet;
    if (const Status s = fleet.StartAll(binary, data_dir, fsync, num_mds);
        !s.ok()) {
      std::fprintf(stderr, "fleet start: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("fleet: %zu daemons, data-dir=%s, fsync=%s\n", num_mds,
                data_dir.c_str(), fsync.c_str());

    std::uint64_t txn_id = 0;

    // Background namespace: losing ANY of these during the matrix is a
    // recovery bug, not collateral damage.
    std::vector<std::string> base;
    for (int i = 0; i < 24; ++i) {
      base.push_back("/chaos/base/f" + std::to_string(i));
      FileMetadata md;
      md.inode = static_cast<std::uint64_t>(i);
      Check(fleet.Insert(base.back(), md).ok(), "insert " + base.back());
    }

    // Clean cross-daemon renames through the same driver the matrix uses.
    std::printf("clean renames:\n");
    for (int i = 0; i < renames; ++i) {
      const std::string src = "/chaos/clean/src" + std::to_string(i);
      const MdsId src_home = fleet.HomeOf(src);
      const std::string dst =
          CrossDst(fleet, "/chaos/clean/dst" + std::to_string(i) + "_",
                   src_home);
      FileMetadata md;
      md.inode = 5000 + static_cast<std::uint64_t>(i);
      Check(fleet.Insert(src, md).ok(), "insert " + src);
      TxnDriver driver(&fleet.transport);
      Check(driver.Rename(++txn_id, src, src_home, dst, fleet.HomeOf(dst))
                .ok(),
            "rename " + src + " -> " + dst);
      const auto s = fleet.Present(src);
      const auto d = fleet.Present(dst);
      Check(s.ok() && !*s && d.ok() && *d, "endpoint audit " + dst);
    }

    // The fault matrix: kill -9 the targeted daemon at every message
    // boundary of the choreography, plus the two interesting client
    // deaths. Ack expectations follow the commit point: everything at or
    // after Decide(commit) durable is acked and must roll forward.
    const Fault kMatrix[] = {
        {"kill-prepare-src", TxnPhase::kPrepare, 0, true, false, false},
        {"kill-prepare-dst", TxnPhase::kPrepare, 1, true, true, true},
        {"kill-decide", TxnPhase::kDecide, 0, true, false, true},
        {"kill-commit-dst", TxnPhase::kCommit, 0, true, true, true},
        {"kill-commit-src", TxnPhase::kCommit, 1, true, false, true},
        {"halt-prepare", TxnPhase::kPrepare, 0, false, false, false},
        {"halt-decide", TxnPhase::kDecide, 0, false, false, true},
    };
    for (const Fault& f : kMatrix) RunFaultCase(fleet, txn_id, f);
    RunDownCoordinatorCase(fleet, txn_id);

    // Nothing in the background namespace was harmed.
    std::printf("background audit:\n");
    bool all_present = true;
    for (const std::string& path : base) {
      const auto p = fleet.Present(path);
      if (!p.ok() || !*p) {
        all_present = false;
        std::printf("  FAIL: lost %s\n", path.c_str());
        ++g_failures;
      }
    }
    if (all_present) std::printf("  ok: all %zu files intact\n", base.size());

    for (auto& d : fleet.daemons) d.Terminate();
    rc = g_failures == 0 ? 0 : 1;
    std::printf("txn_chaos: %s (%d failure%s)\n", rc == 0 ? "PASS" : "FAIL",
                g_failures, g_failures == 1 ? "" : "s");
  }
  if (own_dir && !keep) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
  }
  return rc;
}
