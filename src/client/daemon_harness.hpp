// Deployment-mode transaction harness: real mds_daemon processes under a
// client that can kill -9 them between 2PC phases.
//
// Two pieces, shared by the txn_chaos tool and the daemon-mode txn test:
//
//   * DaemonProcess — fork/exec one mds_daemon on an ephemeral port (the
//     child binds port 0; the parent parses the actual port from the
//     "listening on 127.0.0.1:<port>" line on the child's stdout, so
//     concurrent harnesses never collide). Kill9() delivers exactly the
//     fault the crash matrix is about: SIGKILL, no flush, no goodbye.
//     Start() on the same data dir afterwards is the recovery under test.
//
//   * DaemonTxnTransport — TxnTransport over DaemonClient connections, one
//     lazily-(re)established session per server id. Any call error drops
//     the cached session, so a daemon restarted on a NEW port just needs
//     SetPort() and the next call reconnects. Confirmed death is harness
//     bookkeeping (MarkDead after a Kill9), never a guess from timeouts —
//     exactly like the in-process orchestrator, a slow-but-alive server
//     must not trigger presumed abort.
//
// This lives in the client library (not tools/) because the daemon-mode
// test links it too: the point of the harness is that the SAME TxnDriver
// choreography proven in-process runs unchanged against real processes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "client/daemon_client.hpp"
#include "txn/txn_driver.hpp"

namespace ghba {

/// One mds_daemon child process.
class DaemonProcess {
 public:
  struct Options {
    std::string binary;     ///< path to the mds_daemon executable
    MdsId id = 0;
    std::string data_dir;   ///< empty: volatile (no WAL, no recovery)
    std::string fsync = "always";
    std::uint64_t expected_files = 10000;
    /// How long Start() waits for the child's listening line.
    std::uint32_t start_timeout_ms = 10000;
  };

  DaemonProcess() = default;
  explicit DaemonProcess(Options options) : options_(std::move(options)) {}
  ~DaemonProcess();
  DaemonProcess(DaemonProcess&&) noexcept;
  DaemonProcess& operator=(DaemonProcess&&) noexcept;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Fork/exec the daemon and wait until it reports its port. Restart after
  /// a Kill9() is the same call: same data dir, fresh (ephemeral) port.
  Status Start();

  /// SIGKILL + reap: the machine-failure fault. No-op if not running.
  void Kill9();

  /// SIGTERM + reap: a graceful stop for teardown. No-op if not running.
  void Terminate();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  /// The port the CURRENT incarnation listens on (changes across Start()s).
  std::uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

 private:
  void Reap();

  Options options_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;  ///< read end of the child's stdout pipe
  std::uint16_t port_ = 0;
};

/// TxnTransport over per-server DaemonClient sessions.
class DaemonTxnTransport final : public TxnTransport {
 public:
  explicit DaemonTxnTransport(std::uint32_t io_timeout_ms = 2000)
      : io_timeout_ms_(io_timeout_ms) {}

  /// Bind (or rebind, after a restart) server `id` to `port`. Drops any
  /// cached session and clears the dead mark.
  void SetPort(MdsId id, std::uint16_t port);

  /// Record that `id` was killed (Kill9) — TxnServerConfirmedDead answers
  /// true until the next SetPort.
  void MarkDead(MdsId id);

  Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) override;
  Status TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                   bool commit) override;
  Status TxnCommit(MdsId participant, std::uint64_t txn_id,
                   const std::string& path) override;
  Status TxnAbort(MdsId participant, std::uint64_t txn_id,
                  const std::string& path) override;
  Result<std::vector<TxnPendingOp>> TxnList(MdsId server) override;
  Result<TxnResolution> TxnQueryDecision(MdsId coordinator,
                                         std::uint64_t txn_id) override;
  bool TxnServerConfirmedDead(MdsId server) override;

 private:
  struct Peer {
    std::uint16_t port = 0;
    bool dead = false;
    std::optional<DaemonClient> session;
  };

  /// The (re)connected session for `id`, or null with the connect error
  /// left for the caller to surface as Unavailable.
  DaemonClient* Session(MdsId id);
  /// Drop `id`'s cached session after any call error (the next call
  /// reconnects — possibly to a restarted daemon).
  void Invalidate(MdsId id);

  std::uint32_t io_timeout_ms_;
  std::map<MdsId, Peer> peers_;
};

}  // namespace ghba
