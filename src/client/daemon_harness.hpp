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
//   * DaemonTxnTransport — the one wire transport (WireTxnTransport, the
//     same encoders and decoders the in-process orchestrator uses) whose
//     frames ride a Router over the fleet's ports: pooled connections,
//     the default RpcOptions deadlines and retries. A daemon restarted on
//     a NEW port just needs SetPort(); port 0 marks a killed one, whose
//     calls then fail at once. Resolution never presumes anything from a
//     failed call: an op whose coordinator is down stays in doubt until
//     the coordinator is back.
//
// This lives in the client library (not tools/) because the daemon-mode
// test links it too: the point of the harness is that the SAME TxnDriver
// choreography proven in-process runs unchanged against real processes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "rpc/health.hpp"
#include "rpc/router.hpp"
#include "rpc/wire_txn_transport.hpp"

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

/// The wire transport over a Router to a daemon fleet.
class DaemonTxnTransport final : public WireTxnTransport {
 public:
  DaemonTxnTransport();

  /// Bind (or rebind, after a restart) server `id` to `port`; port 0
  /// (a killed daemon) makes every call to it fail at once.
  void SetPort(MdsId id, std::uint16_t port);

 private:
  Result<std::vector<std::uint8_t>> Call(
      MdsId server, const std::vector<std::uint8_t>& frame) override;

  PeerHealthTracker health_;
  ClusterMetrics metrics_;
  Router router_;
  std::vector<std::uint16_t> ports_;  ///< by MdsId; 0 while dead
};

}  // namespace ghba
