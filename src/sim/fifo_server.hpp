// Single-server FIFO queue model (per-MDS service queue).
//
// The trace replays operations at their recorded arrival times; each MDS
// processes work sequentially. FifoServer tracks the server's busy-until
// horizon: an operation arriving at `t` with service demand `s` completes at
// max(t, busy_until) + s. This is the standard G/G/1 recursion (Lindley's
// equation) and is what makes latency climb under the paper's intensified
// workloads instead of staying flat.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ghba {

class FifoServer {
 public:
  struct Completion {
    double start;   ///< when service began
    double finish;  ///< when service completed
    double wait;    ///< queueing delay (start - arrival)
  };

  /// Admit work arriving at `arrival` needing `service` time units.
  Completion Serve(double arrival, double service) {
    const double start = std::max(arrival, busy_until_);
    busy_until_ = start + service;
    busy_time_ += service;
    ++served_;
    return Completion{start, busy_until_, start - arrival};
  }

  double busy_until() const { return busy_until_; }
  double total_busy_time() const { return busy_time_; }
  std::uint64_t served() const { return served_; }

  void Reset() {
    busy_until_ = 0;
    busy_time_ = 0;
    served_ = 0;
  }

 private:
  double busy_until_ = 0;
  double busy_time_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace ghba
