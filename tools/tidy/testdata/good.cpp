// Clean counterpart to bad.cpp: every pattern here is the approved version
// of a construct the checks police. ghba-tidy must emit ZERO diagnostics
// for this file; the self-test fails if a check over-triggers.
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ghba {

Status MightFail() { return Status::Ok(); }
Result<int> MightFailValue() { return 7; }

// Consumed results: assignment, condition, return.
Status Consumed() {
  Status s = MightFail();
  if (!s.ok()) return s;
  if (!MightFail().ok()) return Status::Internal("nested");
  return MightFail();
}

// Deliberate discard, justified on the preceding line.
void JustifiedDiscard() {
  // Best-effort wakeup: a failure only delays the next poll cycle.
  (void)MightFail();
  (void)MightFailValue();  // fallback value used below covers the miss
}

// Literal ranks at the declaration; nesting follows acquire-down.
struct WellRanked {
  Mutex outer{LockRank::kCluster};
  Mutex inner{LockRank::kLogging};
  void Fine() {
    MutexLock hi(&outer);
    MutexLock lo(&inner);
    (void)lo;  // fixture: silence unused warning
  }
};

// Blocking is fine off the event thread: no GHBA_REQUIRES(io/event role).
struct WorkerThing {
  ThreadRole worker_role_;
  void Checkpoint() GHBA_REQUIRES(worker_role_) { ::sync(); }
  void AnyThread() { ::sync(); }
  // A guard adopting a non-event role is not a scan root.
  void WorkerLoop() {
    ThreadRoleGuard role(&worker_role_);
    ::sync();
  }
};

}  // namespace ghba
