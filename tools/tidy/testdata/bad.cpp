// Deliberate violations for ghba-tidy's self-test. Every numbered block
// below must produce exactly the diagnostic named in its comment; the
// self-test greps for each check id and fails CI if one goes missing
// (i.e. if a check silently stops firing). This file must COMPILE clean —
// the checks catch rule violations, not syntax errors.
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ghba {

Status MightFail() { return Status::Ok(); }
Result<int> MightFailValue() { return 7; }

// [1] ghba-unchecked-status: plain discard of a Status-returning call.
void DiscardPlain() {
  MightFail();
}

// [2] ghba-unchecked-status: (void) discard with no justifying comment.
void DiscardVoidNoComment() {
  (void)MightFailValue();
}

// [3] ghba-mutex-rank: rank forwarded through a parameter instead of a
// literal enumerator at the declaration.
struct ForwardedRank {
  explicit ForwardedRank(LockRank r) : mu(r) {}
  Mutex mu;  // no literal rank here
};

// [4] ghba-mutex-rank: lexically nested MutexLocks violating acquire-down.
struct Inverted {
  Mutex low{LockRank::kLogging};
  Mutex high{LockRank::kCluster};
  void Oops() {
    MutexLock inner(&low);   // rank 0 held...
    MutexLock outer(&high);  // ...then rank 13 acquired: inversion
    (void)outer;             // self-test fixture: silence unused warning
  }
};

// [5] ghba-blocking-on-event-thread: direct blocking call from an
// event-thread function, and [6] one reachable through a helper.
struct EventThing {
  ThreadRole io_role_;
  void Helper() { ::sync(); }
  void OnReadable() GHBA_REQUIRES(io_role_) {
    ::sync();  // [5] direct
    Helper();  // [6] transitive
  }
};

// [7] ghba-blocking-on-event-thread: an event loop that adopts its role
// through a ThreadRoleGuard instead of a GHBA_REQUIRES annotation. The
// guard's scope is a scan root too (a check that only read annotations
// never scanned the loop itself).
struct GuardedLoop {
  ThreadRole io_role_;
  void Loop() {
    ThreadRoleGuard io(&io_role_);
    ::sync();  // [7] inside the guarded scope
  }
};

}  // namespace ghba
