// Clang thread-safety annotations, annotated synchronization wrappers, and
// the lock-rank discipline (compile-time + optional runtime "lockdep").
//
// Every mutex-guarded structure in the library declares *at compile time*
// which lock guards which field (GHBA_GUARDED_BY) and which capability each
// function needs (GHBA_REQUIRES). Building with Clang and -Wthread-safety
// then proves the locking discipline on every path — including paths no
// test happens to exercise. On non-Clang compilers every macro expands to
// nothing and Mutex/MutexLock behave exactly like std::mutex/lock_guard.
//
// On top of the per-mutex discipline sits an *inter*-mutex discipline:
// every Mutex carries a mandatory static LockRank, and the global rule is
//
//     a thread may only acquire a Mutex whose rank is strictly LOWER
//     than the rank of every Mutex it already holds.
//
// Ranks therefore read top-down: the highest rank (kClient) is always
// outermost, the lowest (kLogging) is a leaf that may be taken while
// holding anything but can nest nothing inside itself. Because the order
// is total and acquisition is strictly decreasing, no cycle can ever form
// across threads — an A->B order on one thread and a B->A order on another
// necessarily contains one rank-increasing acquisition, which is refused.
//
// The rule is enforced twice:
//   * statically, by the `ghba-mutex-rank` check in tools/tidy/ (every
//     Mutex member must be initialized from a LockRank enumerator, and
//     lexically nested MutexLock scopes whose ranks do not strictly
//     decrease are compile-time diagnostics), and
//   * dynamically, when built with -DGHBA_LOCKDEP=1 (cmake -DGHBA_LOCKDEP=ON):
//     every Lock/Unlock maintains a per-thread held-lock stack, records the
//     cross-thread acquisition graph, and aborts with both acquisition
//     backtraces on the first rank inversion — *before* blocking on the
//     mutex, so a would-be deadlock dies loudly instead of hanging.
// With GHBA_LOCKDEP off (the default) the validator compiles away entirely:
// Mutex is layout-identical to std::mutex (static_assert'ed below).
//
// See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the
// attribute semantics. The macro set follows the naming in that document.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define GHBA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef GHBA_THREAD_ANNOTATION
#define GHBA_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a capability (lockable) type.
#define GHBA_CAPABILITY(x) GHBA_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define GHBA_SCOPED_CAPABILITY GHBA_THREAD_ANNOTATION(scoped_lockable)

/// Field is only read/written while holding the given capability.
#define GHBA_GUARDED_BY(x) GHBA_THREAD_ANNOTATION(guarded_by(x))

/// Pointed-to data is only touched while holding the given capability.
#define GHBA_PT_GUARDED_BY(x) GHBA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (and does not release it).
#define GHBA_REQUIRES(...) \
  GHBA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (must not be held on entry).
#define GHBA_ACQUIRE(...) \
  GHBA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define GHBA_RELEASE(...) \
  GHBA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability if it returns true.
#define GHBA_TRY_ACQUIRE(...) \
  GHBA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function acquires the capability in shared (reader) mode.
#define GHBA_ACQUIRE_SHARED(...) \
  GHBA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases a capability held in shared (reader) mode.
#define GHBA_RELEASE_SHARED(...) \
  GHBA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention).
#define GHBA_EXCLUDES(...) GHBA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define GHBA_RETURN_CAPABILITY(x) GHBA_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch; use sparingly and say why at the call site.
#define GHBA_NO_THREAD_SAFETY_ANALYSIS \
  GHBA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ghba {

/// The global lock order, lowest (innermost leaf) to highest (outermost).
/// A thread may only acquire a Mutex ranked strictly below everything it
/// already holds, so acquisition chains walk this table top-down:
///
///   rank              instance(s)                        holder
///   ----------------  ---------------------------------  ------------------
///   kClient           Client::mu_                        front-tier facade
///   kCluster          PrototypeCluster::mu_              orchestrator
///   kDrainGate        Router::gate_ (SharedMutex)        lookups vs. drains
///   kRouterPool       Router::pool_mu_                   idle connections
///   kRouterSnapshot   Router::topo_mu_                   snapshot pointer
///   kServerTxn        MdsServer txn manager              2PC intent locks
///   kServerWal        MdsServer::wal_mu_                 durable engine
///   kServerFilter     MdsServer::filter_mu_              local filter
///   kServerSeg        MdsServer::seg_mu_                 segment replicas
///   kServerShard      MdsServer::Shard::mu (per shard)   worker task queues
///   kServerMaint      MdsServer::maint_mu_               maintenance inputs
///   kServerOut        MdsServer::out_mu_                 completion outbox
///   kServerErr        MdsServer::err_mu_                 last_error_
///   kFaultInjector    FaultInjector::mu_                 fault decisions
///   kHealth           PeerHealthTracker::mu_             peer states
///   kMetricsRegistry  MetricsRegistry::mu_               metric name maps
///   kMetricsStripe    HistogramCell::Stripe::mu (x8)     histogram stripes
///   kCacheRevoke      PrototypeCluster::caches_mu_       cache inboxes
///   kLogging          logging.cpp g_sink_mutex           stderr sink
///
/// Real chains this order admits (all observed in the code):
///   client -> cluster                 (facade ops call into the cluster)
///   client -> gate -> {snapshot, pool} (a lookup on the Router)
///   cluster -> gate                   (a drain excludes lookups; Unlink and
///                                      the txn preludes look up under mu_)
///   cluster -> {snapshot, pool, any server lock, health, injector,
///              metrics, logging}
///   txn -> wal                        (prepare journals under intent lock)
///   wal -> filter                     (mutation journaling + checkpoint)
///   shard -> injector                 (stall probe inside the worker wait)
///   registry -> stripe                (Snapshot merging histograms)
///   {client, cluster} -> revoke       (drain / post a client cache inbox)
///   anything -> logging               (GHBA_LOG under any lock)
enum class LockRank : std::uint8_t {
  kLogging = 0,
  kCacheRevoke = 1,
  kMetricsStripe = 2,
  kMetricsRegistry = 3,
  kHealth = 4,
  kFaultInjector = 5,
  kServerErr = 6,
  kServerOut = 7,
  kServerMaint = 8,
  kServerShard = 9,
  kServerSeg = 10,
  kServerFilter = 11,
  kServerWal = 12,
  kServerTxn = 13,
  kRouterSnapshot = 14,
  kRouterPool = 15,
  kDrainGate = 16,
  kCluster = 17,
  kClient = 18,
};

/// Number of distinct ranks (size of the lockdep acquisition graph).
inline constexpr std::size_t kLockRankCount = 19;

/// Human-readable name for a LockRank (diagnostics).
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kLogging: return "logging";
    case LockRank::kCacheRevoke: return "cache-revoke";
    case LockRank::kMetricsStripe: return "metrics-stripe";
    case LockRank::kMetricsRegistry: return "metrics-registry";
    case LockRank::kHealth: return "health";
    case LockRank::kFaultInjector: return "fault-injector";
    case LockRank::kServerErr: return "server-err";
    case LockRank::kServerOut: return "server-out";
    case LockRank::kServerMaint: return "server-maint";
    case LockRank::kServerShard: return "server-shard";
    case LockRank::kServerSeg: return "server-seg";
    case LockRank::kServerFilter: return "server-filter";
    case LockRank::kServerWal: return "server-wal";
    case LockRank::kServerTxn: return "server-txn";
    case LockRank::kRouterSnapshot: return "router-snapshot";
    case LockRank::kRouterPool: return "router-pool";
    case LockRank::kDrainGate: return "drain-gate";
    case LockRank::kCluster: return "cluster";
    case LockRank::kClient: return "client";
  }
  return "unknown";
}

#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP

namespace lockdep {

/// Validate the acquisition of (`mu`, `rank`) against this thread's held
/// stack and record the rank edge in the global acquisition graph. Called
/// BEFORE blocking on the mutex: a rank inversion aborts (with the current
/// backtrace, the conflicting lock's acquisition backtrace, and — when the
/// opposite order was ever observed on any thread — that order's recorded
/// backtraces) instead of deadlocking.
void BeforeAcquire(const void* mu, LockRank rank);

/// Push (`mu`, `rank`) onto this thread's held stack (after the lock).
void AfterAcquire(const void* mu, LockRank rank);

/// Remove `mu` from this thread's held stack (out-of-order safe: waits on
/// condition_variable_any unlock/relock through the BasicLockable face).
void OnRelease(const void* mu);

/// Number of locks the calling thread currently holds (test hook).
std::size_t HeldCount();

}  // namespace lockdep

#endif  // GHBA_LOCKDEP

/// std::mutex with capability annotations and a mandatory static LockRank.
/// Drop-in for the plain type — same cost in release builds — but fields
/// can be GHBA_GUARDED_BY it, functions can GHBA_REQUIRES it, and (under
/// GHBA_LOCKDEP) every acquisition is checked against the global order.
class GHBA_CAPABILITY("mutex") Mutex {
 public:
  /// The rank is mandatory: there is deliberately no default constructor,
  /// so every mutex in the tree documents its place in the global order at
  /// the point of declaration. `ghba-mutex-rank` additionally requires the
  /// argument to be a literal LockRank enumerator.
  explicit Mutex(LockRank rank)
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
      : rank_(rank) {
  }
#else
  {
    (void)rank;
  }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GHBA_ACQUIRE() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
    lockdep::BeforeAcquire(this, rank_);
    mu_.lock();
    lockdep::AfterAcquire(this, rank_);
#else
    mu_.lock();
#endif
  }
  void Unlock() GHBA_RELEASE() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
    lockdep::OnRelease(this);
#endif
    mu_.unlock();
  }
  bool TryLock() GHBA_TRY_ACQUIRE(true) {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
    // A try-lock cannot deadlock by itself, but an out-of-rank try-lock is
    // still a discipline violation here: validate exactly like Lock().
    lockdep::BeforeAcquire(this, rank_);
    if (!mu_.try_lock()) return false;
    lockdep::AfterAcquire(this, rank_);
    return true;
#else
    return mu_.try_lock();
#endif
  }

  // BasicLockable spelling so std::condition_variable_any can wait on a
  // Mutex directly. The wait's internal unlock/relock is invisible to the
  // analysis, which is exactly right: the capability is held before and
  // after, and the waker re-establishes the invariants before notifying.
  // Lockdep *does* see it (pop on unlock, re-validate on relock), which is
  // also right: whatever the thread still holds bounds the relock.
  void lock() GHBA_ACQUIRE() { Lock(); }
  void unlock() GHBA_RELEASE() { Unlock(); }

  /// For interop with std::condition_variable_any and std::scoped_lock.
  /// NB: acquisitions through the native handle bypass lockdep; keep it to
  /// call sites that never hold a second lock.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  LockRank rank_;
#endif
};

#if !defined(GHBA_LOCKDEP) || !GHBA_LOCKDEP
// The whole validator must compile to nothing when off: a ranked Mutex is
// layout-identical to the raw std::mutex it wraps.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex must carry zero lockdep overhead when GHBA_LOCKDEP "
              "is off");
#endif

/// RAII lock for Mutex, annotated so the analysis tracks the scope:
///   MutexLock lock(&mu_);   // mu_ held until end of scope
class GHBA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GHBA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() GHBA_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Reader/writer lock with a mandatory static LockRank. Writer-preferring:
/// once a writer waits, new readers queue behind it, so a stream of
/// back-to-back readers cannot starve the writer (glibc's default rwlock
/// prefers readers and would). Shared holders count as holding the rank for
/// the acquire-down rule exactly like Mutex holders; lockdep validates both
/// modes. The internal std::mutex guards only the state word and is never
/// held across a caller's critical section, so it sits outside the order.
class GHBA_CAPABILITY("mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank)
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
      : rank_(rank) {
  }
#else
  {
    (void)rank;
  }
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() GHBA_ACQUIRE();
  void Unlock() GHBA_RELEASE();
  void LockShared() GHBA_ACQUIRE_SHARED();
  void UnlockShared() GHBA_RELEASE_SHARED();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t readers_ = 0;
  std::uint32_t writers_waiting_ = 0;
  bool writer_ = false;
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  LockRank rank_;
#endif
};

/// RAII shared (reader) hold of a SharedMutex.
class GHBA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) GHBA_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() GHBA_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) hold of a SharedMutex.
class GHBA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) GHBA_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() GHBA_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// A "thread role" capability (Clang's role idiom): state owned by exactly
/// one thread — e.g. an event loop — is GHBA_GUARDED_BY the role, functions
/// that touch it GHBA_REQUIRES it, and the owning thread Adopt()s the role
/// once at the top of its run function. There is no lock at runtime; the
/// analysis simply refuses any access from a function that cannot prove it
/// runs on the owning thread.
class GHBA_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void Adopt() GHBA_ACQUIRE() {}
  void Drop() GHBA_RELEASE() {}
};

/// Scoped adoption of a ThreadRole for the duration of a thread function.
class GHBA_SCOPED_CAPABILITY ThreadRoleGuard {
 public:
  explicit ThreadRoleGuard(ThreadRole* role) GHBA_ACQUIRE(role)
      : role_(role) {
    role_->Adopt();
  }
  ~ThreadRoleGuard() GHBA_RELEASE() { role_->Drop(); }

  ThreadRoleGuard(const ThreadRoleGuard&) = delete;
  ThreadRoleGuard& operator=(const ThreadRoleGuard&) = delete;

 private:
  ThreadRole* const role_;
};

}  // namespace ghba
