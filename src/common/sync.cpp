// Runtime lock-rank validator ("lockdep"), compiled only under
// -DGHBA_LOCKDEP=1 (cmake -DGHBA_LOCKDEP=ON).
//
// Per-thread state: the stack of currently held (mutex, rank) pairs plus
// the backtrace captured at each acquisition. Global state: the rank-level
// acquisition graph — for every ordered pair of ranks (A, B) observed as
// "B acquired while holding A" on ANY thread, the first occurrence's two
// backtraces. A violation report therefore shows three things: where the
// offending acquisition is happening, where the lock blocking it was
// taken, and — for cross-thread A/B-B/A cycles — where the opposite order
// was first established.
//
// The validator aborts BEFORE blocking on the mutex, so the process dies
// with a report instead of deadlocking: in an A/B-B/A race, whichever
// thread attempts the rank-increasing half is refused while the other is
// still merely blocked.
//
// SharedMutex (below the validator) is compiled in every build.

#include "common/sync.hpp"

#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP

#include <cstdio>
#include <cstdlib>
#include <vector>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define GHBA_LOCKDEP_HAVE_BACKTRACE 1
#endif
#endif

namespace ghba {
namespace lockdep {
namespace {

constexpr int kMaxFrames = 24;

struct Backtrace {
  void* frames[kMaxFrames];
  int depth = 0;

  void Capture() {
#if defined(GHBA_LOCKDEP_HAVE_BACKTRACE)
    depth = ::backtrace(frames, kMaxFrames);
#else
    depth = 0;
#endif
  }

  void Dump() const {
#if defined(GHBA_LOCKDEP_HAVE_BACKTRACE)
    if (depth > 0) {
      ::backtrace_symbols_fd(const_cast<void* const*>(frames), depth, 2);
      return;
    }
#endif
    std::fprintf(stderr, "    <backtrace unavailable>\n");
  }
};

struct HeldLock {
  const void* mu = nullptr;
  LockRank rank = LockRank::kLogging;
  Backtrace acquired_at;
};

// The held stack is strictly rank-decreasing by construction (the rule
// refuses any non-decreasing acquisition), and out-of-order releases keep
// it sorted, so the minimum held rank is always the back element.
std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

/// One edge of the global acquisition graph: "`to` was acquired while
/// holding `from`", with the first-seen backtraces of both acquisitions.
struct RankEdge {
  bool seen = false;
  Backtrace holder_at;   // where the `from`-ranked lock had been taken
  Backtrace acquire_at;  // where the `to`-ranked lock was then taken
};

// Graph state has its own raw std::mutex — it must not be a ghba::Mutex,
// which would recurse into the validator.
std::mutex g_graph_mu;
RankEdge g_edges[kLockRankCount][kLockRankCount];

void RecordEdge(const HeldLock& holder, LockRank rank,
                const Backtrace& acquire_at) {
  std::lock_guard<std::mutex> lock(g_graph_mu);
  RankEdge& edge =
      g_edges[static_cast<std::size_t>(holder.rank)][static_cast<std::size_t>(
          rank)];
  if (edge.seen) return;
  edge.seen = true;
  edge.holder_at = holder.acquired_at;
  edge.acquire_at = acquire_at;
}

/// Copy of the opposite-order edge (`rank` -> `holder`), if any thread ever
/// established it — the smoking gun for an A/B-B/A cycle.
bool OppositeOrder(LockRank holder, LockRank rank, RankEdge* out) {
  std::lock_guard<std::mutex> lock(g_graph_mu);
  const RankEdge& edge =
      g_edges[static_cast<std::size_t>(rank)][static_cast<std::size_t>(
          holder)];
  if (!edge.seen) return false;
  *out = edge;
  return true;
}

[[noreturn]] void Die(const void* mu, LockRank rank,
                      const Backtrace& acquire_at) {
  const std::vector<HeldLock>& held = HeldStack();
  const HeldLock& conflict = held.back();
  std::fprintf(stderr,
               "\n=== lockdep: lock rank inversion ===\n"
               "thread attempts to acquire %s-ranked mutex %p while "
               "holding %s-ranked mutex %p\n"
               "(rule: a new lock must rank strictly below every held "
               "lock; see LockRank in src/common/sync.hpp)\n",
               LockRankName(rank), mu, LockRankName(conflict.rank),
               conflict.mu);
  std::fprintf(stderr, "held locks (outermost first):\n");
  for (const HeldLock& h : held) {
    std::fprintf(stderr, "  %s (%p)\n", LockRankName(h.rank), h.mu);
  }
  std::fprintf(stderr, "\noffending acquisition at:\n");
  acquire_at.Dump();
  std::fprintf(stderr, "\nconflicting %s lock was acquired at:\n",
               LockRankName(conflict.rank));
  conflict.acquired_at.Dump();
  RankEdge opposite;
  if (OppositeOrder(conflict.rank, rank, &opposite)) {
    std::fprintf(stderr,
                 "\ncross-thread cycle: the opposite order (%s before %s) "
                 "was established earlier —\n  %s held at:\n",
                 LockRankName(rank), LockRankName(conflict.rank),
                 LockRankName(rank));
    opposite.holder_at.Dump();
    std::fprintf(stderr, "  then %s acquired at:\n",
                 LockRankName(conflict.rank));
    opposite.acquire_at.Dump();
  }
  std::fprintf(stderr, "=== lockdep: aborting ===\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void BeforeAcquire(const void* mu, LockRank rank) {
  std::vector<HeldLock>& held = HeldStack();
  if (held.empty()) return;
  Backtrace here;
  here.Capture();
  // Record the edge first so a concurrent inverted attempt on another
  // thread can name this site in its report.
  RecordEdge(held.back(), rank, here);
  if (rank >= held.back().rank) Die(mu, rank, here);
}

void AfterAcquire(const void* mu, LockRank rank) {
  std::vector<HeldLock>& held = HeldStack();
  HeldLock entry;
  entry.mu = mu;
  entry.rank = rank;
  entry.acquired_at.Capture();
  held.push_back(entry);
}

void OnRelease(const void* mu) {
  std::vector<HeldLock>& held = HeldStack();
  // Search from the top: releases are almost always LIFO, but a
  // condition_variable_any wait can interleave unlocks out of order.
  for (std::size_t i = held.size(); i > 0; --i) {
    if (held[i - 1].mu == mu) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
  // Releasing a lock lockdep never saw acquired: a bypass through
  // Mutex::native() or corrupted bookkeeping. Both are bugs.
  std::fprintf(stderr,
               "=== lockdep: release of un-tracked mutex %p (acquired via "
               "native()?) ===\n",
               mu);
  std::fflush(stderr);
  std::abort();
}

std::size_t HeldCount() { return HeldStack().size(); }

}  // namespace lockdep
}  // namespace ghba

#endif  // GHBA_LOCKDEP

namespace ghba {

void SharedMutex::Lock() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::BeforeAcquire(this, rank_);
#endif
  {
    std::unique_lock<std::mutex> state(mu_);
    ++writers_waiting_;
    cv_.wait(state, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::AfterAcquire(this, rank_);
#endif
}

void SharedMutex::Unlock() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::OnRelease(this);
#endif
  {
    std::lock_guard<std::mutex> state(mu_);
    writer_ = false;
  }
  cv_.notify_all();
}

void SharedMutex::LockShared() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::BeforeAcquire(this, rank_);
#endif
  {
    std::unique_lock<std::mutex> state(mu_);
    // A waiting writer bars new readers: writer preference.
    cv_.wait(state, [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::AfterAcquire(this, rank_);
#endif
}

void SharedMutex::UnlockShared() {
#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP
  lockdep::OnRelease(this);
#endif
  bool last = false;
  {
    std::lock_guard<std::mutex> state(mu_);
    --readers_;
    last = readers_ == 0;
  }
  if (last) cv_.notify_all();
}

}  // namespace ghba
