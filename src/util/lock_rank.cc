#include "util/lock_rank.h"

#include "util/check.h"

namespace dash {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kControlServerConns:
      return "kControlServerConns";
    case LockRank::kMeshManager:
      return "kMeshManager";
    case LockRank::kJobScheduler:
      return "kJobScheduler";
    case LockRank::kPhase1Cache:
      return "kPhase1Cache";
    case LockRank::kSessionMux:
      return "kSessionMux";
    case LockRank::kInProcessMesh:
      return "kInProcessMesh";
    case LockRank::kThreadPool:
      return "kThreadPool";
    case LockRank::kTransportStats:
      return "kTransportStats";
    case LockRank::kSecrecyAudit:
      return "kSecrecyAudit";
    case LockRank::kPanelPrefetch:
      return "kPanelPrefetch";
    case LockRank::kLeaf:
      return "kLeaf";
  }
  return "unknown";
}

#ifndef NDEBUG

namespace lock_rank_internal {
namespace {

// Deepest legal nesting today is 2 (scheduler→mux, mesh→mux); 16 leaves
// room for growth without heap traffic on the lock path.
constexpr int kMaxHeldLocks = 16;

struct HeldStack {
  LockRank ranks[kMaxHeldLocks];
  int depth = 0;
};

thread_local HeldStack held_stack;

}  // namespace

void NoteAcquire(LockRank rank) {
  HeldStack& held = held_stack;
  DASH_CHECK(held.depth < kMaxHeldLocks)
      << "lock-rank stack overflow; no code path should hold this many "
         "mutexes at once";
  if (held.depth > 0) {
    const LockRank top = held.ranks[held.depth - 1];
    DASH_CHECK(static_cast<int32_t>(rank) > static_cast<int32_t>(top))
        << "lock-rank violation: acquiring " << LockRankName(rank) << " ("
        << static_cast<int32_t>(rank) << ") while holding "
        << LockRankName(top) << " (" << static_cast<int32_t>(top)
        << "); the total order in util/lock_rank.h forbids this nesting "
           "because the reverse order elsewhere would deadlock";
  }
  held.ranks[held.depth++] = rank;
}

void NoteRelease(LockRank rank) {
  HeldStack& held = held_stack;
  DASH_CHECK(held.depth > 0)
      << "lock-rank underflow: releasing " << LockRankName(rank)
      << " on a thread that holds no dash::Mutex";
  DASH_CHECK(held.ranks[held.depth - 1] == rank)
      << "non-LIFO mutex release: releasing " << LockRankName(rank)
      << " while " << LockRankName(held.ranks[held.depth - 1])
      << " is the innermost held lock; use scoped MutexLock";
  --held.depth;
}

int HeldCountForTest() { return held_stack.depth; }

}  // namespace lock_rank_internal

#endif  // NDEBUG

}  // namespace dash
