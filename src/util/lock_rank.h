// Compile-time lock-rank registry (DESIGN.md §14).
//
// Clang's thread-safety analysis proves that guarded state is touched
// with the right mutex held, but it cannot see cross-class acquisition
// CYCLES (scheduler→mux on one thread, mux→scheduler on another is a
// deadlock no per-field annotation detects). The rank registry closes
// that hole: every dash::Mutex is constructed with a rank from the
// total order below, and debug builds keep a per-thread stack of held
// ranks, DASH_CHECK-failing the moment a thread acquires a mutex whose
// rank is not strictly greater than everything it already holds.
//
// The order is the ACQUISITION order — outermost (acquired first)
// ranks are smallest. It encodes every legal nesting in the tree today:
//
//   rank  mutex                                 nests into (higher ranks)
//   ----  ------------------------------------  -------------------------
//    10   ControlServer::conn_mu_               (leaf in practice)
//    15   partyd MeshManager::mu_               SessionMux::mu_ (health
//                                               probe under the mesh lock)
//    20   JobScheduler::mu_                     SessionMux::mu_ (abort of
//                                               a running job's session)
//    30   Phase1Cache::mu_                      (leaf)
//    40   SessionMux::mu_                       (leaf)
//    45   InProcessMesh::mu_                    (leaf)
//    50   ThreadPool::mu_                       (leaf)
//    60   TcpTransport::stats_mutex_            (leaf)
//    70   SecrecyAudit registry                 (leaf)
//    80   PanelPrefetcher::mu_                  (leaf; hand-off between
//                                               the prefetch I/O thread
//                                               and the scan loop)
//    90   kLeaf — innermost; tests and one-off  (nothing)
//         mutexes that never call out
//
// Two mutexes of EQUAL rank may never be held together (that is how a
// future second instance of the same class cannot form an A→B→A cycle
// unnoticed). Adding a mutex means adding a rank here and a row to the
// DESIGN.md table; DL007 rejects a dash::Mutex member without one.

#ifndef DASH_UTIL_LOCK_RANK_H_
#define DASH_UTIL_LOCK_RANK_H_

#include <cstdint>

namespace dash {

enum class LockRank : int32_t {
  kControlServerConns = 10,
  kMeshManager = 15,
  kJobScheduler = 20,
  kPhase1Cache = 30,
  kSessionMux = 40,
  kInProcessMesh = 45,
  kThreadPool = 50,
  kTransportStats = 60,
  kSecrecyAudit = 70,
  kPanelPrefetch = 80,
  kLeaf = 90,
};

// Diagnostic name for a rank ("kSessionMux"), or "unknown".
const char* LockRankName(LockRank rank);

namespace lock_rank_internal {

#ifdef NDEBUG

// Release builds: rank checking compiles away entirely (the mutex still
// stores its rank, so the registry stays total even where unchecked).
inline void NoteAcquire(LockRank) {}
inline void NoteRelease(LockRank) {}
inline int HeldCountForTest() { return 0; }

#else

// Debug builds: per-thread stack of held ranks. NoteAcquire
// DASH_CHECK-fails unless `rank` is strictly greater than every rank
// the calling thread already holds; NoteRelease expects LIFO release
// (scoped MutexLock guarantees it).
void NoteAcquire(LockRank rank);
void NoteRelease(LockRank rank);

// Depth of the calling thread's held-rank stack (tests only).
int HeldCountForTest();

#endif  // NDEBUG

}  // namespace lock_rank_internal
}  // namespace dash

#endif  // DASH_UTIL_LOCK_RANK_H_
