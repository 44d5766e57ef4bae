#ifndef LSI_DBG_LOCK_TRACKER_H_
#define LSI_DBG_LOCK_TRACKER_H_

/// Runtime lock-order analysis (the "runtime side" of the two-sided
/// deadlock gate; tools/lsi_lint.py is the static side).
///
/// Every lsi::Mutex may carry a LockRankInfo — a process-unique name
/// plus an integer rank, declared at the member with LSI_LOCK_RANK
/// (common/lock_ranks.h). When the detector is enabled
/// (LSI_DEADLOCK_DETECT=1) each thread keeps a stack of held ranked
/// locks and the process keeps a global acquired-before graph keyed by
/// lock *class* (name), not instance. Two rules are enforced at
/// acquisition time, before the acquire can block:
///
///   1. Rank order: acquiring a lock whose rank is strictly lower than
///      any ranked lock already held is an inversion — reported with
///      both acquisition sites.
///   2. Graph acyclicity: every held-class -> new-class pair inserts an
///      edge; an insertion that closes a cycle (including the 2-class
///      AB/BA case and N-thread cycles observed across the process
///      lifetime) is a potential deadlock — reported with the sites
///      that first established each edge on the cycle.
///
/// Because the graph is cumulative across threads and time, a deadlock
/// only has to be *possible* to be caught: the AB and BA orders never
/// need to interleave in the same run. This is the classic lockdep
/// design. Violations abort by default; tests install a handler.
///
/// This subsystem sits BELOW common (common/mutex.h calls into it), so
/// it must not use lsi::Mutex, LSI_LOG, lsi::obs, or anything above it;
/// it guards its own state with a raw std::mutex and reports fatal
/// violations with bare stderr writes.

#include <atomic>
#include <cstdint>
#include <source_location>
#include <string>
#include <vector>

namespace lsi::dbg {

/// Immutable metadata for one lock class. Returned by RegisterLockRank
/// and stored by lsi::Mutex; pointers are stable for process lifetime.
struct LockRankInfo {
  const char* name;  // process-unique, e.g. "live.engine.write"
  int rank;          // see common/lock_ranks.h for the band layout
  uint32_t id;       // dense index into the class table
};

/// Registers (or re-looks-up) the lock class `name` at `rank`. Called
/// once per LSI_LOCK_RANK site through a function-local static.
/// Registering an existing name with a *different* rank is itself a
/// violation (rank tables out of sync) and is reported immediately.
const LockRankInfo* RegisterLockRank(const char* name, int rank);

namespace internal {
/// 0 = uninitialised, 1 = off, 2 = on. Relaxed loads keep the
/// detector-off cost of every Lock()/Unlock() to one predictable
/// branch; there is no ordering to enforce because the flag is
/// write-once outside SetDeadlockDetectForTest.
extern std::atomic<int> g_detect_state;
bool DetectSlowInit();  // reads LSI_DEADLOCK_DETECT, latches the state
}  // namespace internal

/// True when the runtime detector is on (LSI_DEADLOCK_DETECT=1, or
/// forced by SetDeadlockDetectForTest). This is the release-build fast
/// path: one relaxed atomic load and one branch.
inline bool DeadlockDetectEnabled() {
  const int s = internal::g_detect_state.load(std::memory_order_relaxed);
  if (s == 0) return internal::DetectSlowInit();
  return s == 2;
}

/// Forces the detector on or off, overriding the environment. Test-only.
void SetDeadlockDetectForTest(bool enabled);

/// A detected ordering violation. `kind` is "rank-inversion",
/// "rank-conflict", or "cycle". The message embeds every relevant
/// acquisition site (file:line (function)).
struct Violation {
  std::string kind;
  std::string message;
};

/// Installs a handler called instead of the default report-and-abort.
/// Returns the previous handler (nullptr = default). Test-only: lets
/// multi-threaded cycle tests observe violations without death tests.
using ViolationHandler = void (*)(const Violation&);
ViolationHandler SetViolationHandler(ViolationHandler handler);

/// Hooks wired into lsi::Mutex / lsi::MutexLock / lsi::CondVar. All are
/// no-ops for unranked mutexes (info == nullptr) except release, which
/// is keyed by address and simply finds nothing. Call only when
/// DeadlockDetectEnabled() — the wrappers guard every call site.
void OnAcquire(const LockRankInfo* info, const void* mutex,
               const std::source_location& loc);
/// TryLock that succeeded: pushes the held entry but records no edges
/// and runs no checks — a try-acquire cannot block, so it cannot
/// deadlock, and treating it as an ordering commitment would flag
/// valid try-then-back-off patterns.
void OnTryAcquire(const LockRankInfo* info, const void* mutex,
                  const std::source_location& loc);
void OnRelease(const void* mutex);
/// CondVar wait: the mutex is released while blocked, so its held
/// entry is popped before the wait...
void OnCondVarWaitBegin(const void* mutex);
/// ...and re-pushed (with full rank/graph re-check) once the wait
/// returns. Waiting while holding only the waited-on mutex therefore
/// never reports; waiting while holding locks acquired *after* it
/// re-checks the re-acquire against them, which is exactly the hazard.
void OnCondVarWaitEnd(const LockRankInfo* info, const void* mutex,
                      const std::source_location& loc);

/// Point-in-time export of the acquired-before graph, for lsi.dbg.*
/// metrics, /statusz, and `lsi_tool lockgraph`.
struct LockClassSnapshot {
  std::string name;
  int rank = 0;
  uint64_t acquisitions = 0;
};
struct LockEdgeSnapshot {
  std::string from;       // acquired first
  std::string to;         // acquired while `from` held
  uint64_t count = 0;     // times this edge was observed
  std::string from_site;  // where `from` was held when first observed
  std::string to_site;    // where `to` was acquired when first observed
};
struct LockGraphSnapshot {
  bool enabled = false;
  uint64_t violations = 0;
  std::vector<LockClassSnapshot> classes;  // sorted by rank, then name
  std::vector<LockEdgeSnapshot> edges;     // sorted by (from, to)
};
LockGraphSnapshot SnapshotLockGraph();

/// Clears recorded edges, acquisition counts, and the violation count
/// (registered classes persist — they are function-local statics).
/// Test-only isolation between cases in one process.
void ResetLockGraphForTest();

}  // namespace lsi::dbg

#endif  // LSI_DBG_LOCK_TRACKER_H_
