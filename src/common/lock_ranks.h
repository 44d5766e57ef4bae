#ifndef LSI_COMMON_LOCK_RANKS_H_
#define LSI_COMMON_LOCK_RANKS_H_

/// The process-wide lock rank table.
///
/// Rank rule: a thread may only acquire a lock whose rank is >= the
/// rank of every ranked lock it already holds (equal ranks are allowed
/// so unordered sibling locks can coexist; the acquired-before graph
/// still catches real cycles among them). Ranks therefore encode the
/// permitted nesting direction: LOW ranks are the outermost locks
/// (taken first, at the top of a call chain), HIGH ranks are leaves.
///
/// Every lsi::Mutex member in src/ must be constructed with
/// LSI_LOCK_RANK("<subsystem>.<name>", lock_rank::kConstant) using a
/// constant from this table; tools/lsi_lint.py enforces that
/// statically (mutex-rank, rank-unique, rank-table rules) and the
/// runtime detector (src/dbg/lock_tracker.h, LSI_DEADLOCK_DETECT=1)
/// enforces the ordering dynamically.
///
/// Bands leave gaps so new locks slot in without renumbering.

#include "dbg/lock_tracker.h"

/// Declares the rank + name of one lock class at a Mutex member's
/// construction site:
///
///   Mutex mutex_{LSI_LOCK_RANK("obs.metrics", lock_rank::kObsMetrics)};
///
/// Same shape as LSI_FAULT_POINT: a function-local static makes the
/// registry lookup once per site, so constructing the Nth instance of a
/// sharded lock costs a static-init check, not a map probe.
#define LSI_LOCK_RANK(name, rank)                                   \
  ([]() -> const ::lsi::dbg::LockRankInfo* {                        \
    static const ::lsi::dbg::LockRankInfo* const lsi_lock_rank_info = \
        ::lsi::dbg::RegisterLockRank(name, rank);                   \
    return lsi_lock_rank_info;                                      \
  }())

namespace lsi::lock_rank {

// ---- Band 2-9: shard router (outermost of all). ----
// The scatter-gather router sits ABOVE the single-node serving layer:
// its state lock (breaker table, latency rings) is held while resolving
// metrics handles and while admitting work into the per-backend serve
// stack, so it ranks below every serve/live/obs lock. Network I/O is
// never performed under it.
inline constexpr int kShardRouterState = 4;

// ---- Band 10-19: serving entry points. ----
// Request-path locks held while calling DOWN into live/fault/obs.
// serve.server.queue is the accept/dispatch queue; the batcher enqueues
// under its lock while resolving metrics handles and fault points, so
// both sit below everything they call into.
inline constexpr int kServeServerQueue = 10;
inline constexpr int kServeBatcherQueue = 12;
inline constexpr int kServeCacheShard = 14;

// ---- Band 20-29: live index (writer / snapshot lifecycle). ----
// The refresher loop's 3-phase re-SVD takes refresh -> write ->
// snapshot in that order (freeze under write, build unlocked, replay
// + swap under write -> snapshot), so the band orders refresh lowest.
// Write-path WAL appends hold live.engine.write while hitting fault
// points (band 60) and obs counters (band 70) — strictly upward.
inline constexpr int kLiveRefresh = 20;
inline constexpr int kLiveWrite = 24;
inline constexpr int kLiveSnapshot = 28;

// ---- Band 30-39: parallel substrate. ----
// The scheduler resolves the thread-count gauge (band 70) under its
// lock; pool workers take only the queue lock; regions never nest
// (nested ParallelFor serializes), so region sits as a leaf above the
// queue it feeds.
inline constexpr int kParScheduler = 30;
inline constexpr int kParPoolQueue = 32;
inline constexpr int kParRegion = 34;

// ---- Band 60-69: fault injection. ----
// FaultRegistry::Register/ArmFromString hold the registry lock while
// arming individual points, so registry < point.
inline constexpr int kFaultRegistry = 60;
inline constexpr int kFaultPoint = 62;

// ---- Band 70-79: observability. ----
// Metric/span registries are called from under almost every lock above
// (gauge publishes, counter bumps), and call nothing themselves.
inline constexpr int kObsMetrics = 70;
inline constexpr int kObsSpan = 72;

// ---- Band 90-99: terminal leaves. ----
// The logging sink serializes a single fwrite and may be entered from
// anywhere, including while any other lock is held. Nothing may be
// acquired under it.
inline constexpr int kLoggingSink = 95;

}  // namespace lsi::lock_rank

#endif  // LSI_COMMON_LOCK_RANKS_H_
