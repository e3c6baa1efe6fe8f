// Per-cgroup background reclaimer lanes: the kswapd analogue.
//
// The paper's kernel counterpart keeps eviction off the fault path by letting
// kswapd run `balance_pgdat` between the low and high zone watermarks; a miss
// only does direct reclaim when allocation outruns the daemon. This module is
// that machinery for the simulated page cache:
//
//  - `CgroupReclaimControl` is the per-cgroup control block (one per
//    CgroupState, the lruvec analogue): the hysteresis latch that turns
//    watermark crossings into wakeups, the reclaimer's own virtual Lane
//    (eviction CPU time is charged here, not to the allocating reader),
//    the heartbeat the allocator-side watchdog reads, and every reclaim
//    counter surfaced through CgroupCacheStats — including PSI-style
//    `some`/`full` stall time (kernel: psi memory pressure, where `some` is
//    wall time at least one task spent stalled on reclaim and `full` is the
//    subset where no forward progress was made at all).
//
//  - There are no reclaimer threads: the lane is purely virtual, and the
//    allocator that wakes it ticks it synchronously under the cgroup lock,
//    which models an always-prompt daemon (its CPU time still lands on its
//    own clock, never on the allocator's).
//
// Robustness contract (the reason this file exists, ISSUE 7):
//  * Allocation NEVER blocks on a healthy reclaimer — it allocates from
//    pre-reclaimed headroom; only crossing the hard limit enters emergency
//    direct reclaim, which is bounded (stops at the limit, not the high
//    watermark) and never waits for the daemon.
//  * A stalled or dead reclaimer is detected by heartbeat comparison across
//    emergency entries (`NoteEmergencyEntry`), trips the watchdog, and is
//    re-probed with exponential backoff instead of being kicked on every
//    allocation.
//  * Fault points `reclaim.stall`, `reclaim.thread_death` and
//    `reclaim.overshoot` (armed by the chaos suite) wedge, kill, or
//    throttle a lane on demand; all InjectFault call sites live in
//    reclaimer.cc.

#ifndef SRC_RECLAIM_RECLAIMER_H_
#define SRC_RECLAIM_RECLAIMER_H_

#include <atomic>
#include <cstdint>

#include "src/cgroup/memcg_stat.h"
#include "src/reclaim/watermarks.h"
#include "src/sim/lane.h"

namespace cache_ext::reclaim {

// Master switches and robustness knobs, embedded in PageCacheOptions.
struct ReclaimOptions {
  // Enable background reclaim. False (the `reclaim.background=false`
  // ablation and the default) preserves the historical inline-only
  // behaviour: every over-limit allocation pays direct reclaim itself.
  bool background = false;
  // Circuit-breaker feed: after this many CONSECUTIVE reclaim rounds where
  // the ext policy proposed nothing usable while the base-policy fallback
  // did evict, latch the watchdog detach (feeding the PR-2 PolicyManager
  // revert -> quarantine path). 0 disables — the default, because the
  // no-op policy legitimately proposes nothing and relies on fallback.
  uint32_t ext_failure_limit = 0;
};

enum class LaneHealth : uint8_t {
  kIdle = 0,     // below the low watermark, nothing to do
  kRunning = 1,  // actively reclaiming toward the high watermark
  kStalled = 2,  // watchdog: heartbeat stopped advancing under pressure
  kDead = 3,     // lane killed (reclaim.thread_death); never recovers
};
const char* LaneHealthName(LaneHealth health);

// Outcome of a tick attempt, decided before any eviction work.
enum class TickOutcome : uint8_t {
  kRun,      // proceed with eviction batches
  kStalled,  // wedged this tick (reclaim.stall): no progress, no heartbeat
  kDead,     // lane is dead: permanent no-op
};

// Per-cgroup reclaim control block. Every caller holds the owning cgroup's
// lock, so the relaxed atomics below need no ordering of their own.
class CgroupReclaimControl {
 public:
  explicit CgroupReclaimControl(uint32_t cgroup_id)
      : lane_(kLaneIdBase + cgroup_id, TaskContext{0, 0},
              kLaneSeed + cgroup_id) {}
  CgroupReclaimControl(const CgroupReclaimControl&) = delete;
  CgroupReclaimControl& operator=(const CgroupReclaimControl&) = delete;

  // The reclaimer's own virtual clock. Eviction work done by background
  // ticks is charged here — the whole point of the daemon is that this time
  // does NOT appear on any allocating reader's lane. Guarded by the owning
  // cgroup's lock, like the policies it drives.
  Lane& lane() { return lane_; }
  // Background eviction hooks run as the reclaimer task (pid 0/tid 0, a
  // kernel thread) — policies keying on CurrentTask see kswapd, not the
  // reader that happened to trip the wakeup. Matches kernel semantics.
  TaskContext task() const { return lane_.task(); }

  // ---- Allocator side (watermark check on the miss path) -----------------

  // Hysteresis latch: returns true while the reclaimer should be running.
  // Arms when headroom drops below the low watermark, stays armed until the
  // high watermark target is reached, and counts a wakeup only on the
  // idle->active edge — an allocation rate oscillating around one threshold
  // cannot thrash wakeups.
  bool ShouldWake(uint64_t charged_pages, const Watermarks& wm);

  // Whether a wake-path kick is worthwhile: true for a healthy lane, false
  // for one the watchdog declared stalled/dead (those are only re-probed
  // from emergency entries, with backoff).
  bool KickAllowed() const {
    const auto h = health();
    return h == LaneHealth::kIdle || h == LaneHealth::kRunning;
  }

  // Emergency direct-reclaim entry (allocation found the cgroup over its
  // hard limit despite background reclaim). Runs the allocator-side
  // watchdog: compares the lane heartbeat against the last entry, declares
  // kStalled after kWatchdogMisses unchanged observations, re-probes a
  // stalled lane with exponential backoff. Returns true when kicking the
  // lane (once more) is worthwhile before falling back to inline eviction.
  // Called under the cgroup lock.
  bool NoteEmergencyEntry(uint64_t overshoot_pages);

  // Direct-reclaim accounting (both the inline-only ablation and the
  // emergency path): `ns` is lane time spent inside direct reclaim (PSI
  // `some`), `zero_progress_ns` the subset spent in rounds that evicted
  // nothing (PSI `full`).
  void NoteDirect(uint64_t ns, uint64_t zero_progress_ns, uint64_t evicted);

  // ---- Reclaimer side (BackgroundTick) -----------------------------------

  // Gate at the top of every tick; consults the chaos fault points.
  // reclaim.thread_death latches kDead permanently; reclaim.stall wedges
  // the next `magnitude` ticks (default 8). Called under the cgroup lock.
  TickOutcome EnterTick();
  // reclaim.overshoot: when armed, the tick stops before reaching the high
  // watermark so occupancy climbs toward the hard limit — the bounded
  // emergency path must contain the overshoot. Checked between batches.
  bool InjectedUnderReclaim();
  // One completed eviction batch: advances the heartbeat (the liveness
  // signal the allocator watchdog reads) and the progress counters.
  void NoteBatch(uint64_t evicted);
  void NoteBackgroundNs(uint64_t ns) {
    counters_.ext_background_reclaim_ns.fetch_add(ns,
                                                  std::memory_order_relaxed);
  }
  // High-watermark headroom restored: release the hysteresis latch.
  void NoteTargetReached();

  // ---- Circuit-breaker feed (ext policy failing under reclaim) -----------

  // Called per reclaim round. A "failure" is the unambiguous signal that
  // the ext policy is broken *and* reclaim would work without it: it
  // proposed nothing usable while the base-policy fallback evicted fine.
  // Returns true when the consecutive-failure streak just hit `limit`
  // (caller latches the watchdog detach). limit == 0 disables.
  bool NoteExtRound(bool ext_made_progress, bool fallback_made_progress,
                    uint32_t limit);
  void ResetExtFailureStreak() {
    ext_failure_streak_.store(0, std::memory_order_relaxed);
  }

  // ---- Introspection -----------------------------------------------------

  LaneHealth health() const {
    return static_cast<LaneHealth>(health_.load(std::memory_order_relaxed));
  }
  uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  // The reclaim counters of CgroupCacheStats (src/cgroup/memcg_stat.h).
  struct Counters {
    CACHE_EXT_STAT_ATOMICS(CACHE_EXT_RECLAIM_STATS)
  };
  const Counters& counters() const { return counters_; }

 private:
  static constexpr uint32_t kLaneIdBase = 0x6b000000;  // 'k' for kswapd
  static constexpr uint64_t kLaneSeed = 0x6b737764;    // "kswd"
  static constexpr uint64_t kDefaultStallTicks = 8;
  // Emergency entries with an unchanged heartbeat before the allocator
  // watchdog declares the lane stalled (kernel: hung-task style detection).
  static constexpr uint32_t kWatchdogMisses = 3;
  // Once stalled/dead, re-probe the lane only every Nth emergency entry,
  // doubling up to the cap — a dead daemon must not add a kick to every
  // single allocation.
  static constexpr uint32_t kProbeBackoffInitial = 4;
  static constexpr uint32_t kProbeBackoffCap = 64;

  Lane lane_;

  // Hysteresis latch + health machine.
  std::atomic<bool> active_{false};
  std::atomic<uint8_t> health_{static_cast<uint8_t>(LaneHealth::kIdle)};
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> stall_ticks_remaining_{0};

  // Heartbeat (reclaimer writes, allocator watchdog reads) and the
  // watchdog's own state.
  std::atomic<uint64_t> heartbeat_{0};
  std::atomic<uint64_t> heartbeat_seen_{0};
  std::atomic<uint32_t> heartbeat_misses_{0};
  std::atomic<uint32_t> probe_backoff_{0};
  std::atomic<uint32_t> probe_countdown_{0};

  std::atomic<uint32_t> ext_failure_streak_{0};

  Counters counters_;
};

}  // namespace cache_ext::reclaim

#endif  // SRC_RECLAIM_RECLAIMER_H_
