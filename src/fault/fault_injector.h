// Deterministic fault injection for the cache_ext stack.
//
// The paper's safety argument (§4.4) is that the kernel tolerates
// misbehaving policies: candidate validation, helper budgets, and a
// watchdog. Proving that requires a way to *provoke* every failure mode on
// demand, reproducibly. FaultInjector is the process-global switchboard for
// that: code sprinkles named fault points (`fault::InjectFault("bpf.map.update")`)
// at the places where the real kernel can fail — map inserts, ring-buffer
// reservations, program aborts, device I/O — and tests arm those points
// with deterministic schedules ("fail the 3rd call", "every 16th",
// "p=0.05 with seed 42"). Disarmed, a fault point costs one relaxed atomic
// load, so the points stay compiled into production builds (the kernel's
// CONFIG_FAULT_INJECTION philosophy).
//
// Determinism: counters are per-point and probabilistic schedules draw from
// a per-point xoshiro stream seeded from the schedule, so a given
// (schedule, call sequence) always fires at the same calls.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace cache_ext::fault {

// Registered fault-point names. Sites pass these to InjectFault(); tests arm
// them. Keeping them in one place doubles as the registry of everything the
// chaos harness must cover.
namespace points {
// src/bpf
inline constexpr std::string_view kBpfMapUpdate = "bpf.map.update";
inline constexpr std::string_view kBpfMapLookup = "bpf.map.lookup";
inline constexpr std::string_view kBpfLruEvictStorm = "bpf.lru.evict_storm";
inline constexpr std::string_view kBpfRingbufReserve = "bpf.ringbuf.reserve";
inline constexpr std::string_view kBpfRunBudgetShrink = "bpf.run.budget_shrink";
inline constexpr std::string_view kBpfRunAbort = "bpf.run.abort";
// src/cache_ext
inline constexpr std::string_view kCandidateCorrupt =
    "cache_ext.candidate.corrupt";
inline constexpr std::string_view kListOp = "cache_ext.list.op";
inline constexpr std::string_view kPolicyInit = "cache_ext.policy_init";
// Make the readahead hook return a wild window (`magnitude` pages, default
// 2^32), as if the policy's stream tracking went off the rails. The page
// cache's max_readahead_pages clamp must contain it.
inline constexpr std::string_view kReadaheadMisfire = "readahead.misfire";
// src/bpf/jit
// Fail lowering a hook's IR to its native closure, as if bpf_int_jit_compile
// returned an error: the hook must keep running through the interpreter
// fallback with the policy still attached (ext_ir_interp_fallbacks counts
// the dispatches that took the slow path).
inline constexpr std::string_view kJitCompileFail = "jit.compile_fail";
// src/util
// A phantom EBR reader pinned at the current epoch: blocks `magnitude`
// epoch-advance attempts (default 64), deferring every free retired in the
// meantime — the analogue of a reader stuck inside rcu_read_lock.
inline constexpr std::string_view kEbrStall = "ebr.stall";
// src/reclaim
// Wedge a cgroup's background reclaimer lane for `magnitude` ticks
// (default 8): ticks make no progress and the heartbeat stops, so the
// allocator-side watchdog must detect it — the analogue of kswapd stuck
// in D-state behind a wedged eviction policy.
inline constexpr std::string_view kReclaimStall = "reclaim.stall";
// Kill the cgroup's reclaimer lane permanently: every later tick is a
// no-op, as if the kswapd thread died. Only the watchdog plus bounded
// emergency direct reclaim keep the cgroup live.
inline constexpr std::string_view kReclaimThreadDeath =
    "reclaim.thread_death";
// Make the background reclaimer under-reclaim (stop before the high
// watermark), so occupancy overshoots toward the hard limit and the
// emergency path must bound the excursion.
inline constexpr std::string_view kReclaimOvershoot = "reclaim.overshoot";
// src/writeback
// Wedge a cgroup's background flusher lane for `magnitude` ticks
// (default 8): ticks harvest nothing and the dirty gauge keeps climbing,
// so dirty throttling must contain the writers until the lane heals.
inline constexpr std::string_view kWritebackStall = "writeback.stall";
// Drop a flusher kick on the floor, as if the wakeup raced a concurrent
// sleep: the poll-interval backstop (MT) or the next dirtying operation
// (ST) must still get the lane running.
inline constexpr std::string_view kWritebackLostWakeup =
    "writeback.lost_wakeup";
// Make a flush tick stop after its first extent, leaving the rest of the
// harvest dirty — the background threshold must be re-reached by later
// ticks rather than assumed reached by this one.
inline constexpr std::string_view kWritebackPartialFlush =
    "writeback.partial_flush";
// src/sim
inline constexpr std::string_view kDiskRead = "sim.disk.read";
inline constexpr std::string_view kDiskWrite = "sim.disk.write";
inline constexpr std::string_view kSsdLatencySpike = "sim.ssd.latency_spike";
inline constexpr std::string_view kSsdDegrade = "sim.ssd.degrade";
}  // namespace points

// Every registered fault point, for harnesses that storm all of them.
std::vector<std::string_view> AllFaultPoints();

// When an armed point fires. Criteria compose with OR; all are evaluated
// against the point's hit counter (1-based), which starts counting at Arm().
struct FaultSchedule {
  // Fire exactly on the Nth hit. 0 disables this criterion.
  uint64_t on_nth = 0;
  // Fire on every Kth hit (after skipping `after` hits). 0 disables.
  uint64_t every_kth = 0;
  // Hits to skip before every_kth / probability apply.
  uint64_t after = 0;
  // Bernoulli per hit with this probability, drawn from a stream seeded by
  // `seed` — deterministic for a fixed call sequence.
  double probability = 0.0;
  uint64_t seed = 1;
  // Stop firing after this many fires (the fault "heals").
  uint64_t max_fires = UINT64_MAX;
  // Site-interpreted intensity: latency multiplier for kSsdLatencySpike,
  // shrunk budget for kBpfRunBudgetShrink, entries evicted for
  // kBpfLruEvictStorm. 0 = the site's default.
  uint64_t magnitude = 0;
};

class FaultInjector {
 public:
  // The process-global injector all fault points consult.
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(std::string_view point, const FaultSchedule& schedule);
  void Disarm(std::string_view point);
  void DisarmAll();

  // Called by fault sites. Returns true when the fault should fire; fills
  // `magnitude` (if non-null) with the schedule's magnitude on fire.
  bool ShouldFail(std::string_view point, uint64_t* magnitude = nullptr);
  // False while no injector has an armed point: the disarmed fast path.
  static bool AnyArmed() {
    return armed_.load(std::memory_order_relaxed) != 0;
  }

  // Introspection (counts since the point was armed; reset by Arm/Disarm).
  uint64_t hits(std::string_view point) const;
  uint64_t fires(std::string_view point) const;
  // Fires across all points since construction (survives Disarm).
  uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }
  std::vector<std::string> ArmedPoints() const;

 private:
  struct Point {
    FaultSchedule schedule;
    Rng rng;
    uint64_t hits = 0;
    uint64_t fires = 0;

    explicit Point(const FaultSchedule& s) : schedule(s), rng(s.seed) {}
  };

  mutable Mutex mu_;
  std::unordered_map<std::string, Point> points_ CACHE_EXT_GUARDED_BY(mu_);
  // Armed points across every injector, so the disarmed path is one load of
  // a constant-initialized global, with no call.
  static inline std::atomic<size_t> armed_{0};
  std::atomic<uint64_t> total_fires_{0};
};

// Site-side helper: one atomic load when nothing is armed.
inline bool InjectFault(std::string_view point, uint64_t* magnitude = nullptr) {
  return FaultInjector::AnyArmed() &&
         FaultInjector::Global().ShouldFail(point, magnitude);
}

// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  ScopedFault(std::string_view point, const FaultSchedule& schedule)
      : point_(point) {
    FaultInjector::Global().Arm(point_, schedule);
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace cache_ext::fault

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
