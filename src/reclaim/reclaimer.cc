#include "src/reclaim/reclaimer.h"

#include <algorithm>
#include <chrono>

#include "src/fault/fault_injector.h"

namespace cache_ext::reclaim {

const char* LaneHealthName(LaneHealth health) {
  switch (health) {
    case LaneHealth::kIdle:
      return "idle";
    case LaneHealth::kRunning:
      return "running";
    case LaneHealth::kStalled:
      return "stalled";
    case LaneHealth::kDead:
      return "dead";
  }
  return "?";
}

bool CgroupReclaimControl::ShouldWake(uint64_t charged_pages,
                                      const Watermarks& wm) {
  if (wm.TargetReached(charged_pages)) {
    NoteTargetReached();
    return false;
  }
  if (active_.load(std::memory_order_relaxed)) {
    // Mid-run: keep going until the high watermark, even though headroom may
    // already be back above low — that gap is the hysteresis band.
    return true;
  }
  if (!wm.NeedsWake(charged_pages)) {
    return false;  // inside the band with the latch released: stay asleep
  }
  if (!active_.exchange(true, std::memory_order_relaxed)) {
    counters_.reclaim_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void CgroupReclaimControl::NoteTargetReached() {
  active_.store(false, std::memory_order_relaxed);
  uint8_t running = static_cast<uint8_t>(LaneHealth::kRunning);
  health_.compare_exchange_strong(running,
                                  static_cast<uint8_t>(LaneHealth::kIdle),
                                  std::memory_order_relaxed);
}

TickOutcome CgroupReclaimControl::EnterTick() {
  if (dead_.load(std::memory_order_relaxed)) {
    return TickOutcome::kDead;
  }
  // Chaos: kill the lane for good. The death is latched here, but the
  // health transition (and the watchdog trip) belongs to the allocator
  // side: a daemon does not report its own demise — NoteEmergencyEntry
  // diagnoses it on the first over-limit allocation after the death.
  if (fault::InjectFault(fault::points::kReclaimThreadDeath)) {
    dead_.store(true, std::memory_order_relaxed);
    return TickOutcome::kDead;
  }
  // Chaos: wedge the lane for `magnitude` ticks (a policy stuck in an
  // unbounded loop, a D-state daemon). The tick makes no progress and does
  // NOT advance the heartbeat, which is what lets the watchdog see it.
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kReclaimStall, &magnitude)) {
    stall_ticks_remaining_.fetch_add(
        magnitude == 0 ? kDefaultStallTicks : magnitude,
        std::memory_order_relaxed);
  }
  uint64_t remaining = stall_ticks_remaining_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (stall_ticks_remaining_.compare_exchange_weak(
            remaining, remaining - 1, std::memory_order_relaxed)) {
      counters_.reclaim_stalled_ticks.fetch_add(1,
                                                std::memory_order_relaxed);
      return TickOutcome::kStalled;
    }
  }
  return TickOutcome::kRun;
}

bool CgroupReclaimControl::InjectedUnderReclaim() {
  // Chaos: the daemon gives up early, leaving the cgroup to drift toward
  // (and over) its hard limit — overshoot must stay bounded by the
  // emergency path.
  return fault::InjectFault(fault::points::kReclaimOvershoot);
}

void CgroupReclaimControl::NoteBatch(uint64_t evicted) {
  // Heartbeat means liveness, not success: an alive lane that found every
  // folio pinned still beats, and the watchdog correctly does not trip —
  // detaching or probing it would not make folios evictable.
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  counters_.reclaim_background_batches.fetch_add(1, std::memory_order_relaxed);
  counters_.reclaim_background_evicted.fetch_add(evicted,
                                                std::memory_order_relaxed);
  if (!dead_.load(std::memory_order_relaxed)) {
    health_.store(static_cast<uint8_t>(LaneHealth::kRunning),
                  std::memory_order_relaxed);
  }
}

bool CgroupReclaimControl::NoteEmergencyEntry(uint64_t overshoot_pages) {
  counters_.reclaim_emergency_entries.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev =
      counters_.reclaim_max_overshoot_pages.load(std::memory_order_relaxed);
  while (overshoot_pages > prev &&
         !counters_.reclaim_max_overshoot_pages.compare_exchange_weak(
             prev, overshoot_pages, std::memory_order_relaxed)) {
  }

  const bool is_dead = dead_.load(std::memory_order_relaxed);
  if (!is_dead) {
    const uint64_t hb = heartbeat_.load(std::memory_order_relaxed);
    if (hb != heartbeat_seen_.load(std::memory_order_relaxed)) {
      // The lane moved since we last looked: healthy (or recovered).
      heartbeat_seen_.store(hb, std::memory_order_relaxed);
      heartbeat_misses_.store(0, std::memory_order_relaxed);
      uint8_t stalled = static_cast<uint8_t>(LaneHealth::kStalled);
      health_.compare_exchange_strong(
          stalled, static_cast<uint8_t>(LaneHealth::kRunning),
          std::memory_order_relaxed);
      return true;
    }
    if (health() != LaneHealth::kStalled) {
      const uint32_t misses =
          heartbeat_misses_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (misses < kWatchdogMisses) {
        return true;  // give the lane another chance before judging it
      }
      // Watchdog trip: heartbeat flat across kWatchdogMisses emergency
      // entries while the cgroup is over its hard limit.
      health_.store(static_cast<uint8_t>(LaneHealth::kStalled),
                    std::memory_order_relaxed);
      counters_.reclaim_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
      probe_backoff_.store(kProbeBackoffInitial, std::memory_order_relaxed);
      probe_countdown_.store(kProbeBackoffInitial, std::memory_order_relaxed);
      return false;
    }
  } else if (health() != LaneHealth::kDead) {
    // First emergency entry to observe the death: trip once, then back off.
    health_.store(static_cast<uint8_t>(LaneHealth::kDead),
                  std::memory_order_relaxed);
    counters_.reclaim_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
    probe_backoff_.store(kProbeBackoffInitial, std::memory_order_relaxed);
    probe_countdown_.store(kProbeBackoffInitial, std::memory_order_relaxed);
    return false;
  }

  // Stalled or dead: exponential-backoff probing so a wedged daemon does
  // not add a futile kick to every over-limit allocation.
  uint32_t countdown = probe_countdown_.load(std::memory_order_relaxed);
  while (countdown > 0) {
    if (probe_countdown_.compare_exchange_weak(countdown, countdown - 1,
                                               std::memory_order_relaxed)) {
      return false;  // still backing off
    }
  }
  const uint32_t backoff = std::min(
      probe_backoff_.load(std::memory_order_relaxed) * 2, kProbeBackoffCap);
  probe_backoff_.store(backoff, std::memory_order_relaxed);
  probe_countdown_.store(backoff, std::memory_order_relaxed);
  // Probe: a stall may have healed, so one kick is worth it; a dead lane
  // never comes back — skip even the probe.
  return !is_dead;
}

void CgroupReclaimControl::NoteDirect(uint64_t ns, uint64_t zero_progress_ns,
                                      uint64_t evicted) {
  counters_.reclaim_direct_entries.fetch_add(1, std::memory_order_relaxed);
  counters_.reclaim_direct_evicted.fetch_add(evicted,
                                            std::memory_order_relaxed);
  counters_.ext_direct_reclaim_ns.fetch_add(ns, std::memory_order_relaxed);
  // PSI mapping: `some` is time at least one task stalled on reclaim — in
  // this model, exactly the lane time the allocator spent inside direct
  // reclaim. `full` is the unproductive subset (rounds that evicted
  // nothing): everyone stalled AND nothing moved.
  counters_.psi_some_ns.fetch_add(ns, std::memory_order_relaxed);
  counters_.psi_full_ns.fetch_add(zero_progress_ns,
                                  std::memory_order_relaxed);
}

bool CgroupReclaimControl::NoteExtRound(bool ext_made_progress,
                                        bool fallback_made_progress,
                                        uint32_t limit) {
  if (ext_made_progress) {
    ext_failure_streak_.store(0, std::memory_order_relaxed);
    return false;
  }
  if (!fallback_made_progress) {
    // Nothing evictable at all (everything pinned, cache empty): not the
    // ext policy's fault — detaching it would change nothing. Streak holds.
    return false;
  }
  counters_.ext_reclaim_failures.fetch_add(1, std::memory_order_relaxed);
  const uint32_t streak =
      ext_failure_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  return limit > 0 && streak == limit;
}

ReclaimerPool::ReclaimerPool(const ReclaimOptions& options, TickFn tick)
    : options_(options), tick_(std::move(tick)) {
  const uint32_t nr = std::max<uint32_t>(options_.nr_threads, 1);
  shards_.reserve(nr);
  for (uint32_t i = 0; i < nr; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread(&ReclaimerPool::ThreadMain, this, shard.get());
  }
}

ReclaimerPool::~ReclaimerPool() { Stop(); }

void ReclaimerPool::Register(void* token) {
  Shard& shard =
      *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.tokens.push_back(token);
}

void ReclaimerPool::Kick(void* token) {
  // Wake every shard that owns the token (round-robin assignment means at
  // most one does; scanning is cheap at these shard counts).
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      bool owns = false;
      for (void* t : shard->tokens) {
        if (t == token) {
          owns = true;
          break;
        }
      }
      if (!owns) {
        continue;
      }
      shard->kicked = true;
    }
    shard->cv.notify_one();
    return;
  }
}

void ReclaimerPool::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->kicked = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
}

void ReclaimerPool::ThreadMain(Shard* shard) {
  const auto poll = std::chrono::microseconds(
      std::max<uint32_t>(options_.thread_poll_us, 1));
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<void*> tokens;
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv.wait_for(lock, poll, [&] {
        return shard->kicked || stopping_.load(std::memory_order_acquire);
      });
      shard->kicked = false;
      tokens = shard->tokens;  // copy: ticks run without the shard lock
    }
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    for (void* token : tokens) {
      tick_(token);
    }
  }
}

}  // namespace cache_ext::reclaim
