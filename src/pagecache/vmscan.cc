// Reclaim: folio removal (with the shadow entry, as __remove_mapping
// stores it), eviction batches, and direct and background reclaim; the
// analogue of mm/vmscan.c.

#include "src/pagecache/page_cache.h"

#include <algorithm>

#include "src/pagecache/current_task.h"
#include "src/pagecache/workingset.h"
#include "src/util/ebr.h"
#include "src/util/logging.h"

namespace cache_ext {

bool PageCache::RemoveFolio(Lane& lane, CgroupState& st, AddressSpace* as,
                            uint64_t index, Folio* expected, RemovalKind kind,
                            bool skip_writeback) {
  MemCgroup* cg = st.cg.get();
  Stripe& stripe = StripeFor(as);
  Folio* folio = nullptr;
  {
    MutexLock s(stripe.mu);
    folio = as->FindFolio(index);
    // Authoritative re-checks: the index must still map the folio we were
    // asked about, and it must belong to this cgroup (we hold its lock, so
    // it cannot be concurrently freed).
    if (folio == nullptr || (expected != nullptr && folio != expected) ||
        folio->memcg != cg) {
      return false;
    }
    // Commit point: freeze the pin count. Fails if any lane holds a pin
    // (hit dispatch or device I/O in flight) — then the folio survives,
    // like a pinned folio surviving the kernel's invalidate. On success no
    // lockless TryPin can succeed anymore, and freeze + unmap happen
    // atomically under the stripe, so locked paths never observe a frozen
    // folio that is still mapped.
    if (!folio->TryFreeze()) {
      return false;
    }

    const uint64_t base = folio->index;
    const uint64_t nr = folio->nr_pages();
    if (skip_writeback) {
      if (folio->TestClearFlag(kFolioDirty)) {
        st.flush->NoteCleaned(as, nr);
      }
    } else if (folio->TestClearFlag(kFolioDirty)) {
      // Writeback of a dirty victim: the device write occupies a channel
      // but the evicting lane does not wait for it (async flush). The whole
      // span flushes as one device write (a multi-order folio is dirty as a
      // unit). With background writeback on, the CPU cost of issuing the
      // write is handed to the cgroup's flusher lane — reclaim no longer
      // pays writeback_page_ns on the reclaiming (or allocating) lane;
      // inline mode preserves the historical on-lane charge. Either way the
      // completion is merged into the mapping so a later fsync waits for it.
      st.flush->NoteCleaned(as, nr);
      as->wb_seq_started.fetch_add(1, std::memory_order_relaxed);
      uint64_t completion = 0;
      if (options_.writeback.background) {
        Lane& wlane = st.flush->lane();
        wlane.AdvanceTo(lane.now_ns());
        completion = ssd_->SubmitWrite(wlane.now_ns(), nr * kPageSize);
        wlane.Charge(nr * options_.costs.writeback_page_ns);
        st.flush->NoteWritebackNs(nr * options_.costs.writeback_page_ns);
      } else {
        completion = ssd_->SubmitWrite(lane.now_ns(), nr * kPageSize);
        lane.Charge(nr * options_.costs.writeback_page_ns);
      }
      as->NoteWritebackCompletion(completion);
      as->wb_seq_done.fetch_add(1, std::memory_order_release);
      st.stats.writeback_pages.fetch_add(nr, std::memory_order_relaxed);
    }

    XEntry shadow = XEntry::Empty();
    if (kind == RemovalKind::kEvict) {
      const uint32_t tier = st.base->EvictionTier(folio);
      shadow = WorkingsetEviction(cg, tier);
      cg->stat_evictions.fetch_add(1, std::memory_order_relaxed);
    } else {
      st.stats.invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    if (nr == 1) {
      as->pages().Store(base, shadow);
    } else {
      // Clear the whole span first (siblings before canonical), then leave
      // an order-0 shadow at every index so a refault anywhere in the old
      // span sees the eviction record.
      as->pages().EraseOrder(base, static_cast<int>(folio->order));
      if (!shadow.IsEmpty()) {
        for (uint64_t i = base; i < base + nr; ++i) {
          as->pages().Store(i, shadow);
        }
      }
    }
    as->DecResident(nr);
    const uint64_t prev =
        total_resident_.fetch_sub(nr, std::memory_order_relaxed);
    DCHECK(prev >= nr);
    (void)prev;
    cg->UnchargePages(nr);
  }

  // The folio is unmapped and frozen: no lane can take a new reference
  // (policy lists and the registry are behind st.mu, which we hold; the
  // lockless path bounces off the frozen pin count). A guarded reader may
  // still be *inspecting* it, so the free is deferred to EBR — kfree_rcu,
  // not kfree.
  DispatchRemoved(lane, st, folio);
  ebr::Retire(folio);
  return true;
}

bool PageCache::CandidateValid(CgroupState& st, Folio* folio, bool from_ext,
                               bool* violation) {
  *violation = false;
  if (folio == nullptr) {
    *violation = from_ext;
    return false;
  }
  if (from_ext) {
    // The valid-folio registry check (§4.4) happens inside the adapter via
    // ValidateCandidate *before* the pointer may be dereferenced. Only a
    // failure here is a safety violation (bad/stale pointer); a pinned or
    // concurrently-removed folio is a normal race, not misbehaviour.
    if (!st.ext->ValidateCandidate(folio)) {
      *violation = true;
      return false;
    }
  }
  // Residency and pin state are re-checked under the stripe in RemoveFolio;
  // here we only reject candidates that obviously belong elsewhere.
  return folio->mapping != nullptr && folio->memcg == st.cg.get();
}

uint64_t PageCache::RunEvictionBatch(Lane& lane, CgroupState& st,
                                     uint64_t requested,
                                     ReclaimSource source) {
  MemCgroup* cg = st.cg.get();
  lane.Charge(options_.costs.reclaim_batch_ns);
  EvictionCtx ctx;
  ctx.nr_candidates_requested = requested;
  ctx.source = source;

  const bool use_ext = ExtActive(st);
  if (use_ext) {
    st.ext->EvictFolios(&ctx, cg);
  } else {
    st.base->EvictFolios(&ctx, cg);
  }

  uint64_t evicted = 0;
  for (uint64_t i = 0; i < ctx.nr_candidates_proposed; ++i) {
    Folio* folio = ctx.candidates[i];
    bool violation = false;
    if (!CandidateValid(st, folio, use_ext, &violation)) {
      if (violation) {
        st.stats.ext_violations.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (RemoveFolio(lane, st, folio->mapping, folio->index, folio,
                    RemovalKind::kEvict)) {
      ++evicted;
      lane.Charge(options_.costs.reclaim_per_folio_ns);
    }
  }
  const uint64_t ext_evicted = use_ext ? evicted : 0;

  // Eviction fallback (§4.4): if the ext policy under-proposed, the kernel
  // falls back to the default policy for the remainder.
  uint64_t fallback_evicted = 0;
  if (use_ext && evicted < requested && cg->OverLimit()) {
    EvictionCtx fallback_ctx;
    fallback_ctx.nr_candidates_requested = requested - evicted;
    fallback_ctx.source = source;
    st.base->EvictFolios(&fallback_ctx, cg);
    for (uint64_t i = 0; i < fallback_ctx.nr_candidates_proposed; ++i) {
      Folio* folio = fallback_ctx.candidates[i];
      bool violation = false;
      if (!CandidateValid(st, folio, /*from_ext=*/false, &violation)) {
        continue;
      }
      if (RemoveFolio(lane, st, folio->mapping, folio->index, folio,
                      RemovalKind::kEvict)) {
        ++evicted;
        ++fallback_evicted;
        st.stats.fallback_evictions.fetch_add(1, std::memory_order_relaxed);
        lane.Charge(options_.costs.reclaim_per_folio_ns);
      }
    }
  }

  // Watchdog (§4.4): forcibly unload a persistently misbehaving policy.
  if (use_ext && st.stats.ext_violations.load(std::memory_order_relaxed) >
                     options_.watchdog_violation_limit) {
    LOG_WARNING << "cache_ext watchdog: detaching policy '"
                << st.ext->name() << "' from cgroup '" << cg->name()
                << "' after "
                << st.stats.ext_violations.load(std::memory_order_relaxed)
                << " invalid candidates";
    st.watchdog_detached.store(true, std::memory_order_relaxed);
    st.ext_active_hint.store(false, std::memory_order_release);
  }

  // Circuit-breaker feed (opt-in, options_.reclaim.ext_failure_limit): a
  // streak of rounds where the ext policy produced nothing usable while the
  // base fallback evicted fine is the unambiguous "broken policy, working
  // reclaim" signal. Latching watchdog_detached here hands the policy to
  // the PolicyManager's revert -> quarantine machinery — reclaim keeps
  // making progress through the base policy instead of silently looping on
  // a dead ext hook.
  if (use_ext &&
      st.reclaim->NoteExtRound(ext_evicted > 0, fallback_evicted > 0,
                               options_.reclaim.ext_failure_limit)) {
    LOG_WARNING << "reclaim watchdog: detaching policy '" << st.ext->name()
                << "' from cgroup '" << cg->name() << "' after "
                << options_.reclaim.ext_failure_limit
                << " consecutive reclaim rounds rescued by the base policy";
    st.watchdog_detached.store(true, std::memory_order_relaxed);
    st.ext_active_hint.store(false, std::memory_order_release);
  }

  return evicted;
}

void PageCache::DirectReclaim(Lane& lane, CgroupState& st,
                              DispatchBatch& batch) {
  // Reclaim gives up and OOM-kills the cgroup after this many consecutive
  // zero-progress rounds (kernel: MAX_RECLAIM_RETRIES-style bound).
  constexpr int kMaxReclaimRetries = 8;
  MemCgroup* cg = st.cg.get();
  // The policy must see every buffered notification for this cgroup before
  // proposing victims (batching bounds staleness at the batch size).
  DrainLocked(lane, batch, st);
  const uint64_t start_ns = lane.now_ns();
  uint64_t zero_progress_ns = 0;
  uint64_t total_evicted = 0;
  const uint64_t slack = std::min<uint64_t>(cg->limit_pages() / 8,
                                            kMaxEvictionBatch - 1);
  int zero_progress_rounds = 0;
  while (cg->OverLimit()) {
    const uint64_t round_start_ns = lane.now_ns();
    const uint64_t requested =
        std::min<uint64_t>(kMaxEvictionBatch, cg->ExcessPages() + slack);
    const uint64_t evicted =
        RunEvictionBatch(lane, st, requested, ReclaimSource::kDirect);
    total_evicted += evicted;
    if (evicted == 0) {
      zero_progress_ns += lane.now_ns() - round_start_ns;
      if (++zero_progress_rounds >= kMaxReclaimRetries) {
        st.oom_killed.store(true, std::memory_order_relaxed);
        cg->stat_oom_events.fetch_add(1, std::memory_order_relaxed);
        LOG_WARNING << "memcg OOM: cgroup '" << cg->name()
                    << "' could not reclaim below its limit (policy "
                    << (ExtActive(st) ? st.ext->name() : st.base->name())
                    << ")";
        break;
      }
    } else {
      zero_progress_rounds = 0;
    }
  }
  st.reclaim->NoteDirect(lane.now_ns() - start_ns, zero_progress_ns,
                         total_evicted);
}

void PageCache::BackgroundTick(Lane& lane, CgroupState& st,
                               DispatchBatch& batch) {
  // Batches one tick may run before yielding the cgroup lock.
  constexpr uint32_t kMaxBatchesPerTick = 64;
  MemCgroup* cg = st.cg.get();
  reclaim::CgroupReclaimControl& rc = *st.reclaim;
  const reclaim::Watermarks wm = reclaim::ForCgroup(*cg);
  if (!wm.Valid() || st.oom_killed.load(std::memory_order_relaxed)) {
    return;
  }
  switch (rc.EnterTick()) {
    case reclaim::TickOutcome::kDead:
    case reclaim::TickOutcome::kStalled:
      return;  // no progress, no heartbeat — the watchdog's problem now
    case reclaim::TickOutcome::kRun:
      break;
  }
  Lane& rlane = rc.lane();
  // The daemon cannot have acted before the pressure that woke it: pin its
  // clock forward to the waker's.
  rlane.AdvanceTo(lane.now_ns());
  // Eviction hooks run as the reclaimer task (the kswapd analogue), not as
  // whichever reader happened to trip the wakeup.
  ScopedCurrentTask current_task(rc.task());
  DrainLocked(rlane, batch, st);
  const uint64_t start_ns = rlane.now_ns();
  uint32_t batches = 0;
  while (!wm.TargetReached(cg->charged_pages()) &&
         batches < kMaxBatchesPerTick) {
    if (rc.InjectedUnderReclaim()) {
      break;  // chaos: give up early, occupancy drifts toward the limit
    }
    const uint64_t charged = cg->charged_pages();
    const uint64_t above_target = charged > wm.target_charged()
                                      ? charged - wm.target_charged()
                                      : 1;
    const uint64_t requested =
        std::min<uint64_t>(kMaxEvictionBatch, above_target);
    const uint64_t evicted =
        RunEvictionBatch(rlane, st, requested, ReclaimSource::kBackground);
    rc.NoteBatch(evicted);
    ++batches;
    if (evicted == 0) {
      break;  // everything pinned / nothing proposed: retry on a later tick
    }
  }
  rc.NoteBackgroundNs(rlane.now_ns() - start_ns);
  if (wm.TargetReached(cg->charged_pages())) {
    rc.NoteTargetReached();
  }
}

void PageCache::ReclaimIfNeeded(Lane& lane, CgroupState& st,
                                DispatchBatch& batch) {
  MemCgroup* cg = st.cg.get();
  if (st.oom_killed.load(std::memory_order_relaxed)) {
    return;
  }
  if (!options_.reclaim.background) {
    // Inline-only (the historical behaviour and the
    // `reclaim.background=false` ablation): the allocator pays for
    // eviction itself, but only once actually over the limit.
    if (cg->OverLimit()) {
      DirectReclaim(lane, st, batch);
    }
    return;
  }
  reclaim::CgroupReclaimControl& rc = *st.reclaim;
  const reclaim::Watermarks wm = reclaim::ForCgroup(*cg);
  if (!wm.Valid()) {
    // A cgroup too small for two watermarks (limit < 2 pages) runs
    // inline-only; the hard limit is still enforced.
    if (cg->OverLimit()) {
      DirectReclaim(lane, st, batch);
    }
    return;
  }
  if (rc.ShouldWake(cg->charged_pages(), wm) && rc.KickAllowed()) {
    BackgroundTick(lane, st, batch);
  }
  if (!cg->OverLimit()) {
    // The common case with a healthy daemon: allocate from pre-reclaimed
    // headroom, zero reclaim work (and zero stall time) on this lane.
    return;
  }
  // Over the hard limit despite background reclaim: allocation outran the
  // daemon, or the daemon is stalled/dead. The control block's watchdog
  // compares heartbeats across these entries; when it still believes a
  // kick can help (healthy lane, or a backed-off probe of a stalled one),
  // try that once before paying inline.
  const uint64_t overshoot = cg->charged_pages() - cg->limit_pages();
  if (rc.NoteEmergencyEntry(overshoot)) {
    BackgroundTick(lane, st, batch);
    if (!cg->OverLimit()) {
      return;
    }
  }
  // Bounded emergency: reclaim back under the hard limit only — the high
  // watermark stays the daemon's job, so a wedged daemon costs allocators
  // the minimum, not the full balance_pgdat sweep.
  DirectReclaim(lane, st, batch);
}

}  // namespace cache_ext
