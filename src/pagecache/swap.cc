// Batched folio_added/folio_accessed dispatch: the analogue of mm/swap.c's
// per-CPU folio batches and lru_add_drain.

#include "src/pagecache/page_cache.h"

#include "src/util/logging.h"

namespace cache_ext {

// folio_added/folio_accessed notifications are buffered per operation and
// dispatched to the owning cgroup's policies in batches of up to this many
// events (drained at reclaim boundaries and operation end), charging one
// amortized hook-dispatch cost per batch — the hot-path analogue of the
// batch-scoring mode in eviction_list (§4.2.3).
constexpr uint32_t kHookBatchSize = 16;
static_assert(kHookBatchSize <= kMaxEvictionBatch);

void PageCache::Append(Lane& lane, DispatchBatch& batch, CgroupState* owner,
                       Folio* folio, HookEvent event, CgroupState* locked) {
  CHECK(batch.size < batch.entries.size());
  // The ring owns the caller's pin: the folio cannot be freed before
  // dispatch.
  // Per-event policy cost is charged at append time (the event happened
  // now in virtual time); only the dispatch trampoline is amortized.
  lane.Charge(owner->base_event_cost_ns);
  if (owner->ext_active_hint.load(std::memory_order_relaxed)) {
    lane.Charge(owner->ext_event_cost_ns.load(std::memory_order_relaxed));
  }
  if (PageCacheTracer* tracer = tracer_.load(std::memory_order_relaxed)) {
    if (event == HookEvent::kAdded) {
      tracer->OnFolioAdded(lane, *folio);
    } else {
      tracer->OnFolioAccessed(lane, *folio);
    }
  }
  batch.entries[batch.size++] = PendingHook{folio, owner, event};
  if (batch.size >= kHookBatchSize) {
    if (locked != nullptr) {
      DrainLocked(lane, batch, *locked);
    } else {
      Drain(lane, batch);
    }
  }
}

void PageCache::DispatchLocked(Lane& lane, const PendingHook& entry,
                               CgroupState& st) {
  (void)lane;
  if (entry.event == HookEvent::kAdded) {
    st.base->FolioAdded(entry.folio);
    if (ExtActive(st)) {
      st.ext->FolioAdded(entry.folio);
    }
  } else {
    st.base->FolioAccessed(entry.folio);
    if (ExtActive(st)) {
      st.ext->FolioAccessed(entry.folio);
    }
  }
  entry.folio->Unpin();
}

void PageCache::Drain(Lane& lane, DispatchBatch& batch) {
  uint32_t i = 0;
  while (i < batch.size) {
    CgroupState* owner = batch.entries[i].owner;
    MutexLock lock(owner->mu);
    // One amortized dispatch cost per locked run of events (the paper's
    // batch-dispatch argument, §4.2.3).
    lane.Charge(options_.costs.hook_dispatch_ns);
    while (i < batch.size && batch.entries[i].owner == owner) {
      DispatchLocked(lane, batch.entries[i], *owner);
      ++i;
    }
  }
  batch.size = 0;
}

void PageCache::DrainLocked(Lane& lane, DispatchBatch& batch, CgroupState& st) {
  uint32_t kept = 0;
  bool charged = false;
  for (uint32_t i = 0; i < batch.size; ++i) {
    PendingHook& entry = batch.entries[i];
    if (entry.owner == &st) {
      if (!charged) {
        lane.Charge(options_.costs.hook_dispatch_ns);
        charged = true;
      }
      DispatchLocked(lane, entry, st);
    } else {
      batch.entries[kept++] = entry;
    }
  }
  batch.size = kept;
}

void PageCache::DispatchRemoved(Lane& lane, CgroupState& st, Folio* folio) {
  // Ext first so it can clean map state while the folio is still registered.
  if (ExtActive(st)) {
    st.ext->FolioRemoved(folio);
    lane.Charge(st.ext->PerEventCostNs());
  }
  st.base->FolioRemoved(folio);
  lane.Charge(st.base->PerEventCostNs());
  if (PageCacheTracer* tracer = tracer_.load(std::memory_order_relaxed)) {
    tracer->OnFolioEvicted(lane, *folio);
  }
}

}  // namespace cache_ext
