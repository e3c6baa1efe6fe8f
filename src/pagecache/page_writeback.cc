// The flusher tick, writer throttling and fsync; the analogue of
// mm/page-writeback.c (the flusher's control blocks live in src/writeback).

#include "src/pagecache/page_cache.h"

#include <algorithm>
#include <thread>

#include "src/pagecache/current_task.h"

namespace cache_ext {

void PageCache::FlushTick(CgroupState& st, DispatchBatch* batch,
                          uint64_t now_hint_ns) {
  writeback::CgroupFlushControl& fc = *st.flush;
  const writeback::DirtyLimits dl = writeback::ForCgroup(*st.cg);
  if (!dl.Valid()) {
    return;
  }
  switch (fc.EnterTick(dl)) {
    case writeback::FlushTickOutcome::kStalled:
    case writeback::FlushTickOutcome::kIdle:
      return;
    case writeback::FlushTickOutcome::kRun:
      break;
  }
  Lane& wlane = fc.lane();
  // The flusher cannot have acted before the dirtying that woke it: pin its
  // clock forward to the waker's.
  wlane.AdvanceTo(now_hint_ns);
  // Writeback hooks run as the flusher task, not as whichever writer
  // happened to trip the wakeup.
  ScopedCurrentTask current_task(wlane.task());
  if (batch != nullptr) {
    DrainLocked(wlane, *batch, st);
  }
  const uint64_t start_ns = wlane.now_ns();
  const bool use_ext = ExtActive(st);
  // Dirty pages one tick may harvest before yielding (the analogue of
  // MAX_WRITEBACK_PAGES bounding one wb_writeback chunk).
  constexpr uint64_t kMaxPagesPerTick = 1024;
  uint64_t budget = kMaxPagesPerTick;

  // Harvest: walk each dirty file under its stripe, clear dirty bits, mark
  // + pin the folios for the in-flight window (kFolioWriteback; the pin
  // keeps eviction off them), and collect sort-keyed items. The policy's
  // should_writeback hook may veto a folio (it stays dirty — deferred);
  // writeback_order assigns the flush key (SSTable key order etc.).
  std::vector<writeback::FlushItem> items;
  const std::vector<AddressSpace*> files = fc.TakeDirtyFiles();
  for (AddressSpace* as : files) {
    if (budget == 0) {
      fc.RequeueDirtyFile(as);
      continue;
    }
    bool leftover = false;
    {
      MutexLock s(StripeFor(as).mu);
      as->pages().ForEach([&](uint64_t idx, XEntry entry) {
        Folio* folio = entry.AsPointer<Folio>();
        if (folio == nullptr || folio->index != idx ||
            folio->memcg != st.cg.get() ||
            !folio->TestFlag(kFolioDirty)) {
          return;  // files are shared: flush only this cgroup's folios
        }
        const uint64_t nr = folio->nr_pages();
        if (budget < nr) {
          leftover = true;  // tick budget spent: finish on a later tick
          return;
        }
        int64_t key = -1;
        if (use_ext) {
          WritebackCtx ctx;
          ctx.mapping = as;
          ctx.index = folio->index;
          ctx.nr_pages = static_cast<uint32_t>(nr);
          ctx.nr_dirty = fc.nr_dirty();
          ctx.memcg = st.cg.get();
          ctx.for_sync = false;
          wlane.Charge(options_.costs.hook_dispatch_ns);
          if (!st.ext->ShouldWriteback(ctx)) {
            fc.NoteDeferred(nr);
            leftover = true;  // stays dirty: keep the file on the list
            return;
          }
          wlane.Charge(options_.costs.hook_dispatch_ns);
          key = st.ext->WritebackOrder(ctx);
        }
        if (!folio->TestClearFlag(kFolioDirty)) {
          return;  // raced clean (a concurrent fsync got here first)
        }
        as->wb_seq_started.fetch_add(1, std::memory_order_relaxed);
        folio->SetFlag(kFolioWriteback);
        folio->Pin();
        fc.NoteCleaned(as, nr);
        budget -= nr;
        items.push_back(writeback::FlushItem{
            as, folio->index, static_cast<uint32_t>(nr), key, folio});
      });
    }
    if (leftover || as->nr_dirty.load(std::memory_order_relaxed) > 0) {
      fc.RequeueDirtyFile(as);
    }
  }

  // Submit: sort into policy-key/file-offset order and merge contiguous
  // same-file runs so one device write covers a whole extent (the block
  // layer's request merging). All CPU time lands on the flusher lane.
  const std::vector<writeback::FlushExtent> extents =
      writeback::SortAndCoalesce(items);
  size_t submitted = 0;
  size_t reverted_from = items.size();
  for (const writeback::FlushExtent& extent : extents) {
    if (submitted > 0 && fc.PartialFlushInjected()) {
      reverted_from = extent.first_item;  // chaos: the tick dies here
      break;
    }
    const uint64_t completion =
        ssd_->SubmitWrite(wlane.now_ns(), extent.nr_pages * kPageSize);
    wlane.Charge(extent.nr_pages * options_.costs.writeback_page_ns);
    extent.mapping->NoteWritebackCompletion(completion);
    st.stats.writeback_pages.fetch_add(extent.nr_pages,
                                       std::memory_order_relaxed);
    for (size_t k = extent.first_item; k < extent.end_item; ++k) {
      items[k].folio->ClearFlag(kFolioWriteback);
      items[k].mapping->wb_seq_done.fetch_add(1, std::memory_order_release);
      items[k].folio->Unpin();
    }
    ++submitted;
  }
  for (size_t k = reverted_from; k < items.size(); ++k) {
    // Un-submitted items revert to dirty. No byte is lost: writes publish
    // their bytes to the device before they dirty a folio, so only the
    // device time was pending. NoteDirtied also requeues the file, so the
    // next tick retries the lost work.
    items[k].folio->SetFlag(kFolioDirty);
    items[k].folio->ClearFlag(kFolioWriteback);
    fc.NoteDirtied(items[k].mapping, items[k].nr_pages);
    items[k].mapping->wb_seq_done.fetch_add(1, std::memory_order_release);
    items[k].folio->Unpin();
  }
  if (submitted > 0) {
    fc.NoteFlush(submitted);
  }
  fc.NoteWritebackNs(wlane.now_ns() - start_ns);
  if (dl.TargetReached(fc.nr_dirty())) {
    fc.NoteTargetReached();
  }
}

void PageCache::BalanceDirty(Lane& lane, CgroupState& st) {
  if (!options_.writeback.background) {
    return;
  }
  const writeback::DirtyLimits dl = writeback::ForCgroup(*st.cg);
  // Lock-free fast path for the common case (under the background
  // threshold): the hot write path never takes the cgroup lock for this.
  if (!dl.Valid() || !dl.NeedsWake(st.flush->nr_dirty())) {
    return;
  }
  MutexLock lock(st.mu);
  BalanceDirtyLocked(lane, st, nullptr);
}

void PageCache::BalanceDirtyLocked(Lane& lane, CgroupState& st,
                                   DispatchBatch* batch) {
  if (!options_.writeback.background) {
    return;
  }
  writeback::CgroupFlushControl& fc = *st.flush;
  const writeback::DirtyLimits dl = writeback::ForCgroup(*st.cg);
  if (!dl.Valid()) {
    return;
  }
  if (fc.ShouldWake(dl)) {
    FlushTick(st, batch, lane.now_ns());
  }
  if (!dl.NeedsThrottle(fc.nr_dirty())) {
    return;
  }
  // balance_dirty_pages: the writer outran the device past the dirty ratio.
  // Stall it in bounded pauses until the flusher drains back under the
  // ratio (or the round cap hits — writer latency stays bounded even when
  // the device cannot keep up). The stall is the PSI-style
  // `ext_dirty_throttle_ns` half of the writeback accounting. Each round
  // stalls the writer this long before re-checking the gauge (kernel: ~one
  // pause() of HZ/5 scaled), and a single write is stalled at most
  // kMaxThrottleRounds times before it proceeds anyway.
  constexpr uint64_t kThrottlePauseNs = 200 * 1000;
  constexpr uint32_t kMaxThrottleRounds = 16;
  const uint64_t start_ns = lane.now_ns();
  uint32_t rounds = 0;
  while (dl.NeedsThrottle(fc.nr_dirty()) && rounds < kMaxThrottleRounds) {
    FlushTick(st, batch, lane.now_ns());
    lane.Charge(kThrottlePauseNs);
    ++rounds;
  }
  fc.NoteThrottle(lane.now_ns() - start_ns);
}

Status PageCache::SyncFile(Lane& lane, AddressSpace* as) {
  if (as == nullptr) {
    return InvalidArgument("null mapping");
  }
  // Phase 1 — collect under the stripe, charge nothing: clear dirty bits,
  // mark + pin the folios for the in-flight window, and snapshot the
  // mapping's writeback sequence. CPU charges and device submits happen
  // outside the lock so concurrent readers of this stripe never wait behind
  // an fsync's device work.
  //
  // Durability vs a concurrent fsync: every clear of kFolioDirty (here and
  // in the flusher) bumps wb_seq_started under the stripe first and
  // wb_seq_done only after the device write is submitted. A second fsync
  // that finds the bits already clear still snapshots `started` covering
  // those in-flight writes, drains to it below, and advances to the merged
  // completion — it cannot return before the data it depends on is durable.
  std::vector<writeback::FlushItem> items;
  std::vector<CgroupState*> sync_owners;
  uint64_t started = 0;
  {
    MutexLock s(StripeFor(as).mu);
    as->pages().ForEach([&](uint64_t, XEntry entry) {
      Folio* folio = entry.AsPointer<Folio>();
      if (folio == nullptr || !folio->TestClearFlag(kFolioDirty)) {
        return;
      }
      as->wb_seq_started.fetch_add(1, std::memory_order_relaxed);
      folio->SetFlag(kFolioWriteback);
      folio->Pin();
      const uint64_t nr = folio->nr_pages();  // whole span flushes as a unit
      CgroupState* owner = StateFor(folio->memcg);
      if (owner != nullptr) {
        owner->flush->NoteCleaned(as, nr);
        if (std::find(sync_owners.begin(), sync_owners.end(), owner) ==
            sync_owners.end()) {
          sync_owners.push_back(owner);
        }
      }
      items.push_back(writeback::FlushItem{
          as, folio->index, static_cast<uint32_t>(nr), -1, folio});
    });
    started = as->wb_seq_started.load(std::memory_order_relaxed);
  }
  for (CgroupState* owner : sync_owners) {
    owner->flush->NoteSyncEntry();
  }

  // Phase 2 — submit outside the stripe in file-offset order, merging
  // contiguous runs into extents. fsync is synchronous by definition, so
  // the CPU cost stays on the calling lane (unlike background flushing).
  for (const writeback::FlushExtent& extent :
       writeback::SortAndCoalesce(items)) {
    const uint64_t completion =
        ssd_->SubmitWrite(lane.now_ns(), extent.nr_pages * kPageSize);
    lane.Charge(extent.nr_pages * options_.costs.writeback_page_ns);
    as->NoteWritebackCompletion(completion);
    for (size_t k = extent.first_item; k < extent.end_item; ++k) {
      if (CgroupState* owner = StateFor(items[k].folio->memcg);
          owner != nullptr) {
        owner->stats.writeback_pages.fetch_add(items[k].nr_pages,
                                               std::memory_order_relaxed);
      }
      items[k].folio->ClearFlag(kFolioWriteback);
      as->wb_seq_done.fetch_add(1, std::memory_order_release);
      items[k].folio->Unpin();
    }
  }

  // Phase 3 — drain: wait for every writeback this fsync depends on (its
  // own plus any in flight on other lanes at snapshot time), then wait out
  // the device. A single lane never spins here (its flush ticks run
  // inline); with real-thread lanes, another lane's flush tick or fsync
  // may still be submitting what this one snapshotted, so wait for it.
  while (as->wb_seq_done.load(std::memory_order_acquire) < started) {
    std::this_thread::yield();
  }
  lane.AdvanceTo(as->wb_last_completion_ns.load(std::memory_order_relaxed));
  return OkStatus();
}

}  // namespace cache_ext
