// fadvise() and the removals that bypass eviction: DONTNEED invalidation
// with its multi-order split, and file deletion; the analogue of
// mm/truncate.c and mm/fadvise.c.

#include "src/pagecache/page_cache.h"

#include <thread>

namespace cache_ext {

void PageCache::InvalidateForDontNeed(Lane& lane, CgroupState& st,
                                      AddressSpace* as, uint64_t index,
                                      uint64_t first, uint64_t last) {
  MemCgroup* cg = st.cg.get();
  // Capture the span before removal. Holding the owner's lock keeps the
  // folio alive and mapped (removal always happens under the owner's lock),
  // so the captured pointer stays valid to use as `expected`.
  Folio* folio = nullptr;
  uint64_t base = 0;
  uint64_t nr = 0;
  bool was_dirty = false;
  {
    MutexLock s(StripeFor(as).mu);
    folio = as->FindFolio(index);
    if (folio == nullptr || folio->memcg != cg) {
      return;
    }
    base = folio->index;
    nr = folio->nr_pages();
    was_dirty = folio->TestFlag(kFolioDirty);
  }
  const uint64_t span_last = base + nr - 1;
  const bool partial = nr > 1 && !(base >= first && span_last <= last);
  // A partial invalidate of a dirty multi-order folio skips the removal's
  // whole-span writeback: only the invalidated subrange is flushed (below,
  // inline — DONTNEED writes back what it drops), and the kept subpages are
  // re-inserted with kFolioDirty intact. Splitting must not launder the
  // kept pages clean, or an fsync after the split would miss them.
  if (!RemoveFolio(lane, st, as, base, /*expected=*/folio,
                   RemovalKind::kInvalidate,
                   /*skip_writeback=*/partial && was_dirty)) {
    return;  // pinned by another lane: the whole folio survives
  }
  // Partial invalidate of a multi-order folio: the kernel splits the large
  // folio and truncates only the pages in range (truncate_inode_partial_folio).
  // Here the removal already dropped the whole span, so the split is a
  // re-insert of the kept subpages as order-0 folios, each taking a fresh
  // reference to its device page (the device holds every page's bytes).
  if (nr == 1 || !partial) {
    return;  // fully covered: a plain invalidate, nothing kept
  }
  if (was_dirty) {
    // Flush the dropped subrange inline on the caller's lane (DONTNEED pays
    // for the writeback it forces, like the kernel's invalidate path).
    uint64_t dropped = 0;
    for (uint64_t i = base; i <= span_last; ++i) {
      if (i >= first && i <= last) {
        ++dropped;
      }
    }
    if (dropped > 0) {
      const uint64_t completion =
          ssd_->SubmitWrite(lane.now_ns(), dropped * kPageSize);
      lane.Charge(dropped * options_.costs.writeback_page_ns);
      as->NoteWritebackCompletion(completion);
      st.stats.writeback_pages.fetch_add(dropped, std::memory_order_relaxed);
    }
  }
  st.stats.ext_order_splits.fetch_add(1, std::memory_order_relaxed);
  std::vector<Folio*> kept;
  uint64_t kept_dirty = 0;
  {
    MutexLock s(StripeFor(as).mu);
    for (uint64_t i = base; i <= span_last; ++i) {
      if (i >= first && i <= last) {
        continue;  // the invalidated part
      }
      if (as->FindFolio(i) != nullptr) {
        continue;  // repopulated by a racing miss
      }
      Folio* nf = new Folio();
      nf->mapping = as;
      nf->index = i;
      nf->memcg = cg;
      RefDevicePages(as, *nf, i, i + 1);
      nf->SetFlag(kFolioUptodate);
      if (was_dirty) {
        nf->SetFlag(kFolioDirty);  // both split halves stay dirty
        ++kept_dirty;
      }
      if (as->noreuse_hint.load(std::memory_order_relaxed)) {
        nf->SetFlag(kFolioDropBehind);
      }
      as->pages().Store(i, XEntry::FromPointer(nf));
      as->IncResident();
      total_resident_.fetch_add(1, std::memory_order_relaxed);
      cg->ChargePages(1);
      kept.push_back(nf);
    }
  }
  if (kept_dirty > 0) {
    st.flush->NoteDirtied(as, kept_dirty);
  }
  for (Folio* nf : kept) {
    lane.Charge(st.base_event_cost_ns);
    st.base->FolioAdded(nf);
    if (ExtActive(st)) {
      lane.Charge(st.ext_event_cost_ns.load(std::memory_order_relaxed));
      st.ext->FolioAdded(nf);
    }
  }
}

Status PageCache::FadviseRange(Lane& lane, AddressSpace* as, MemCgroup* cg,
                               Fadvise advice, uint64_t offset, uint64_t len) {
  if (as == nullptr) {
    return InvalidArgument("null mapping");
  }
  const uint64_t first = offset / kPageSize;
  const uint64_t last = len == 0 ? UINT64_MAX
                                 : (offset + len - 1) / kPageSize;
  switch (advice) {
    // Readahead-mode hints are plain relaxed stores: the fields are racy
    // best-effort hints (file_ra_state semantics) and need no lock at all.
    case Fadvise::kNormal: {
      as->ra_sequential_hint.store(false, std::memory_order_relaxed);
      as->ra_random_hint.store(false, std::memory_order_relaxed);
      as->noreuse_hint.store(false, std::memory_order_relaxed);
      return OkStatus();
    }
    case Fadvise::kSequential: {
      as->ra_sequential_hint.store(true, std::memory_order_relaxed);
      as->ra_random_hint.store(false, std::memory_order_relaxed);
      return OkStatus();
    }
    case Fadvise::kRandom: {
      as->ra_random_hint.store(true, std::memory_order_relaxed);
      as->ra_sequential_hint.store(false, std::memory_order_relaxed);
      return OkStatus();
    }
    case Fadvise::kNoReuse: {
      // v6.6 semantics: accesses to these folios do not feed promotion. The
      // folios still enter and occupy the cache. The range walk still wants
      // the stripe: ForEachInRange is not safe against concurrent pruning.
      MutexLock s(StripeFor(as).mu);
      as->noreuse_hint.store(true, std::memory_order_relaxed);
      // A multi-order folio spanning `first` from below has its canonical
      // base outside the walk range; probe for it explicitly.
      if (Folio* head = as->FindFolio(first); head != nullptr) {
        head->SetFlag(kFolioDropBehind);
      }
      as->pages().ForEachInRange(first, last, [](uint64_t, XEntry entry) {
        if (Folio* folio = entry.AsPointer<Folio>(); folio != nullptr) {
          folio->SetFlag(kFolioDropBehind);
        }
      });
      return OkStatus();
    }
    case Fadvise::kDontNeed: {
      // Invalidate clean + dirty folios in range (after writeback). This is
      // a removal in circumvention of the eviction path: no shadow entries.
      // Victims are recorded as (index, owner) — not folio pointers — and
      // re-validated under the owner lock + stripe; pinned folios (in use
      // by another lane) survive, like the kernel's invalidate path.
      struct Victim {
        uint64_t index;
        CgroupState* owner;
      };
      std::vector<Victim> victims;
      {
        MutexLock s(StripeFor(as).mu);
        // A multi-order folio spanning `first` from below has its canonical
        // base outside the walk range; probe for it explicitly.
        if (Folio* head = as->FindFolio(first);
            head != nullptr && head->index < first) {
          victims.push_back(Victim{head->index, StateFor(head->memcg)});
        }
        as->pages().ForEachInRange(first, last, [&](uint64_t idx,
                                                    XEntry entry) {
          if (Folio* folio = entry.AsPointer<Folio>(); folio != nullptr) {
            victims.push_back(Victim{idx, StateFor(folio->memcg)});
          }
        });
      }
      for (const Victim& v : victims) {
        if (v.owner == nullptr) {
          continue;
        }
        MutexLock lock(v.owner->mu);
        InvalidateForDontNeed(lane, *v.owner, as, v.index, first, last);
      }
      return OkStatus();
    }
    case Fadvise::kWillNeed: {
      if (cg == nullptr) {
        return InvalidArgument("WILLNEED requires a cgroup");
      }
      CgroupState* st = StateFor(cg);
      if (st == nullptr) {
        return NotFound("unknown cgroup");
      }
      if (st->oom_killed.load(std::memory_order_relaxed)) {
        return ResourceExhausted("cgroup was OOM-killed");
      }
      // Prefetch stops the range at the end of the file.
      constexpr uint64_t kWillNeedCap = 1024;
      const uint64_t count = std::min(last - first, kWillNeedCap - 1) + 1;
      DispatchBatch batch;
      {
        MutexLock lock(st->mu);
        Prefetch(lane, as, *st, first, static_cast<uint32_t>(count), batch);
        DrainLocked(lane, batch, *st);
      }
      Drain(lane, batch);
      return OkStatus();
    }
  }
  return InvalidArgument("bad advice");
}

Status PageCache::DeleteFile(Lane& lane, AddressSpace* as) {
  if (as == nullptr) {
    return InvalidArgument("null mapping");
  }
  // Outermost lock held for the whole operation: no new opens of this name,
  // and consistent registry <-> cgroup lock ordering. The hot path never
  // takes registry_mu_, so lanes holding pins on this file's folios can
  // still drain and unpin, which the retry loop below waits for.
  MutexLock reg(registry_mu_);
  struct Victim {
    uint64_t index;
    CgroupState* owner;
  };
  for (;;) {
    std::vector<Victim> victims;
    {
      MutexLock s(StripeFor(as).mu);
      as->pages().ForEach([&](uint64_t idx, XEntry entry) {
        if (Folio* folio = entry.AsPointer<Folio>(); folio != nullptr) {
          victims.push_back(Victim{idx, StateFor(folio->memcg)});
        }
      });
    }
    if (victims.empty()) {
      break;
    }
    bool all_removed = true;
    for (const Victim& v : victims) {
      if (v.owner == nullptr) {
        continue;
      }
      MutexLock lock(v.owner->mu);
      // Deleted files are not written back and leave no shadows.
      if (!RemoveFolio(lane, *v.owner, as, v.index, /*expected=*/nullptr,
                       RemovalKind::kInvalidate, /*skip_writeback=*/true)) {
        all_removed = false;
      }
    }
    if (!all_removed) {
      std::this_thread::yield();  // a pinned folio: its lane will unpin soon
    }
  }
  {
    // Clear any remaining shadow entries.
    MutexLock s(StripeFor(as).mu);
    std::vector<uint64_t> shadows;
    as->pages().ForEach([&shadows](uint64_t index, XEntry entry) {
      if (entry.IsValue()) {
        shadows.push_back(index);
      }
    });
    for (uint64_t index : shadows) {
      as->pages().Erase(index);
    }
  }
  const std::string name = as->name();
  CACHE_EXT_RETURN_IF_ERROR(disk_->Delete(name));
  files_.erase(name);  // destroys `as`
  return OkStatus();
}

}  // namespace cache_ext
