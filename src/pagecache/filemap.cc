// The data path: the folio walk that Read, Write and readahead share, the
// insertion of missing folios, and the readahead window; the analogue of
// mm/filemap.c and mm/readahead.c.

#include "src/pagecache/page_cache.h"

#include <algorithm>

#include "src/fault/fault_injector.h"
#include "src/pagecache/current_task.h"
#include "src/pagecache/workingset.h"
#include "src/util/ebr.h"
#include "src/util/logging.h"

namespace cache_ext {

namespace {

// Copies a read's bytes out of device runs. Pages of one run that follow
// each other in the read are merged into one memcpy (a block across a page
// boundary), and nothing is copied before Flush, so a run of hits copies
// once at its end: a copy made after each lookup would make the next hit's
// pin and counter updates wait for its stores. Every run added must stay
// alive until Flush: the caller holds an ebr::Guard (a write may re-point a
// folio's page and retire its old run), the mapping stripe, or a reference.
class ReadCopier {
 public:
  ReadCopier(uint64_t offset, std::span<uint8_t> out)
      : offset_(offset), out_(out) {}

  // The part of page `page` that the read covers, from `run` (null reads
  // as zeroes).
  void Add(const DiskRun* run, uint64_t page) {
    const uint64_t page_start = page * kPageSize;
    const uint64_t lo = std::max(page_start, offset_);
    const uint64_t hi =
        std::min(page_start + kPageSize, offset_ + out_.size());
    if (lo >= hi) {
      return;
    }
    if (len_ > 0 && run == run_ && lo == offset_ + dst_ + len_) {
      len_ += hi - lo;  // the next page of the same run
      return;
    }
    Flush();
    run_ = run;
    page_ = page;
    in_page_ = lo - page_start;
    dst_ = lo - offset_;
    len_ = hi - lo;
  }
  void AddFolio(Folio& folio, uint64_t from, uint64_t to) {
    for (uint64_t page = from; page < to; ++page) {
      Add(folio.PageRef(page).load(std::memory_order_acquire), page);
    }
  }
  void Flush() {
    if (len_ > 0) {
      DiskRun::CopyOut(run_, page_, in_page_, out_.subspan(dst_, len_));
      len_ = 0;
    }
  }

 private:
  const uint64_t offset_;
  const std::span<uint8_t> out_;
  // The pending copy: len_ bytes from page_ + in_page_ of run_, to dst_.
  const DiskRun* run_ = nullptr;
  uint64_t page_ = 0;
  uint64_t in_page_ = 0;
  uint64_t dst_ = 0;
  uint64_t len_ = 0;
};

// A count of pages as a hook's 32-bit field, saturated.
uint32_t HookPages(uint64_t n) {
  return static_cast<uint32_t>(std::min<uint64_t>(n, UINT32_MAX));
}

}  // namespace

// --- Lookup and insertion --------------------------------------------------

Folio* PageCache::LocklessLookup(AddressSpace* as, uint64_t index,
                                 CgroupState& reader) {
  reader.stats.ext_lockless_lookups.fetch_add(1, std::memory_order_relaxed);
  // Under the caller's rcu_read_lock: everything reachable through the
  // xarray stays allocated until its guard drops, even if a racing remover
  // unmaps and retires it.
  constexpr int kMaxAttempts = 4;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Folio* folio = as->pages().Load(index).AsPointer<Folio>();
    if (folio == nullptr) {
      // Empty or a shadow entry: a miss as far as the fast path is
      // concerned; the locked slow path decides what the slot means.
      return nullptr;
    }
    if (!folio->TryPin()) {
      // Frozen: a remover committed to freeing this folio between our
      // slot load and the pin. Retry into the locked slow path, which
      // waits out the removal on the stripe.
      reader.stats.ext_lockless_retries.fetch_add(1,
                                                  std::memory_order_relaxed);
      return nullptr;
    }
    // Revalidate like folio_try_get + the re-check in filemap_get_entry:
    // the pin guarantees the folio is now immortal, but not that it is
    // still the folio mapped at (as, index). With freeze-before-unmap a
    // successful TryPin implies the folio was never removed, so these
    // checks are expected to pass; they mirror the kernel's xas_reload
    // defence and guard any future folio reuse. A multi-order folio is
    // valid for any index inside its span (the slot load above may have
    // resolved a sibling entry).
    if (folio->mapping == as && folio->Contains(index) &&
        as->pages().Load(index).AsPointer<Folio>() == folio) {
      return folio;
    }
    folio->Unpin();
    reader.stats.ext_lockless_retries.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

uint32_t PageCache::SelectOrder(Lane& lane, CgroupState& st, AddressSpace* as,
                                uint64_t index, uint32_t nr_wanted) {
  if (!ExtActive(st)) {
    return 0;
  }
  AdmitOrderCtx octx;
  octx.mapping = as;
  octx.index = index;
  octx.memcg = st.cg.get();
  octx.nr_requested = nr_wanted;
  octx.pid = lane.task().pid;
  octx.tid = lane.task().tid;
  lane.Charge(options_.costs.hook_dispatch_ns);
  uint32_t order = st.ext->AdmitOrder(octx);
  if (order == 0) {
    return 0;
  }
  const uint64_t nr = 1ull << order;
  // Automatic fallbacks (the analogue of __filemap_get_folio dropping to
  // smaller orders when a large allocation fails): a span must be
  // 2^order-aligned at its base, must not run past EOF, and is demoted
  // under memcg pressure — the cgroup already over its limit means
  // allocation has outrun reclaim, the moment the kernel stops handing out
  // large folios. (A span conflict with an already-resident folio is
  // checked under the stripe in InsertFolio.)
  const bool misaligned = (index & (nr - 1)) != 0;
  const bool past_eof = (index + nr) * kPageSize > disk_->SizeOf(as->file());
  const bool pressure =
      nr > st.cg->limit_pages() || st.cg->OverLimit();
  if (misaligned || past_eof || pressure) {
    st.stats.ext_order_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return order;
}

Folio* PageCache::InsertFolio(Lane& lane, AddressSpace* as, CgroupState& st,
                              uint64_t index, MissKind kind,
                              DispatchBatch& batch, bool* raced,
                              uint32_t nr_wanted) {
  MemCgroup* cg = st.cg.get();

  // Admission filter (§5.6): only consulted for folios not yet present, and
  // never for a watchdog-detached policy (it must not veto admissions).
  if (ExtActive(st)) {
    const AdmissionCtx actx{.mapping = as, .index = index, .memcg = cg,
                            .pid = lane.task().pid, .tid = lane.task().tid,
                            .is_write = kind == MissKind::kWrite};
    lane.Charge(options_.costs.hook_dispatch_ns);
    if (!st.ext->AdmitFolio(actx)) {
      return nullptr;
    }
  }

  uint32_t order = SelectOrder(lane, st, as, index, nr_wanted);

  lane.Charge(options_.costs.miss_setup_ns);

  Folio* folio = nullptr;
  RefaultDecision refault;
  {
    MutexLock s(StripeFor(as).mu);
    // Another lane (a different cgroup sharing the file) may have populated
    // the index since the walk found it missing; the xarray re-check under
    // the stripe is authoritative.
    if (as->FindFolio(index) != nullptr) {
      *raced = true;
      return nullptr;
    }

    // Span conflict: any resident folio elsewhere in [index, index + 2^order)
    // demotes the allocation to a single page — a multi-order entry cannot
    // overlay an occupied slot.
    if (order > 0) {
      for (uint64_t i = index + 1; i < index + (1ull << order); ++i) {
        if (as->FindFolio(i) != nullptr) {
          order = 0;
          st.stats.ext_order_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          break;
        }
      }
    }
    const uint64_t nr = 1ull << order;

    // Refault detection against a shadow entry left by a prior eviction,
    // keyed at the folio's base index (a multi-order store absorbs any
    // shadows in the rest of the span).
    const XEntry old_entry = as->pages().Load(index);
    if (old_entry.IsValue()) {
      refault = WorkingsetRefault(cg, old_entry, cg->limit_pages());
    }

    folio = new Folio();
    folio->mapping = as;
    folio->index = index;
    folio->order = static_cast<uint8_t>(order);
    folio->memcg = cg;
    folio->InitPageRefs();
    // The miss copies nothing: the folio shares the device's pages.
    RefDevicePages(as, *folio, index, index + nr);
    folio->SetFlag(kFolioUptodate);
    if (refault.activate) {
      folio->SetFlag(kFolioWorkingset);
    }
    if (as->noreuse_hint.load(std::memory_order_relaxed)) {
      folio->SetFlag(kFolioDropBehind);
    }
    // One pin returned to the caller, one for the ring's kAdded event.
    folio->pins.store(2, std::memory_order_relaxed);

    as->pages().StoreOrder(index, XEntry::FromPointer(folio),
                           static_cast<int>(order));
    as->IncResident(nr);
    total_resident_.fetch_add(nr, std::memory_order_relaxed);
    cg->ChargePages(nr);
    cg->stat_insertions.fetch_add(1, std::memory_order_relaxed);
    if (order > 0) {
      st.stats.ext_order_folios.fetch_add(1, std::memory_order_relaxed);
      st.stats.ext_order_pages.fetch_add(nr, std::memory_order_relaxed);
    }
  }

  if (refault.is_refault) {
    st.base->FolioRefaulted(folio, refault.tier);
    if (ExtActive(st)) {
      st.ext->FolioRefaulted(folio, refault.tier);
    }
  }
  Append(lane, batch, &st, folio, HookEvent::kAdded, &st);
  return folio;
}

// --- The folio walk ----------------------------------------------------------

template <typename OnHits, typename OnMiss>
Status PageCache::WalkFolios(AddressSpace* as, CgroupState& reader,
                             uint64_t first, uint64_t last, OnHits&& on_hits,
                             OnMiss&& on_miss) {
  uint64_t index = first;
  while (index <= last && !reader.oom_killed.load(std::memory_order_relaxed)) {
    size_t n = 0;
    {
      // Lock-free xarray walk + speculative TryPin under one ebr::Guard
      // (filemap_get_folio under rcu_read_lock): the stripe is never
      // required for a hit. on_hits runs inside the guard, so a copy out of
      // a page a racing write re-points is made before that page's run can
      // be freed.
      ebr::Guard guard;
      std::array<WalkHit, kWalkBatch> hits;
      Folio* folio = nullptr;
      while (n < hits.size() && index <= last &&
             (folio = LocklessLookup(as, index, reader)) != nullptr) {
        hits[n] = WalkHit{folio, index,
                          std::min(last + 1, folio->index + folio->nr_pages())};
        index = hits[n++].end;
      }
      if (n > 0) {
        on_hits(std::span<const WalkHit>(hits.data(), n));
      }
    }
    if (n < kWalkBatch && index <= last) {
      // Miss: gather the contiguous run of missing pages within the range.
      CACHE_EXT_ASSIGN_OR_RETURN(
          index, on_miss(index, MissingUntil(as, index + 1, last) - 1));
    }
  }
  return reader.oom_killed.load(std::memory_order_relaxed)
             ? ResourceExhausted("cgroup was OOM-killed")
             : OkStatus();
}

uint64_t PageCache::MissingUntil(AddressSpace* as, uint64_t from,
                                 uint64_t last) {
  MutexLock s(StripeFor(as).mu);
  while (from <= last && as->FindFolio(from) == nullptr) {
    ++from;
  }
  return from;
}

template <typename OnPage>
uint64_t PageCache::FillMissRun(Lane& lane, AddressSpace* as, CgroupState& st,
                                DispatchBatch& batch, MissKind kind,
                                uint64_t index, uint64_t run_end,
                                uint64_t wanted_end, OnPage&& on_page) {
  while (index <= wanted_end &&
         !st.oom_killed.load(std::memory_order_relaxed)) {
    // Reclaim in this loop may have evicted the page after the run: keep
    // filling while the wanted pages are missing, as a per-page write loop
    // would.
    if (index > run_end &&
        (run_end = MissingUntil(as, index, wanted_end) - 1) < index) {
      break;
    }
    bool raced = false;
    Folio* folio = InsertFolio(lane, as, st, index, kind, batch, &raced,
                               HookPages(wanted_end - index + 1));
    if (raced) {
      break;  // the walk looks the page up again, as a hit
    }
    // The inserted folio may span past `index` (multi-order).
    const uint64_t next = index + (folio == nullptr ? 1 : folio->nr_pages());
    on_page(index, folio);
    index = next;
  }
  return index;
}

template <typename Body>
Status PageCache::DataOp(Lane& lane, AddressSpace* as, MemCgroup* cg,
                         uint64_t offset, size_t len, Body&& body) {
  if (as == nullptr || cg == nullptr) {
    return InvalidArgument("null mapping or cgroup");
  }
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return NotFound("unknown cgroup");
  }
  if (st->oom_killed.load(std::memory_order_relaxed)) {
    return ResourceExhausted("cgroup was OOM-killed");
  }
  if (len == 0) {
    return OkStatus();
  }
  ScopedCurrentTask current(lane.task());
  lane.Charge(options_.costs.per_op_syscall_ns);
  DispatchBatch batch;
  const Status status =
      body(*st, batch, offset / kPageSize, (offset + len - 1) / kPageSize);
  Drain(lane, batch);
  return status;
}

uint32_t PageCache::ReadaheadWindow(Lane& lane, CgroupState& st,
                                    AddressSpace* as, uint64_t index,
                                    uint32_t nr_requested) {
  // Readahead state is read and advanced without any lock — racy
  // load/store like the kernel's file_ra_state; a lost update costs a
  // readahead decision, never correctness.
  uint32_t heuristic = 0;
  const uint64_t prev_index = as->ra_prev_index.load(std::memory_order_relaxed);
  if (!as->ra_random_hint.load(std::memory_order_relaxed)) {
    const uint32_t max_window =
        as->ra_sequential_hint.load(std::memory_order_relaxed)
            ? 2 * options_.max_readahead_pages
            : options_.max_readahead_pages;
    if (prev_index != UINT64_MAX && index == prev_index + 1) {
      // Sequential pattern: grow the window (ondemand_readahead-style).
      const uint32_t window = as->ra_window.load(std::memory_order_relaxed);
      heuristic = std::min(max_window, window == 0 ? 4 : window * 2);
    }
    as->ra_window.store(heuristic, std::memory_order_relaxed);
  }

  // Policy override: the readahead hook (ondemand_readahead analogue), one
  // dispatch per miss run with the full stream context. A deferral (< 0)
  // keeps the heuristic's window. Every policy-returned window, including
  // an injected readahead.misfire, is clamped to
  // options_.max_readahead_pages; clamped answers are surfaced via
  // ext_readahead_clamped.
  if (ExtActive(st)) {
    lane.Charge(options_.costs.hook_dispatch_ns);
    ReadaheadCtx rctx;
    rctx.mapping = as;
    rctx.index = index;
    rctx.prev_index = prev_index;
    rctx.default_window = heuristic;
    rctx.nr_requested = nr_requested;
    rctx.pid = lane.task().pid;
    rctx.tid = lane.task().tid;
    int64_t requested = st.ext->RequestReadahead(rctx);
    if (requested >= 0) {
      const int64_t cap = static_cast<int64_t>(options_.max_readahead_pages);
      if (requested > cap) {
        st.stats.ext_readahead_clamped.fetch_add(1, std::memory_order_relaxed);
        requested = cap;
      }
      return static_cast<uint32_t>(requested);
    }
  }
  return heuristic;
}

void PageCache::Prefetch(Lane& lane, AddressSpace* as, CgroupState& st,
                         uint64_t first_index, uint32_t nr_pages,
                         DispatchBatch& batch) {
  // Readahead stops at the end of the file, as the kernel's stops at
  // i_size: a page past it has no device bytes to read or cache.
  const uint64_t file_pages =
      (disk_->SizeOf(as->file()) + kPageSize - 1) / kPageSize;
  if (first_index >= file_pages) {
    return;
  }
  // A failed readahead read is dropped before it inserts anything, as the
  // kernel drops readahead errors: the reader misses on those pages later.
  if (fault::InjectFault(fault::points::kDiskRead)) {
    return;
  }
  // Resident folios are skipped; admit_order hears how much of the window
  // is left at each missing page. A denied page is skipped too.
  const uint64_t last = std::min(first_index + nr_pages, file_pages) - 1;
  uint64_t run_pages = 0;
  (void)WalkFolios(
      as, st, first_index, last,
      [](std::span<const WalkHit> hits) {
        for (const WalkHit& hit : hits) {
          hit.folio->Unpin();
        }
      },
      [&](uint64_t index, uint64_t run_end) -> Expected<uint64_t> {
        return FillMissRun(lane, as, st, batch, MissKind::kReadahead, index,
                           run_end, last, [&run_pages](uint64_t, Folio* folio) {
                             if (folio != nullptr) {
                               run_pages += folio->nr_pages();
                               folio->Unpin();
                             }
                           });
      });
  if (run_pages > 0) {
    // The device read happens asynchronously: it occupies a channel but the
    // triggering lane does not wait (readahead runs ahead of the reader).
    ssd_->SubmitRead(lane.now_ns(), run_pages * kPageSize);
    st.stats.readahead_pages.fetch_add(run_pages, std::memory_order_relaxed);
    ReclaimIfNeeded(lane, st, batch);
  }
}

// --- Data path -------------------------------------------------------------

Status PageCache::Read(Lane& lane, AddressSpace* as, MemCgroup* cg,
                       uint64_t offset, std::span<uint8_t> out) {
  return DataOp(lane, as, cg, offset, out.size(), [&](CgroupState& st,
                                                      DispatchBatch& batch,
                                                      uint64_t first,
                                                      uint64_t last) {
    ReadCopier copier(offset, out);
    const auto on_hits = [&](std::span<const WalkHit> hits) {
      for (const WalkHit& hit : hits) {
        // A hit copies out of the folio's pages and never touches the
        // device. Metadata updates go to the *owning* cgroup's policy, which
        // may differ from the reader's cgroup (§2.1 cross-cgroup
        // semantics); the notification is buffered and dispatched under the
        // owner's lock at the next drain. A multi-order hit services every
        // requested page the folio covers in this one step — one hit
        // charge, one hit count, one policy event for up to 2^order pages
        // (the CPU amortization large folios buy on the filemap fast path).
        lane.Charge(options_.costs.hit_ns);
        copier.AddFolio(*hit.folio, hit.index, hit.end);
        CgroupState* owner = StateFor(hit.folio->memcg);
        CHECK_NOTNULL(owner);
        hit.folio->memcg->stat_hits.fetch_add(1, std::memory_order_relaxed);
        Append(lane, batch, owner, hit.folio, HookEvent::kAccessed, nullptr);
        as->ra_prev_index.store(hit.end - 1, std::memory_order_relaxed);
      }
      copier.Flush();
    };
    const auto on_miss = [&](uint64_t index,
                             uint64_t run_end) -> Expected<uint64_t> {
      // The run's device read fails before it inserts anything: no folio,
      // charge or registry entry is left behind.
      if (fault::InjectFault(fault::points::kDiskRead)) {
        return IoError("injected disk read error (media failure)");
      }
      // Flush buffered events before taking our cgroup lock: while it is
      // held, the ring must only accumulate our own cgroup's events.
      Drain(lane, batch);
      MutexLock cg_lock(st.mu);
      const uint32_t ra_window =
          ReadaheadWindow(lane, st, as, index, HookPages(last - index + 1));
      // Pin the folios of this run while its device read is "in flight" and
      // its charges are reclaimed, then release them; pins must never cover
      // more than one run or a large read could pin the whole cgroup.
      std::vector<Folio*> run_pins;
      const uint64_t next = FillMissRun(
          lane, as, st, batch, MissKind::kRead, index, run_end, run_end,
          [&](uint64_t page, Folio* folio) {
            cg->stat_misses.fetch_add(1, std::memory_order_relaxed);
            if (folio == nullptr) {
              // Admission denied: the page is read from the device uncached.
              const DiskRun* run = nullptr;
              disk_->RefPages(as->file(), page, std::span(&run, 1));
              copier.Add(run, page);
              copier.Flush();
              DiskRun::Unref(run);
              st.stats.direct_reads.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            {
              ebr::Guard guard;
              copier.AddFolio(*folio, page,
                              std::min(last + 1, page + folio->nr_pages()));
              copier.Flush();
            }
            run_pins.push_back(folio);  // carries the InsertFolio pin
            folio->Pin();               // the ring's
            Append(lane, batch, &st, folio, HookEvent::kAccessed, &st);
            // Very long runs (whole-file reads): cap concurrent pins at the
            // device queue granularity, releasing the oldest.
            if (run_pins.size() > kMaxEvictionBatch) {
              run_pins.front()->Unpin();
              run_pins.erase(run_pins.begin());
              ReclaimIfNeeded(lane, st, batch);
            }
          });
      const uint64_t run_pages = next - index;
      if (run_pages > 0 && !st.oom_killed.load(std::memory_order_relaxed)) {
        // One device read covers the whole run (block-layer merging); the
        // lane waits for it.
        lane.AdvanceTo(ssd_->SubmitRead(lane.now_ns(), run_pages * kPageSize));
        as->ra_prev_index.store(next - 1, std::memory_order_relaxed);
        if (!run_pins.empty()) {
          ReclaimIfNeeded(lane, st, batch);
        }
      }
      for (Folio* pinned : run_pins) {
        pinned->Unpin();
      }
      // Readahead past the end of the request (a multi-order tail folio may
      // already have carried us past `last`); the walk ends at an OOM kill.
      if (ra_window > 0 && next > last &&
          !st.oom_killed.load(std::memory_order_relaxed)) {
        Prefetch(lane, as, st, next, ra_window, batch);
      }
      return next;
    };
    return WalkFolios(as, st, first, last, on_hits, on_miss);
  });
}

void PageCache::RefDevicePages(AddressSpace* as, Folio& folio, uint64_t from,
                               uint64_t to) {
  std::array<const DiskRun*, 1u << kMaxFolioOrder> runs;
  while (from < to) {
    const size_t n = std::min<uint64_t>(to - from, runs.size());
    disk_->RefPages(as->file(), from, std::span(runs.data(), n));
    for (size_t i = 0; i < n; ++i) {
      const DiskRun* old =
          folio.PageRef(from + i).exchange(runs[i], std::memory_order_acq_rel);
      if (old == runs[i]) {
        DiskRun::Unref(old);  // unchanged: the page keeps one reference
      } else if (old != nullptr) {
        ebr::Retire(const_cast<DiskRun*>(old), &DiskRun::UnrefErased);
      }
    }
    from += n;
  }
}

Status PageCache::Write(Lane& lane, AddressSpace* as, MemCgroup* cg,
                        uint64_t offset, std::span<const uint8_t> data) {
  return WriteThrough(lane, as, cg, offset, data, nullptr);
}

Status PageCache::Write(Lane& lane, AddressSpace* as, MemCgroup* cg,
                        uint64_t offset, std::string&& bytes) {
  return WriteThrough(
      lane, as, cg, offset,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(bytes.data()),
                               bytes.size()),
      &bytes);
}

Status PageCache::WriteThrough(Lane& lane, AddressSpace* as, MemCgroup* cg,
                               uint64_t offset, std::span<const uint8_t> data,
                               std::string* gift) {
  return DataOp(lane, as, cg, offset, data.size(), [&](CgroupState& st,
                                                       DispatchBatch& batch,
                                                       uint64_t first,
                                                       uint64_t last) {
    // Write-through for contents: the bytes reach the device now, and the
    // cached pages are re-pointed at the device's pages below; device write
    // timing is charged when the dirty folio is written back.
    CACHE_EXT_RETURN_IF_ERROR(
        gift != nullptr ? disk_->WriteAt(as->file(), offset, std::move(*gift))
                        : disk_->WriteAt(as->file(), offset, data));
    // Exactly-once clean->dirty accounting, routed to the folio owner's
    // flush control (files are shared; the dirtier may be a different
    // cgroup than the one that cached the page). A multi-order folio is
    // dirtied, and later written back, as a unit. The ring adopts a pin.
    const auto dirty = [&](Folio* folio, CgroupState& owner,
                           CgroupState* locked) {
      if (!folio->TestSetFlag(kFolioDirty)) {
        owner.flush->NoteDirtied(as, folio->nr_pages());
      }
      lane.Charge(options_.costs.write_page_ns);
      Append(lane, batch, &owner, folio, HookEvent::kAccessed, locked);
    };
    const auto on_hits = [&](std::span<const WalkHit> hits) {
      {
        // The device's current pages, not the run this write published: a
        // racing writer may have published after it, and every cached copy
        // must converge on the device's state, so the re-point happens
        // under the stripe. (A folio reaching below the page it was found
        // at starts before the write, so its pages from there on are the
        // ones the write covers.)
        MutexLock s(StripeFor(as).mu);
        for (const WalkHit& hit : hits) {
          RefDevicePages(as, *hit.folio, hit.index, hit.end);
        }
      }
      for (const WalkHit& hit : hits) {
        CgroupState* owner = StateFor(hit.folio->memcg);
        CHECK_NOTNULL(owner);
        hit.folio->memcg->stat_hits.fetch_add(1, std::memory_order_relaxed);
        dirty(hit.folio, *owner, nullptr);  // takes the walk's pin
        BalanceDirty(lane, *owner);
      }
    };
    const auto on_miss = [&](uint64_t index,
                             uint64_t run_end) -> Expected<uint64_t> {
      Drain(lane, batch);
      MutexLock cg_lock(st.mu);
      return FillMissRun(
          lane, as, st, batch, MissKind::kWrite, index, run_end, last,
          [&](uint64_t, Folio* folio) {
            cg->stat_misses.fetch_add(1, std::memory_order_relaxed);
            if (folio == nullptr) {
              // Admission denied: service like direct I/O — the lane waits
              // for the device write.
              st.stats.direct_writes.fetch_add(1, std::memory_order_relaxed);
              lane.AdvanceTo(ssd_->SubmitWrite(lane.now_ns(), kPageSize));
              return;
            }
            folio->Pin();  // the ring's
            dirty(folio, st, &st);
            // The InsertFolio pin covers this folio's own charge being
            // reclaimed (the kernel holds one locked folio at a time in the
            // buffered-write loop; a single huge write must not pin more
            // pages than the cgroup can hold).
            ReclaimIfNeeded(lane, st, batch);
            BalanceDirtyLocked(lane, st, &batch);
            folio->Unpin();
          });
    };
    return WalkFolios(as, st, first, last, on_hits, on_miss);
  });
}

}  // namespace cache_ext
