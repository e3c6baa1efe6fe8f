#include "src/pagecache/page_cache.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "src/fault/fault_injector.h"
#include "src/pagecache/current_task.h"
#include "src/pagecache/default_lru.h"
#include "src/pagecache/mglru.h"
#include "src/pagecache/workingset.h"
#include "src/util/ebr.h"
#include "src/util/logging.h"

namespace cache_ext {

namespace {

std::unique_ptr<ReclaimPolicy> MakeBasePolicy(BasePolicyKind kind,
                                              const CpuCostModel& costs) {
  switch (kind) {
    case BasePolicyKind::kDefaultLru:
      return std::make_unique<DefaultLruPolicy>(costs.lru_event_ns);
    case BasePolicyKind::kMglru:
      return std::make_unique<MglruPolicy>(costs.mglru_event_ns);
  }
  return nullptr;
}

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

}  // namespace

PageCache::PageCache(SimDisk* disk, SsdModel* ssd, PageCacheOptions options)
    : disk_(disk), ssd_(ssd), options_(options) {
  CHECK_NOTNULL(disk_);
  CHECK_NOTNULL(ssd_);
  if (options_.reclaim.background && options_.reclaim.use_threads) {
    reclaimer_pool_ = std::make_unique<reclaim::ReclaimerPool>(
        options_.reclaim,
        [this](void* token) { BackgroundTickForToken(token); });
  }
}

PageCache::~PageCache() CACHE_EXT_NO_TSA {
  // Reclaimer threads first: they reach through CgroupStates into policies
  // and folios, so they must be joined before anything else is torn down.
  if (reclaimer_pool_ != nullptr) {
    reclaimer_pool_->Stop();
  }
  // Drain every deferred free first (folios and xarray nodes this cache
  // retired): their deleters touch the local-storage directory and must
  // not run after our policies are gone mid-teardown.
  ebr::Synchronize();
  // Free all resident folios. No locks: destruction requires quiescence.
  for (auto& [name, as] : files_) {
    std::vector<Folio*> folios;
    as->pages().ForEach([&folios](uint64_t, XEntry entry) {
      if (Folio* folio = entry.AsPointer<Folio>(); folio != nullptr) {
        folios.push_back(folio);
      }
    });
    for (Folio* folio : folios) {
      delete folio;
    }
  }
}

MemCgroup* PageCache::CreateCgroup(std::string_view name, uint64_t limit_bytes,
                                   BasePolicyKind base) {
  MutexLock lock(registry_mu_);
  auto state = std::make_unique<CgroupState>();
  const uint64_t limit_pages = std::max<uint64_t>(1, limit_bytes / kPageSize);
  state->cg = std::make_unique<MemCgroup>(next_cgroup_id_++, std::string(name),
                                          limit_pages);
  state->base = MakeBasePolicy(base, options_.costs);
  state->base_event_cost_ns = state->base->PerEventCostNs();
  state->reclaim = std::make_unique<reclaim::CgroupReclaimControl>(
      static_cast<uint32_t>(state->cg->id()));
  state->flush = std::make_unique<writeback::CgroupFlushControl>(
      static_cast<uint32_t>(state->cg->id()));
  state->cg->set_priv(state.get());
  MemCgroup* cg = state->cg.get();
  if (reclaimer_pool_ != nullptr) {
    reclaimer_pool_->Register(state.get());
  }
  cgroups_.push_back(std::move(state));
  return cg;
}

MemCgroup* PageCache::FindCgroup(std::string_view name) {
  MutexLock lock(registry_mu_);
  for (auto& st : cgroups_) {
    if (st->cg->name() == name) {
      return st->cg.get();
    }
  }
  return nullptr;
}

Expected<AddressSpace*> PageCache::OpenFile(std::string_view name) {
  MutexLock lock(registry_mu_);
  auto it = files_.find(std::string(name));
  if (it != files_.end()) {
    return it->second.get();
  }
  FileId id = kInvalidFileId;
  if (disk_->Exists(name)) {
    auto opened = disk_->Open(name);
    CACHE_EXT_RETURN_IF_ERROR(opened.status());
    id = *opened;
  } else {
    auto created = disk_->Create(name);
    CACHE_EXT_RETURN_IF_ERROR(created.status());
    id = *created;
  }
  auto as =
      std::make_unique<AddressSpace>(next_mapping_id_++, id, std::string(name));
  AddressSpace* raw = as.get();
  files_[std::string(name)] = std::move(as);
  return raw;
}

Status PageCache::AttachExtPolicy(MemCgroup* cg,
                                  std::unique_ptr<ReclaimPolicy> policy) {
  MutexLock reg(registry_mu_);
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return NotFound("unknown cgroup");
  }
  MutexLock lock(st->mu);
  if (st->ext != nullptr) {
    return AlreadyExists("cgroup already has an ext policy attached");
  }
  st->ext = std::move(policy);
  st->stats.ext_violations.store(0, std::memory_order_relaxed);
  st->watchdog_detached.store(false, std::memory_order_relaxed);
  // A fresh attachment starts with a clean reclaim-failure record — the
  // streak belongs to a policy, not the cgroup.
  st->reclaim->ResetExtFailureStreak();
  st->ext_event_cost_ns.store(st->ext->PerEventCostNs(),
                              std::memory_order_relaxed);
  st->ext_active_hint.store(true, std::memory_order_release);
  // Introduce currently-resident folios so the policy has a complete view
  // (folios inserted before attach would otherwise be invisible to it and
  // unevictable through its lists). Holding st->mu keeps this cgroup's
  // folios from being removed while we walk; the stripe guards each walk.
  for (auto& [name, as] : files_) {
    std::vector<Folio*> own;
    {
      MutexLock stripe(StripeFor(as.get()).mu);
      as->pages().ForEach([&](uint64_t, XEntry entry) {
        Folio* folio = entry.AsPointer<Folio>();
        if (folio != nullptr && folio->memcg == cg) {
          own.push_back(folio);
        }
      });
    }
    for (Folio* folio : own) {
      st->ext->FolioAdded(folio);
    }
  }
  return OkStatus();
}

Status PageCache::DetachExtPolicy(MemCgroup* cg) {
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return NotFound("unknown cgroup");
  }
  MutexLock lock(st->mu);
  if (st->ext == nullptr) {
    return FailedPrecondition("no ext policy attached");
  }
  // Fold the departing attachment's breaker trips and policy counters into
  // the cgroup's cumulative ones so post-mortem stats survive the detach.
  const PolicyHookHealth health = st->ext->HookHealth();
  for (uint32_t i = 0; i < kNumPolicyHooks; ++i) {
    st->ext_hook_trip_counts[i].fetch_add(health.trips[i],
                                          std::memory_order_relaxed);
  }
  st->detached_policy_stats.Add(st->ext->RuntimeCounters());
  st->ext_active_hint.store(false, std::memory_order_release);
  st->ext.reset();
  return OkStatus();
}

ReclaimPolicy* PageCache::ext_policy(MemCgroup* cg) {
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return nullptr;
  }
  MutexLock lock(st->mu);
  return st->ext.get();
}

void PageCache::RecordLoadRejection(MemCgroup* cg) {
  CgroupState* st = StateFor(cg);
  if (st != nullptr) {
    st->stats.rejected_at_load.fetch_add(1, std::memory_order_relaxed);
  }
}

void PageCache::SetQuarantineInfo(MemCgroup* cg, bool quarantined, bool banned,
                                  uint32_t reattach_attempts) {
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return;
  }
  st->ext_quarantined.store(quarantined, std::memory_order_relaxed);
  st->ext_banned.store(banned, std::memory_order_relaxed);
  st->ext_reattach_attempts.store(reattach_attempts,
                                  std::memory_order_relaxed);
}

bool PageCache::ExtActive(CgroupState& st) {
  if (st.ext == nullptr || st.watchdog_detached.load(std::memory_order_relaxed)) {
    return false;
  }
  if (st.ext->WantsDetach()) {
    // Breaker escalation: latch the watchdog flag so every dispatch site
    // stops consulting the policy; the manager's Poll() finishes the job.
    LOG_WARNING << "cache_ext watchdog: policy '" << st.ext->name()
                << "' on cgroup '" << st.cg->name()
                << "' escalated by its circuit breaker; detaching";
    st.watchdog_detached.store(true, std::memory_order_relaxed);
    st.ext_active_hint.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

ReclaimPolicy* PageCache::base_policy(MemCgroup* cg) {
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return nullptr;
  }
  MutexLock lock(st->mu);
  return st->base.get();
}

// --- Batched hook dispatch -------------------------------------------------

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
  // The ring owns one pin: the folio cannot be freed before dispatch.
  folio->Pin();
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

// --- Folio lifetime --------------------------------------------------------

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
                              uint64_t index, bool is_write, bool via_readahead,
                              DispatchBatch& batch, bool* already_present,
                              uint32_t nr_wanted) {
  *already_present = false;
  MemCgroup* cg = st.cg.get();
  Stripe& stripe = StripeFor(as);

  // First presence probe, lock-free (the populated-while-we-missed case is
  // common under readahead); the second probe below, under the stripe, is
  // authoritative.
  {
    ebr::Guard guard;
    if (Folio* existing = LocklessLookup(as, index, st); existing != nullptr) {
      *already_present = true;
      return existing;
    }
  }

  // Admission filter (§5.6): only consulted for folios not yet present, and
  // never for a watchdog-detached policy (it must not veto admissions).
  if (ExtActive(st)) {
    AdmissionCtx actx;
    actx.mapping = as;
    actx.index = index;
    actx.memcg = cg;
    actx.pid = lane.task().pid;
    actx.tid = lane.task().tid;
    actx.is_write = is_write;
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
    MutexLock s(stripe.mu);
    // Another lane (a different cgroup sharing the file) may have populated
    // the index while admission ran; the xarray re-check under the stripe
    // is authoritative.
    if (Folio* existing = as->FindFolio(index); existing != nullptr) {
      existing->Pin();
      *already_present = true;
      return existing;
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
    folio->Pin();  // returned pinned; the caller unpins

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

  if (via_readahead) {
    st.stats.readahead_pages.fetch_add(folio->nr_pages(),
                                       std::memory_order_relaxed);
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

void PageCache::BackgroundTick(CgroupState& st, DispatchBatch* batch,
                               uint64_t now_hint_ns) {
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
  // clock forward to the waker's (pool threads pass 0 — no virtual waker).
  rlane.AdvanceTo(now_hint_ns);
  // Eviction hooks run as the reclaimer task (the kswapd analogue), not as
  // whichever reader happened to trip the wakeup.
  ScopedCurrentTask current_task(rc.task());
  if (batch != nullptr) {
    DrainLocked(rlane, *batch, st);
  }
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

void PageCache::KickBackground(Lane& lane, CgroupState& st,
                               DispatchBatch& batch) {
  if (reclaimer_pool_ != nullptr) {
    // Async: allocation pays a condvar signal, never reclaim work.
    reclaimer_pool_->Kick(&st);
    return;
  }
  // Virtual lane (single-threaded sims): tick synchronously, modelling an
  // always-prompt daemon. The eviction work is charged to the reclaimer's
  // own clock — the allocating lane's latency is untouched.
  BackgroundTick(st, &batch, lane.now_ns());
}

void PageCache::BackgroundTickForToken(void* token) CACHE_EXT_NO_TSA {
  auto* st = static_cast<CgroupState*>(token);
  if (st->oom_killed.load(std::memory_order_relaxed)) {
    return;
  }
  const reclaim::Watermarks wm = reclaim::ForCgroup(*st->cg);
  // Lock-free pressure gate: idle cgroups cost the pool two relaxed loads
  // per poll, never a lock acquisition that could contend the hot path.
  if (!wm.Valid() ||
      !st->reclaim->ShouldWake(st->cg->charged_pages(), wm)) {
    return;
  }
  MutexLock lock(st->mu);
  BackgroundTick(*st, nullptr, 0);
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
    KickBackground(lane, st, batch);
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
    KickBackground(lane, st, batch);
    if (!cg->OverLimit()) {
      return;
    }
  }
  // Bounded emergency: reclaim back under the hard limit only — the high
  // watermark stays the daemon's job, so a wedged daemon costs allocators
  // the minimum, not the full balance_pgdat sweep.
  DirectReclaim(lane, st, batch);
}

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
  // pause() of HZ/5 scaled).
  constexpr uint64_t kThrottlePauseNs = 200 * 1000;
  const uint64_t start_ns = lane.now_ns();
  uint32_t rounds = 0;
  while (dl.NeedsThrottle(fc.nr_dirty()) &&
         rounds < options_.writeback.max_throttle_rounds) {
    FlushTick(st, batch, lane.now_ns());
    lane.Charge(kThrottlePauseNs);
    ++rounds;
  }
  fc.NoteThrottle(lane.now_ns() - start_ns);
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

  // Policy override. The readahead hook (ondemand_readahead analogue) is
  // asked first — one dispatch per miss run, with the full stream context.
  // A deferral (< 0) falls through to the legacy per-page prefetch hook
  // (§7 extension) for compatibility with policies written against it.
  // EVERY policy-returned window — either hook, including an injected
  // readahead.misfire — is clamped to options_.max_readahead_pages;
  // clamped answers are surfaced via ext_readahead_clamped.
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
    if (requested < 0) {
      PrefetchCtx ctx;
      ctx.mapping = as;
      ctx.index = index;
      ctx.prev_index = prev_index;
      ctx.default_window = heuristic;
      ctx.pid = lane.task().pid;
      ctx.tid = lane.task().tid;
      requested = st.ext->RequestPrefetch(ctx);
    }
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
  // A failed readahead read is dropped before it inserts anything, as the
  // kernel drops readahead errors: the reader misses on those pages later.
  if (fault::InjectFault(fault::points::kDiskRead)) {
    return;
  }
  uint64_t run_bytes = 0;
  const uint64_t end = first_index + nr_pages;
  uint64_t index = first_index;
  while (index < end) {
    bool already = false;
    Folio* inserted = InsertFolio(
        lane, as, st, index, /*is_write=*/false, /*via_readahead=*/true,
        batch, &already, static_cast<uint32_t>(end - index));
    if (inserted == nullptr) {
      ++index;  // admission denied
      continue;
    }
    // Step over the whole folio (an existing one may cover several of our
    // indices; a fresh multi-order one certainly does).
    const uint64_t next = inserted->index + inserted->nr_pages();
    if (!already) {
      run_bytes += inserted->nr_pages() * kPageSize;
    }
    inserted->Unpin();
    index = std::max(index + 1, next);
  }
  if (run_bytes > 0) {
    // The device read happens asynchronously: it occupies a channel but the
    // triggering lane does not wait (readahead runs ahead of the reader).
    ssd_->SubmitRead(lane.now_ns(), run_bytes);
    ReclaimIfNeeded(lane, st, batch);
  }
}

// --- Data path -------------------------------------------------------------

Status PageCache::Read(Lane& lane, AddressSpace* as, MemCgroup* cg,
                       uint64_t offset, std::span<uint8_t> out) {
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
  if (out.empty()) {
    return OkStatus();
  }
  ScopedCurrentTask current(lane.task());
  lane.Charge(options_.costs.per_op_syscall_ns);

  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + out.size() - 1) / kPageSize;
  DispatchBatch batch;
  std::vector<Folio*> run_pins;
  Stripe& stripe = StripeFor(as);
  ReadCopier copier(offset, out);
  // One guard covers a run of lockless hits: the pages they add to
  // `copier` stay alive until its Flush at the run's end.
  std::optional<ebr::Guard> hit_guard;

  uint64_t index = first;
  while (index <= last) {
    // Hit check: lock-free xarray walk + speculative TryPin under an
    // ebr::Guard (filemap_get_folio under rcu_read_lock) — the stripe is
    // never required for a hit. The hit copies out of the folio's pages
    // while the guard still excludes a free of a page a write re-points,
    // and never touches the device.
    if (!hit_guard.has_value()) {
      hit_guard.emplace();
    }
    if (Folio* hit = LocklessLookup(as, index, *st); hit != nullptr) {
      lane.Charge(options_.costs.hit_ns);
      const uint64_t next = std::min(last + 1, hit->index + hit->nr_pages());
      copier.AddFolio(*hit, index, next);
      // Hit. Metadata updates go to the *owning* cgroup's policy, which may
      // differ from the reader's cgroup (§2.1 cross-cgroup semantics); the
      // notification is buffered and dispatched under the owner's lock at
      // the next drain. A multi-order hit services every requested page the
      // folio covers in this one step — one hit charge, one hit count, one
      // policy event for up to 2^order pages (the CPU amortization large
      // folios buy on the filemap fast path).
      CgroupState* owner = StateFor(hit->memcg);
      CHECK_NOTNULL(owner);
      hit->memcg->stat_hits.fetch_add(1, std::memory_order_relaxed);
      Append(lane, batch, owner, hit, HookEvent::kAccessed, nullptr);
      hit->Unpin();
      as->ra_prev_index.store(next - 1, std::memory_order_relaxed);
      index = std::max(index + 1, next);
      continue;
    }
    copier.Flush();
    hit_guard.reset();

    // Miss: gather the contiguous run of missing pages within the request.
    uint64_t run_end = index;
    {
      MutexLock s(stripe.mu);
      while (run_end + 1 <= last && as->FindFolio(run_end + 1) == nullptr) {
        ++run_end;
      }
    }
    // The run's device read fails before it inserts anything: no folio,
    // charge or registry entry is left behind.
    if (fault::InjectFault(fault::points::kDiskRead)) {
      Drain(lane, batch);
      return IoError("injected disk read error (media failure)");
    }

    // Flush buffered events before taking our cgroup lock: while it is
    // held, the ring must only accumulate our own cgroup's events.
    Drain(lane, batch);

    bool oom = false;
    {
      MutexLock cg_lock(st->mu);
      const uint32_t ra_window = ReadaheadWindow(
          lane, *st, as, index,
          static_cast<uint32_t>(std::min<uint64_t>(last - index + 1,
                                                   UINT32_MAX)));

      // Pin the folios of this run while its device read is "in flight" and
      // its charges are reclaimed, then release them; pins must never cover
      // more than one run or a large read could pin the whole cgroup.
      uint64_t cached_pages = 0;
      run_pins.clear();
      uint64_t next_index = index;
      while (next_index <= run_end) {
        bool already = false;
        Folio* inserted = InsertFolio(
            lane, as, *st, next_index, /*is_write=*/false,
            /*via_readahead=*/false, batch, &already,
            static_cast<uint32_t>(
                std::min<uint64_t>(run_end - next_index + 1, UINT32_MAX)));
        if (already) {
          // Another lane populated the page; reprocess it as a hit outside
          // our cgroup lock (its owner may differ).
          inserted->Unpin();
          break;
        }
        cg->stat_misses.fetch_add(1, std::memory_order_relaxed);
        if (inserted == nullptr) {
          // Admission denied: the page is read from the device uncached.
          const DiskRun* run = nullptr;
          disk_->RefPages(as->file(), next_index, std::span(&run, 1));
          copier.Add(run, next_index);
          copier.Flush();
          DiskRun::Unref(run);
          ++next_index;
          st->stats.direct_reads.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // The inserted folio may span past next_index (multi-order); the
        // whole span is populated by this run's device read.
        next_index = inserted->index + inserted->nr_pages();
        {
          ebr::Guard guard;
          copier.AddFolio(*inserted, inserted->index,
                          std::min(last + 1, next_index));
          copier.Flush();
        }
        cached_pages += inserted->nr_pages();
        run_pins.push_back(inserted);  // carries the InsertFolio pin
        Append(lane, batch, st, inserted, HookEvent::kAccessed, st);
        // Very long runs (whole-file reads): cap concurrent pins at the
        // device queue granularity, releasing the oldest.
        if (run_pins.size() > kMaxEvictionBatch) {
          run_pins.front()->Unpin();
          run_pins.erase(run_pins.begin());
          ReclaimIfNeeded(lane, *st, batch);
          if (st->oom_killed.load(std::memory_order_relaxed)) {
            oom = true;
            break;
          }
        }
      }

      const uint64_t run_pages = next_index - index;
      if (!oom && run_pages > 0) {
        // One device read covers the whole run (block-layer merging); the
        // lane waits for it.
        const uint64_t completion =
            ssd_->SubmitRead(lane.now_ns(), run_pages * kPageSize);
        lane.AdvanceTo(completion);
        as->ra_prev_index.store(next_index - 1, std::memory_order_relaxed);
      }

      if (!oom && cached_pages > 0) {
        ReclaimIfNeeded(lane, *st, batch);
      }
      for (Folio* pinned : run_pins) {
        pinned->Unpin();
      }
      run_pins.clear();
      if (st->oom_killed.load(std::memory_order_relaxed)) {
        oom = true;
      }

      // Readahead past the end of the request (a multi-order tail folio may
      // already have carried us past `last`).
      if (!oom && ra_window > 0 && run_pages > 0 && next_index - 1 >= last) {
        Prefetch(lane, as, *st, next_index, ra_window, batch);
      }
      index = next_index;
    }
    if (oom) {
      Drain(lane, batch);
      return ResourceExhausted("cgroup was OOM-killed");
    }
  }

  copier.Flush();
  hit_guard.reset();
  Drain(lane, batch);
  return OkStatus();
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
  if (data.empty()) {
    return OkStatus();
  }
  ScopedCurrentTask current(lane.task());
  lane.Charge(options_.costs.per_op_syscall_ns);

  // Write-through for contents: the bytes reach the device now, and the
  // cached pages are re-pointed at the device's pages below; device write
  // timing is charged when the dirty folio is written back.
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + data.size() - 1) / kPageSize;
  CACHE_EXT_RETURN_IF_ERROR(
      gift != nullptr ? disk_->WriteAt(as->file(), offset, std::move(*gift))
                      : disk_->WriteAt(as->file(), offset, data));
  DispatchBatch batch;
  Stripe& stripe = StripeFor(as);

  uint64_t index = first;
  while (index <= last) {
    Folio* hit = nullptr;
    {
      MutexLock s(stripe.mu);
      hit = as->FindFolio(index);
      if (hit != nullptr) {
        hit->Pin();
        // The device's current pages, not the run this write published: a
        // racing writer may have published after it, and every cached copy
        // must converge on the device's state. (A folio reaching below
        // `index` starts before the write, so its pages from `index` on are
        // the ones the write covers.)
        RefDevicePages(as, *hit, index,
                       std::min(last + 1, hit->index + hit->nr_pages()));
      }
    }
    if (hit != nullptr) {
      CgroupState* owner = StateFor(hit->memcg);
      CHECK_NOTNULL(owner);
      hit->memcg->stat_hits.fetch_add(1, std::memory_order_relaxed);
      if (!hit->TestSetFlag(kFolioDirty)) {
        // Exactly-once clean->dirty accounting, routed to the folio owner's
        // flush control (files are shared; the dirtier may be a different
        // cgroup than the one that cached the page).
        owner->flush->NoteDirtied(as, hit->nr_pages());
      }
      lane.Charge(options_.costs.write_page_ns);
      Append(lane, batch, owner, hit, HookEvent::kAccessed, nullptr);
      // A multi-order folio absorbs every covered page of the write in this
      // one step (it is dirtied — and later written back — as a unit).
      const uint64_t next =
          std::min(last + 1, hit->index + hit->nr_pages());
      hit->Unpin();
      BalanceDirty(lane, *owner);
      index = std::max(index + 1, next);
      continue;
    }

    Drain(lane, batch);
    bool oom = false;
    {
      MutexLock cg_lock(st->mu);
      while (index <= last) {
        bool already = false;
        Folio* inserted = InsertFolio(
            lane, as, *st, index, /*is_write=*/true,
            /*via_readahead=*/false, batch, &already,
            static_cast<uint32_t>(
                std::min<uint64_t>(last - index + 1, UINT32_MAX)));
        if (already) {
          inserted->Unpin();  // reprocess as a hit outside our lock
          break;
        }
        cg->stat_misses.fetch_add(1, std::memory_order_relaxed);
        if (inserted == nullptr) {
          // Admission denied: service like direct I/O — the lane waits for
          // the device write.
          st->stats.direct_writes.fetch_add(1, std::memory_order_relaxed);
          const uint64_t completion =
              ssd_->SubmitWrite(lane.now_ns(), kPageSize);
          lane.AdvanceTo(completion);
          ++index;
        } else {
          if (!inserted->TestSetFlag(kFolioDirty)) {
            st->flush->NoteDirtied(as, inserted->nr_pages());
          }
          lane.Charge(options_.costs.write_page_ns);
          Append(lane, batch, st, inserted, HookEvent::kAccessed, st);
          // The InsertFolio pin covers this folio's own charge being
          // reclaimed (the kernel holds one locked folio at a time in the
          // buffered-write loop; a single huge write must not pin more
          // pages than the cgroup can hold).
          ReclaimIfNeeded(lane, *st, batch);
          BalanceDirtyLocked(lane, *st, &batch);
          index = inserted->index + inserted->nr_pages();
          inserted->Unpin();
          if (st->oom_killed.load(std::memory_order_relaxed)) {
            oom = true;
            break;
          }
        }
        if (index > last) {
          break;
        }
        bool next_missing = false;
        {
          MutexLock s(stripe.mu);
          next_missing = as->FindFolio(index) == nullptr;
        }
        if (!next_missing) {
          break;  // leave the miss streak; the outer loop handles the hit
        }
      }
    }
    if (oom) {
      Drain(lane, batch);
      return ResourceExhausted("cgroup was OOM-killed");
    }
  }
  Drain(lane, batch);
  return OkStatus();
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
      const uint64_t file_pages =
          (disk_->SizeOf(as->file()) + kPageSize - 1) / kPageSize;
      const uint64_t end = std::min<uint64_t>(
          last, file_pages == 0 ? 0 : file_pages - 1);
      constexpr uint64_t kWillNeedCap = 1024;
      const uint64_t count =
          end >= first ? std::min<uint64_t>(end - first + 1, kWillNeedCap) : 0;
      if (count > 0) {
        DispatchBatch batch;
        {
          MutexLock lock(st->mu);
          Prefetch(lane, as, *st, first, static_cast<uint32_t>(count), batch);
          DrainLocked(lane, batch, *st);
        }
        Drain(lane, batch);
      }
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

CgroupCacheStats PageCache::StatsFor(MemCgroup* cg) {
  CgroupState* st = StateFor(cg);
  if (st == nullptr) {
    return CgroupCacheStats{};
  }
  MutexLock lock(st->mu);
  return SnapshotStats(*st);
}

CgroupCacheStats PageCache::SnapshotStats(CgroupState& st) {
  // Latch a pending breaker escalation even if no cache event has run since
  // the trip — the policy manager polls these stats to drive its revert.
  (void)ExtActive(st);
  CgroupCacheStats stats;
  st.stats.LoadInto(stats);
  st.detached_policy_stats.LoadInto(stats);
  st.reclaim->counters().LoadInto(stats);
  st.flush->counters().LoadInto(stats);
  stats.ext_detached_by_watchdog =
      st.watchdog_detached.load(std::memory_order_relaxed);
  stats.oom_killed = st.oom_killed.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < kNumPolicyHooks; ++i) {
    stats.ext_hook_trip_counts[i] =
        st.ext_hook_trip_counts[i].load(std::memory_order_relaxed);
  }
  stats.ext_quarantined = st.ext_quarantined.load(std::memory_order_relaxed);
  stats.ext_banned = st.ext_banned.load(std::memory_order_relaxed);
  stats.ext_reattach_attempts =
      st.ext_reattach_attempts.load(std::memory_order_relaxed);
  stats.reclaim_health = st.reclaim->health();
  if (st.ext != nullptr) {
    // Overlay the live attachment: its current degraded mask, and its trips
    // and policy counters on top of the folded history.
    const PolicyHookHealth health = st.ext->HookHealth();
    stats.ext_degraded_hook_mask = health.degraded_mask;
    for (uint32_t i = 0; i < kNumPolicyHooks; ++i) {
      stats.ext_hook_trip_counts[i] += health.trips[i];
    }
    st.ext->RuntimeCounters().AddTo(stats);
  }
  return stats;
}

}  // namespace cache_ext
