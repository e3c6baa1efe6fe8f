#include "src/pagecache/page_cache.h"

#include <algorithm>

#include "src/pagecache/default_lru.h"
#include "src/pagecache/mglru.h"
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