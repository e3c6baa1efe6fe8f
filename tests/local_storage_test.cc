// Folio-local storage (src/bpf/folio_local_storage.h): slot lifecycle,
// fallback behavior, owner-lifetime reclamation, the degraded-hook leak
// regression, the zero-alloc steady-state eviction arena, and the
// verifier's local-storage slot budget.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/verifier/verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/loader.h"
#include "src/cache_ext/ops.h"
#include "src/mm/folio.h"
#include "src/mm/folio_storage.h"
#include "src/pagecache/page_cache.h"
#include "src/sim/sim_disk.h"
#include "src/sim/ssd_model.h"

namespace cache_ext {
namespace {

using bpf::FolioLocalStorage;
using bpf::FolioLocalStorageStats;

// --- Map-level lifecycle -----------------------------------------------------

TEST(FolioLocalStorageTest, CreateOnFirstUseLookupDelete) {
  FolioLocalStorage<uint64_t> map(16);
  ASSERT_TRUE(map.using_slot());
  Folio folio;

  EXPECT_EQ(map.Lookup(&folio), nullptr);  // no storage yet
  uint64_t* v = map.GetOrCreate(&folio);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 0u);  // zero-initialized, like F_CREATE
  *v = 42;
  EXPECT_EQ(map.Lookup(&folio), v);  // stable address while resident
  EXPECT_EQ(*map.Lookup(&folio), 42u);
  EXPECT_EQ(map.GetOrCreate(&folio), v);  // idempotent
  EXPECT_EQ(map.Size(), 1u);

  EXPECT_TRUE(map.Delete(&folio));
  EXPECT_EQ(map.Lookup(&folio), nullptr);
  EXPECT_FALSE(map.Delete(&folio));
  EXPECT_EQ(map.Size(), 0u);
}

TEST(FolioLocalStorageTest, PoolExhaustionReturnsNullAndRecycles) {
  FolioLocalStorage<uint32_t> map(2);
  Folio a, b, c;
  ASSERT_NE(map.GetOrCreate(&a), nullptr);
  ASSERT_NE(map.GetOrCreate(&b), nullptr);
  EXPECT_EQ(map.GetOrCreate(&c), nullptr);  // -E2BIG
  EXPECT_TRUE(map.Delete(&a));
  EXPECT_NE(map.GetOrCreate(&c), nullptr);  // freed element recycled
  EXPECT_EQ(map.Size(), 2u);
}

TEST(FolioLocalStorageTest, SlotExhaustionFallsBackWithSameSemantics) {
  auto& dir = FolioStorageDirectory::Instance();
  const uint32_t slots_before = dir.SlotsInUse();
  std::vector<std::unique_ptr<FolioLocalStorage<uint64_t>>> maps;
  // Take every remaining slot...
  for (uint32_t i = slots_before; i < kFolioLocalStorageSlots; ++i) {
    maps.push_back(std::make_unique<FolioLocalStorage<uint64_t>>(8));
    EXPECT_TRUE(maps.back()->using_slot());
  }
  // ...then one more: hash fallback, identical API behavior.
  FolioLocalStorage<uint64_t> overflow(8);
  EXPECT_FALSE(overflow.using_slot());
  Folio folio;
  uint64_t* v = overflow.GetOrCreate(&folio);
  ASSERT_NE(v, nullptr);
  *v = 7;
  EXPECT_EQ(*overflow.Lookup(&folio), 7u);
  EXPECT_TRUE(overflow.Delete(&folio));
  EXPECT_EQ(overflow.Lookup(&folio), nullptr);
  const FolioLocalStorageStats stats = overflow.Stats();
  EXPECT_GT(stats.fallback_lookups, 0u);
  EXPECT_EQ(stats.slot_hits, 0u);

  // Destroying a slot map frees its slot for the next map (detach /
  // re-attach reuses the index, like bpf_local_storage_cache_idx_free).
  const int32_t freed_slot = maps.back()->slot();
  maps.pop_back();
  FolioLocalStorage<uint64_t> reattached(8);
  EXPECT_TRUE(reattached.using_slot());
  EXPECT_EQ(reattached.slot(), freed_slot);
}

TEST(FolioLocalStorageTest, DisableKnobForcesFallback) {
  auto& dir = FolioStorageDirectory::Instance();
  dir.SetSlotsDisabledForTesting(true);
  FolioLocalStorage<uint64_t> map(8);
  dir.SetSlotsDisabledForTesting(false);
  EXPECT_FALSE(map.using_slot());
  Folio folio;
  ASSERT_NE(map.GetOrCreate(&folio), nullptr);
  EXPECT_NE(map.Lookup(&folio), nullptr);
}

// --- Owner lifetime ----------------------------------------------------------

TEST(FolioLocalStorageTest, FolioFreeReclaimsElement) {
  FolioLocalStorage<uint64_t> map(8);
  ASSERT_TRUE(map.using_slot());
  auto folio = std::make_unique<Folio>();
  ASSERT_NE(map.GetOrCreate(folio.get()), nullptr);
  EXPECT_EQ(map.Size(), 1u);
  folio.reset();  // ~Folio -> FolioStorageDirectory::OnFolioFree
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Stats().owner_frees, 1u);
}

TEST(FolioLocalStorageTest, FolioFreeReclaimsFallbackEntryToo) {
  auto& dir = FolioStorageDirectory::Instance();
  dir.SetSlotsDisabledForTesting(true);
  FolioLocalStorage<uint64_t> map(8);
  dir.SetSlotsDisabledForTesting(false);
  auto folio = std::make_unique<Folio>();
  ASSERT_NE(map.GetOrCreate(folio.get()), nullptr);
  EXPECT_EQ(map.Size(), 1u);
  folio.reset();
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Stats().owner_frees, 1u);
}

TEST(FolioLocalStorageTest, MapDestructionDetachesSurvivingFolios) {
  Folio folio;
  int32_t slot = -1;
  {
    FolioLocalStorage<uint64_t> map(8);
    ASSERT_TRUE(map.using_slot());
    slot = map.slot();
    ASSERT_NE(map.GetOrCreate(&folio), nullptr);
    EXPECT_NE(folio.bpf_storage[slot].load(), nullptr);
  }
  // The dying map detached its element; the folio carries no dangling
  // pointer and a new map reusing the slot sees a clean folio.
  EXPECT_EQ(folio.bpf_storage[slot].load(), nullptr);
  FolioLocalStorage<uint64_t> reuse(8);
  ASSERT_EQ(reuse.slot(), slot);
  EXPECT_EQ(reuse.Lookup(&folio), nullptr);
}

TEST(FolioLocalStorageTest, SurvivesEvictionListMoves) {
  // Storage hangs off the folio, not off any list position: moving the
  // folio between eviction lists must not disturb it.
  FolioRegistry registry(64);
  CacheExtApi api(&registry);
  const uint64_t list_a = *api.ListCreate();
  const uint64_t list_b = *api.ListCreate();
  FolioLocalStorage<uint64_t> map(8);
  Folio folio;
  registry.Insert(&folio);
  uint64_t* v = map.GetOrCreate(&folio);
  ASSERT_NE(v, nullptr);
  *v = 99;
  ASSERT_TRUE(api.ListAdd(list_a, &folio, true).ok());
  ASSERT_TRUE(api.ListMove(list_a, &folio, false).ok());
  ASSERT_TRUE(api.ListDel(&folio).ok());
  ASSERT_TRUE(api.ListAdd(list_b, &folio, true).ok());
  EXPECT_EQ(map.Lookup(&folio), v);
  EXPECT_EQ(*map.Lookup(&folio), 99u);
  ASSERT_TRUE(api.ListDel(&folio).ok());
  registry.Remove(&folio);
}

// --- Full-stack: the degraded-hook leak regression and freed-on-eviction ----

class LocalStorageStackTest : public ::testing::Test {
 protected:
  LocalStorageStackTest() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 0;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/ls", 16 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 2}, 7); }

  void TouchPages(Lane& lane, AddressSpace* as, uint64_t first,
                  uint64_t count) {
    std::vector<uint8_t> buf(kPageSize);
    for (uint64_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(
          pc_->Read(lane, as, cg_, i * kPageSize, std::span<uint8_t>(buf))
              .ok());
    }
  }

  // A working FIFO that tracks per-folio state in local storage. The
  // folio_removed hook never deletes the entry — reclamation rides
  // entirely on the owner-lifetime path, which is exactly what a policy
  // with a breaker-degraded folio_removed hook degenerates to.
  struct LsState {
    explicit LsState(uint32_t max_entries) : meta(max_entries) {}
    uint64_t list = 0;
    FolioLocalStorage<uint64_t> meta;
  };
  Ops LeakyFifoOps(std::shared_ptr<LsState> st) {
    Ops ops;
    ops.name = "ls_fifo";
    ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
      auto list = api.ListCreate();
      if (!list.ok()) {
        return -1;
      }
      st->list = *list;
      return 0;
    };
    ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
      (void)api.ListAdd(st->list, folio, /*tail=*/true);
      if (uint64_t* v = st->meta.GetOrCreate(folio); v != nullptr) {
        *v = 1;
      }
    };
    ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
      if (uint64_t* v = st->meta.Lookup(folio); v != nullptr) {
        ++*v;
      }
    };
    // Deliberately NOT deleting st->meta here (see comment above).
    ops.folio_removed = [](CacheExtApi&, Folio*) {};
    ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
      IterOpts opts;
      opts.nr_scan = 4 * ctx->nr_candidates_requested;
      opts.on_evict = IterPlacement::kMoveToTail;
      (void)api.ListIterate(st->list, opts, ctx,
                            [](Folio*) { return IterVerdict::kEvict; });
    };
    ops.collect_counters = [st](PolicyRuntimeCounters* counters) {
      const FolioLocalStorageStats s = st->meta.Stats();
      counters->ext_map_lookups += s.fallback_lookups;
      counters->ext_local_storage_hits += s.slot_hits;
    };
    return ops;
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
};

TEST_F(LocalStorageStackTest, EvictionFreesEntriesWithoutFolioRemoved) {
  // Regression for the leaked-map-entry audit: folios freed without the
  // policy's folio_removed doing cleanup (degraded hook, or simply a
  // policy that forgot) must still release their local storage.
  auto st = std::make_shared<LsState>(256);
  ASSERT_TRUE(st->meta.using_slot());
  ASSERT_TRUE(loader_->Attach(cg_, LeakyFifoOps(st)).ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 128);  // 8x the 16-page cgroup: heavy eviction

  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  // Storage for evicted folios was reclaimed by ~Folio, not leaked: live
  // entries are bounded by residency, and the owner-free path fired.
  EXPECT_LE(st->meta.Size(), cg_->charged_pages());
  EXPECT_GT(st->meta.Stats().owner_frees, 0u);

  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_GT(stats.ext_local_storage_hits, 0u);
  EXPECT_EQ(stats.ext_map_lookups, 0u);  // slot mode: no hash probes

  // Cache teardown (detach + folio frees) returns every element.
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  pc_.reset();
  EXPECT_EQ(st->meta.Size(), 0u);
}

TEST_F(LocalStorageStackTest, SteadyStateReclaimAllocatesNothing) {
  // The eviction candidate arena: after the first reclaim sized it, score
  // batches must reuse the buffer — ext_evict_alloc_bytes stops growing
  // while ext_evict_arena_reuses keeps counting.
  struct ScoreState {
    explicit ScoreState(uint32_t max_entries) : meta(max_entries) {}
    uint64_t list = 0;
    FolioLocalStorage<uint64_t> meta;
  };
  auto st = std::make_shared<ScoreState>(256);
  Ops ops;
  ops.name = "ls_score";
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto list = api.ListCreate();
    if (!list.ok()) {
      return -1;
    }
    st->list = *list;
    return 0;
  };
  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    (void)api.ListAdd(st->list, folio, /*tail=*/true);
    (void)st->meta.GetOrCreate(folio);
  };
  ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
    if (uint64_t* v = st->meta.Lookup(folio); v != nullptr) {
      ++*v;
    }
  };
  ops.folio_removed = [st](CacheExtApi&, Folio* folio) {
    st->meta.Delete(folio);
  };
  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    IterOpts opts;
    opts.nr_scan = 4 * ctx->nr_candidates_requested;
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    (void)api.ListIterateScore(st->list, opts, ctx, [st](Folio* folio) {
      const uint64_t* v = st->meta.Lookup(folio);
      return v == nullptr ? 0 : static_cast<int64_t>(*v);
    });
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 256 * kPageSize).ok());

  TouchPages(lane, *as, 0, 64);  // warm: first reclaims size the arena
  const CgroupCacheStats warm = pc_->StatsFor(cg_);
  ASSERT_GT(warm.ext_evict_alloc_bytes, 0u);  // the arena did get sized

  TouchPages(lane, *as, 64, 192);  // steady state: heavy further reclaim
  const CgroupCacheStats steady = pc_->StatsFor(cg_);
  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  // Zero heap allocation in steady-state evict_folios, asserted:
  EXPECT_EQ(steady.ext_evict_alloc_bytes, warm.ext_evict_alloc_bytes);
  EXPECT_GT(steady.ext_evict_arena_reuses, warm.ext_evict_arena_reuses);
}

TEST_F(LocalStorageStackTest, CountersSurviveDetach) {
  // Every policy counter is folded into the cgroup at detach, a
  // re-attached policy's live counters add on top of that folded total,
  // and its own detach folds them in as well.
  auto st = std::make_shared<LsState>(256);
  ASSERT_TRUE(loader_->Attach(cg_, LeakyFifoOps(st)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);
  const CgroupCacheStats live = pc_->StatsFor(cg_);
  ASSERT_GT(live.ext_local_storage_hits, 0u);
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  const CgroupCacheStats folded = pc_->StatsFor(cg_);

  auto reattached =
      loader_->Attach(cg_, LeakyFifoOps(std::make_shared<LsState>(256)));
  ASSERT_TRUE(reattached.ok());
  TouchPages(lane, *as, 0, 64);
  const PolicyRuntimeCounters again = (*reattached)->RuntimeCounters();
  ASSERT_GT(again.ext_local_storage_hits, 0u);
  const CgroupCacheStats total = pc_->StatsFor(cg_);
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  const CgroupCacheStats refolded = pc_->StatsFor(cg_);
#define EXPECT_FOLD_AND_OVERLAY(name, unit, help)            \
  EXPECT_EQ(folded.name, live.name) << #name;                 \
  EXPECT_EQ(total.name, folded.name + again.name) << #name;   \
  EXPECT_EQ(refolded.name, total.name) << #name;
  CACHE_EXT_POLICY_STATS(EXPECT_FOLD_AND_OVERLAY)
#undef EXPECT_FOLD_AND_OVERLAY
}

// --- Verifier: the slot budget ----------------------------------------------

TEST(LocalStorageVerifierTest, RejectsMoreMapsThanSlots) {
  Ops ops;
  ops.name = "slot_hog";
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  using bpf::verifier::Hook;
  ops.spec.DeclareHook(Hook::kPolicyInit, 0)
      .DeclareHook(Hook::kEvictFolios, 0)
      .DeclareHook(Hook::kFolioAdded, 0)
      .DeclareHook(Hook::kFolioAccessed, 0)
      .DeclareHook(Hook::kFolioRemoved, 0);
  for (uint32_t i = 0; i <= kFolioLocalStorageSlots; ++i) {
    ops.spec.DeclareLocalStorageMap("ls_map_" + std::to_string(i), 64, 64);
  }
  bpf::verifier::VerifierLog log;
  EXPECT_FALSE(bpf::verifier::VerifyPolicy(ops, &log).ok());
  bool found = false;
  for (const auto& finding : log.findings()) {
    if (!finding.passed &&
        finding.check == bpf::verifier::Check::kSpecLocalStorage) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LocalStorageVerifierTest, AcceptsUpToSlotBudget) {
  Ops ops;
  ops.name = "slot_fit";
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  using bpf::verifier::Hook;
  ops.spec.DeclareHook(Hook::kPolicyInit, 0)
      .DeclareHook(Hook::kEvictFolios, 0)
      .DeclareHook(Hook::kFolioAdded, 0)
      .DeclareHook(Hook::kFolioAccessed, 0)
      .DeclareHook(Hook::kFolioRemoved, 0);
  for (uint32_t i = 0; i < kFolioLocalStorageSlots; ++i) {
    ops.spec.DeclareLocalStorageMap("ls_map_" + std::to_string(i), 64, 64);
  }
  bpf::verifier::VerifierLog log;
  EXPECT_TRUE(bpf::verifier::VerifyPolicy(ops, &log).ok());
}

}  // namespace
}  // namespace cache_ext
