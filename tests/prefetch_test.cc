// Tests for the prefetch-policy extension (§7, FetchBPF-style): the
// readahead hook's plumbing through the page cache, its clamping, and the
// stride-prefetcher policy's behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"
#include "src/policies/prefetch.h"

namespace cache_ext {
namespace {

// A policy whose only decision is the readahead window.
Ops HookOnlyOps(std::string name,
                std::function<int64_t(CacheExtApi&, const ReadaheadCtx&)> fn) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  ops.readahead = std::move(fn);
  return ops;
}

class PrefetchHookTest : public ::testing::Test {
 protected:
  PrefetchHookTest() {
    ssd_ = std::make_unique<SsdModel>();
    PageCacheOptions options;
    options.max_readahead_pages = 8;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/pf", 512 * kPageSize);
    auto as = pc_->OpenFile("/data");
    CHECK(as.ok());
    as_ = *as;
    CHECK(disk_.Truncate(as_->file(), 2048 * kPageSize).ok());
  }

  void ReadPage(Lane& lane, uint64_t index) {
    std::vector<uint8_t> buf(64);
    ASSERT_TRUE(pc_->Read(lane, as_, cg_, index * kPageSize,
                          std::span<uint8_t>(buf))
                    .ok());
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
  AddressSpace* as_;
};

TEST_F(PrefetchHookTest, HookSeesMissContext) {
  ReadaheadCtx seen;
  int calls = 0;
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("spy",
                                            [&](CacheExtApi&,
                                                const ReadaheadCtx& ctx) {
                                              seen = ctx;
                                              ++calls;
                                              return int64_t{-1};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{11, 22}, 1);
  ReadPage(lane, 7);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.mapping, as_);
  EXPECT_EQ(seen.index, 7u);
  EXPECT_EQ(seen.pid, 11);
  EXPECT_EQ(seen.tid, 22);
  // Hits do not consult the hook.
  ReadPage(lane, 7);
  EXPECT_EQ(calls, 1);
}

TEST_F(PrefetchHookTest, PolicyWindowOverridesHeuristic) {
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("fixed6",
                                            [](CacheExtApi&,
                                               const ReadaheadCtx&) {
                                              return int64_t{6};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);  // random first touch: heuristic would prefetch 0
  // Policy demanded 6 pages: pages 1..6 are now resident.
  for (uint64_t i = 1; i <= 6; ++i) {
    EXPECT_NE(as_->FindFolio(i), nullptr) << i;
  }
  EXPECT_EQ(as_->FindFolio(7), nullptr);
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 6u);
  EXPECT_EQ(pc_->StatsFor(cg_).ext_readahead_clamped, 0u);
}

TEST_F(PrefetchHookTest, PolicyWindowClampedToMaxReadahead) {
  // The fixture caps readahead at 8 pages; a policy asking for 16 is
  // clamped (RunOptions-level bound on BPF-guided windows) and the clamp
  // is visible in the counters.
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("fixed16",
                                            [](CacheExtApi&,
                                               const ReadaheadCtx&) {
                                              return int64_t{16};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  for (uint64_t i = 1; i <= 8; ++i) {
    EXPECT_NE(as_->FindFolio(i), nullptr) << i;
  }
  EXPECT_EQ(as_->FindFolio(9), nullptr);
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 8u);
  EXPECT_EQ(pc_->StatsFor(cg_).ext_readahead_clamped, 1u);
}

TEST_F(PrefetchHookTest, ZeroDisablesPrefetchOnSequentialStream) {
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("never",
                                            [](CacheExtApi&,
                                               const ReadaheadCtx&) {
                                              return int64_t{0};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 10; ++i) {
    ReadPage(lane, i);  // perfectly sequential
  }
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
}

TEST_F(PrefetchHookTest, NegativeDefersToKernelHeuristic) {
  uint32_t last_default = 0;
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("defer",
                                            [&](CacheExtApi&,
                                                const ReadaheadCtx& ctx) {
                                              last_default =
                                                  ctx.default_window;
                                              return int64_t{-1};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 100);
  ReadPage(lane, 101);  // sequential: heuristic kicks in
  EXPECT_GT(last_default, 0u);
  EXPECT_GT(pc_->StatsFor(cg_).readahead_pages, 0u);
}

TEST_F(PrefetchHookTest, AbsurdWindowClamped) {
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("greedy",
                                            [](CacheExtApi&,
                                               const ReadaheadCtx&) {
                                              return int64_t{1 << 30};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  // Clamped to max_readahead_pages (8 in this fixture), and further
  // bounded by the cgroup limit via reclaim.
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 8u);
  EXPECT_EQ(pc_->StatsFor(cg_).ext_readahead_clamped, 1u);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1);
}

// --- the per-run readahead hook ----------------------------------------------

TEST_F(PrefetchHookTest, ReadaheadHookSeesRunContext) {
  ReadaheadCtx seen;
  int calls = 0;
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps(
                                    "ra_spy",
                                    [&](CacheExtApi&,
                                        const ReadaheadCtx& ctx) {
                                      seen = ctx;
                                      ++calls;
                                      return int64_t{-1};
                                    }))
                  .ok());
  Lane lane(0, TaskContext{33, 44}, 1);
  ReadPage(lane, 9);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.mapping, as_);
  EXPECT_EQ(seen.index, 9u);
  EXPECT_EQ(seen.nr_requested, 1u);
  EXPECT_EQ(seen.pid, 33);
  EXPECT_EQ(seen.tid, 44);
  // Hits do not consult the hook.
  ReadPage(lane, 9);
  EXPECT_EQ(calls, 1);
}

TEST_F(PrefetchHookTest, ReadaheadZeroSuppressesWindow) {
  // A zero return from the readahead hook suppresses all speculation —
  // including the kernel heuristic (it must NOT fall through to it).
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps(
                                    "ra_never",
                                    [](CacheExtApi&, const ReadaheadCtx&) {
                                      return int64_t{0};
                                    }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 10; ++i) {
    ReadPage(lane, i);  // perfectly sequential: heuristic would ramp up
  }
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
  EXPECT_EQ(as_->FindFolio(10), nullptr);
}

TEST_F(PrefetchHookTest, ReadaheadWindowClampedAndCounted) {
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps(
                                    "ra_greedy",
                                    [](CacheExtApi&, const ReadaheadCtx&) {
                                      return int64_t{1} << 40;
                                    }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 8u);
  EXPECT_EQ(pc_->StatsFor(cg_).ext_readahead_clamped, 1u);
}

TEST_F(PrefetchHookTest, ReadaheadDeferGetsExactlyTheHeuristicWindow) {
  // A deferring readahead hook is the whole policy decision: the page cache
  // reads ahead exactly the heuristic window the hook was offered, and asks
  // nothing else.
  int calls = 0;
  uint64_t offered = 0;
  ASSERT_TRUE(loader_
                  ->Attach(cg_, HookOnlyOps("ra_defer",
                                            [&](CacheExtApi&,
                                                const ReadaheadCtx& ctx) {
                                              ++calls;
                                              offered += ctx.default_window;
                                              return int64_t{-1};
                                            }))
                  .ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);  // first touch: the heuristic offers no window
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
  ReadPage(lane, 1);  // sequential: the heuristic opens a 4-page window
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(offered, 4u);
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 4u);
  EXPECT_NE(as_->FindFolio(5), nullptr);
  EXPECT_EQ(as_->FindFolio(6), nullptr);
}

// --- the stride prefetcher policy ---------------------------------------------

TEST_F(PrefetchHookTest, StridePrefetcherConfirmsThenBoosts) {
  policies::PrefetchParams params;
  params.sequential_window = 8;
  params.confirm_after = 2;
  ASSERT_TRUE(
      loader_->Attach(cg_, policies::MakeStridePrefetcherOps(params)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);  // unknown stream: no prefetch
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
  ReadPage(lane, 1);  // run=1: still unconfirmed
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
  ReadPage(lane, 2);  // run=2: confirmed, full window immediately
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 8u);
  for (uint64_t i = 3; i <= 10; ++i) {
    EXPECT_NE(as_->FindFolio(i), nullptr) << i;
  }
}

TEST_F(PrefetchHookTest, StridePrefetcherIgnoresRandomStreams) {
  ASSERT_TRUE(
      loader_->Attach(cg_, policies::MakeStridePrefetcherOps()).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  const uint64_t pages[] = {5, 900, 44, 1300, 280, 77};
  for (const uint64_t page : pages) {
    ReadPage(lane, page);
  }
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
}

TEST_F(PrefetchHookTest, StridePrefetcherTracksStreamsPerThread) {
  policies::PrefetchParams params;
  params.sequential_window = 10;
  params.confirm_after = 2;
  ASSERT_TRUE(
      loader_->Attach(cg_, policies::MakeStridePrefetcherOps(params)).ok());
  // Two threads interleave different sequential streams; each must be
  // recognized independently ((mapping, tid) keys).
  Lane a(0, TaskContext{1, 100}, 1);
  Lane b(1, TaskContext{1, 200}, 2);
  for (uint64_t i = 0; i < 3; ++i) {
    ReadPage(a, 0 + i);
    ReadPage(b, 1000 + i);
  }
  EXPECT_NE(as_->FindFolio(5), nullptr);     // a's window
  EXPECT_NE(as_->FindFolio(1005), nullptr);  // b's window
}

TEST_F(PrefetchHookTest, EvictionStillFallsBackToDefault) {
  // The prefetcher leaves eviction to the kernel: pressure must still be
  // handled through the fallback without OOM.
  ASSERT_TRUE(
      loader_->Attach(cg_, policies::MakeStridePrefetcherOps()).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 3 * 512; ++i) {
    ReadPage(lane, i % 2000);
  }
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1);
  EXPECT_FALSE(pc_->StatsFor(cg_).oom_killed);
  EXPECT_GT(pc_->StatsFor(cg_).fallback_evictions, 0u);
}

TEST_F(PrefetchHookTest, FactoryKnowsThePrefetcher) {
  auto bundle = policies::MakePolicy("stride_prefetcher", {});
  ASSERT_TRUE(bundle.ok());
  EXPECT_TRUE(CacheExtLoader::Verify(bundle->ops).ok());
  // One readahead decision per miss run, through the per-run hook.
  EXPECT_NE(bundle->ops.readahead, nullptr);
}

TEST_F(PrefetchHookTest, StridePrefetcherDrivesTheReadaheadHook) {
  // The stride policy answers through `readahead`, the page cache's one
  // readahead hook.
  policies::PrefetchParams params;
  params.sequential_window = 4;
  params.confirm_after = 1;
  ASSERT_TRUE(
      loader_->Attach(cg_, policies::MakeStridePrefetcherOps(params)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  ReadPage(lane, 1);  // run=1: confirmed
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 4u);
}

}  // namespace
}  // namespace cache_ext
