// Tests for the asynchronous batched writeback pipeline (ISSUE 9):
// per-cgroup dirty accounting + derived thresholds, harvest/coalesce into
// contiguous extents, the background flusher lane and writer throttling,
// fsync durability (including concurrent fsyncs), the writeback.* chaos
// faults, and the should_writeback / writeback_order policy hooks end to
// end through the IR pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/bpf/ir/compile.h"
#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/ir_policies.h"
#include "src/writeback/dirty.h"
#include "src/writeback/flusher.h"

namespace cache_ext {
namespace {

using writeback::DirtyLimits;
using writeback::DirtySpec;
using writeback::FlushExtent;
using writeback::FlushItem;

// --- DirtyLimits ---------------------------------------------------------

TEST(DirtyLimitsTest, DeriveIsTotalOverHostileSpecs) {
  const uint64_t limits[] = {2, 3, 5, 63, 64, 1000, 1ull << 20, 1ull << 40};
  const DirtySpec specs[] = {
      {0, 0},           // zero ratios
      {102, 205},       // defaults
      {1024, 1024},     // 100% / 100%
      {500, 100},       // inverted
      {5000, 9000},     // > 100%
      {1, 2},           // tiny
  };
  for (uint64_t limit : limits) {
    for (const DirtySpec& spec : specs) {
      const DirtyLimits dl = DirtyLimits::Derive(limit, spec);
      ASSERT_TRUE(dl.Valid())
          << "limit=" << limit << " bg=" << spec.bg_per_1024
          << " dirty=" << spec.dirty_per_1024;
      EXPECT_GE(dl.bg_pages, 1u);
      EXPECT_LT(dl.bg_pages, dl.dirty_pages);
      EXPECT_LE(dl.dirty_pages, limit);
    }
  }
  // A cgroup too small to carve two thresholds out of stays fsync-only.
  EXPECT_FALSE(DirtyLimits::Derive(0, DirtySpec{}).Valid());
  EXPECT_FALSE(DirtyLimits::Derive(1, DirtySpec{}).Valid());
}

TEST(DirtyLimitsTest, ThresholdPredicatesMatchDerivedPages) {
  const DirtyLimits dl = DirtyLimits::Derive(64, DirtySpec{});
  EXPECT_EQ(dl.bg_pages, 6u);      // 64 * 102 / 1024
  EXPECT_EQ(dl.dirty_pages, 12u);  // 64 * 205 / 1024
  EXPECT_FALSE(dl.NeedsWake(6));
  EXPECT_TRUE(dl.NeedsWake(7));
  EXPECT_FALSE(dl.NeedsThrottle(12));
  EXPECT_TRUE(dl.NeedsThrottle(13));
  EXPECT_TRUE(dl.TargetReached(6));
  EXPECT_FALSE(dl.TargetReached(7));
}

// --- Sort + coalesce -----------------------------------------------------
// SortFlushItems/SortAndCoalesce never dereference the mapping of
// same-mapping items, so a null mapping is a fine stand-in here.

TEST(FlushPlanTest, KeyedItemsFlushFirstInKeyOrder) {
  std::vector<FlushItem> items = {
      {nullptr, 10, 1, -1, nullptr},
      {nullptr, 3, 1, 5, nullptr},
      {nullptr, 0, 1, -1, nullptr},
      {nullptr, 4, 1, 2, nullptr},
  };
  writeback::SortFlushItems(items);
  EXPECT_EQ(items[0].index, 4u);   // key 2
  EXPECT_EQ(items[1].index, 3u);   // key 5
  EXPECT_EQ(items[2].index, 0u);   // unkeyed: file-offset order
  EXPECT_EQ(items[3].index, 10u);
}

TEST(FlushPlanTest, CoalesceMergesContiguousRuns) {
  std::vector<FlushItem> items;
  for (uint64_t idx : {16, 1, 9, 0, 3, 2, 8}) {
    items.push_back({nullptr, idx, 1, -1, nullptr});
  }
  const std::vector<FlushExtent> extents =
      writeback::SortAndCoalesce(items, 256);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].index, 0u);
  EXPECT_EQ(extents[0].nr_pages, 4u);  // 0..3
  EXPECT_EQ(extents[1].index, 8u);
  EXPECT_EQ(extents[1].nr_pages, 2u);  // 8..9
  EXPECT_EQ(extents[2].index, 16u);
  EXPECT_EQ(extents[2].nr_pages, 1u);
}

TEST(FlushPlanTest, CoalesceRespectsExtentCapAcrossFolioSpans) {
  std::vector<FlushItem> items = {
      {nullptr, 8, 4, -1, nullptr},  // three order-2 folios
      {nullptr, 0, 4, -1, nullptr},
      {nullptr, 4, 4, -1, nullptr},
  };
  const std::vector<FlushExtent> extents =
      writeback::SortAndCoalesce(items, 8);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].index, 0u);
  EXPECT_EQ(extents[0].nr_pages, 8u);  // merged up to the cap
  EXPECT_EQ(extents[1].index, 8u);
  EXPECT_EQ(extents[1].nr_pages, 4u);
}

// --- Page-cache rig ------------------------------------------------------

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::unique_ptr<CacheExtLoader> loader;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
};

std::unique_ptr<Rig> MakeRig(const PageCacheOptions& options,
                             uint64_t limit_pages) {
  auto rig = std::make_unique<Rig>();
  rig->ssd = std::make_unique<SsdModel>();
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());
  rig->cg = rig->pc->CreateCgroup("/wb", limit_pages * kPageSize);
  auto as = rig->pc->OpenFile("/data");
  CHECK(as.ok());
  rig->as = *as;
  CHECK(rig->disk.Truncate(rig->as->file(), 4096 * kPageSize).ok());
  return rig;
}

uint8_t PatternByte(uint64_t index) {
  return static_cast<uint8_t>(0x30 + (index * 7) % 97);
}

void WritePage(Rig& rig, Lane& lane, uint64_t index) {
  std::vector<uint8_t> buf(kPageSize, PatternByte(index));
  ASSERT_TRUE(rig.pc
                  ->Write(lane, rig.as, rig.cg, index * kPageSize,
                          std::span<const uint8_t>(buf))
                  .ok());
}

void ExpectPageContents(Rig& rig, Lane& lane, uint64_t index) {
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(rig.pc
                  ->Read(lane, rig.as, rig.cg, index * kPageSize,
                         std::span<uint8_t>(buf))
                  .ok());
  EXPECT_EQ(buf.front(), PatternByte(index));
  EXPECT_EQ(buf.back(), PatternByte(index));
}

// Minimal required hooks plus a fixed-order admit_order program (the
// folio_order_test idiom) — used to force multi-order dirty folios.
Ops OrderOps(std::string name, uint32_t order) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  ops.admit_order = [order](CacheExtApi&, const AdmitOrderCtx&) {
    return order;
  };
  return ops;
}

class WritebackTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }
};

// --- fsync + dirty gauge (background off: the historical semantics) ------

TEST_F(WritebackTest, FsyncDrainsGaugeAndCoalescesContiguousPages) {
  auto rig = MakeRig(PageCacheOptions{}, 256);
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 8; ++i) {
    WritePage(*rig, lane, i);
  }
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 8u);
  EXPECT_EQ(stats.writeback_pages, 0u);
  const uint64_t writes_before = rig->ssd->total_writes();
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.writeback_pages, 8u);
  EXPECT_EQ(stats.writeback_sync_entries, 1u);
  // Eight contiguous dirty pages coalesce into ONE device write.
  EXPECT_EQ(rig->ssd->total_writes(), writes_before + 1);
  // fsync waited out the device: the caller's clock covers the completion.
  EXPECT_GE(lane.now_ns(),
            rig->as->wb_last_completion_ns.load(std::memory_order_relaxed));
  // A second fsync with nothing dirty touches the device not at all.
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  EXPECT_EQ(rig->ssd->total_writes(), writes_before + 1);
}

TEST_F(WritebackTest, BackgroundOffNeverWakesTheFlusher) {
  auto rig = MakeRig(PageCacheOptions{}, 256);
  Lane lane(0, TaskContext{1, 1}, 1);
  // Far past both derived thresholds (bg=25, dirty=51 at this limit): with
  // the ablation off nothing wakes, nothing throttles — the gauge still
  // tracks.
  for (uint64_t i = 0; i < 64; ++i) {
    WritePage(*rig, lane, i);
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 64u);
  EXPECT_EQ(stats.writeback_pages, 0u);
  EXPECT_EQ(stats.writeback_wakeups, 0u);
  EXPECT_EQ(stats.writeback_flush_ticks, 0u);
  EXPECT_EQ(stats.writeback_throttle_entries, 0u);
  EXPECT_EQ(stats.ext_writeback_ns, 0u);
  EXPECT_EQ(stats.ext_dirty_throttle_ns, 0u);
}

// --- Background flusher --------------------------------------------------

TEST_F(WritebackTest, BackgroundFlusherDrainsPastBackgroundThreshold) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 256);  // derived: bg = 25, dirty = 51
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 40; ++i) {
    WritePage(*rig, lane, i);
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_GE(stats.writeback_wakeups, 1u);
  EXPECT_GE(stats.writeback_flush_ticks, 1u);
  EXPECT_GE(stats.writeback_extents, 1u);
  EXPECT_GE(stats.writeback_pages, 26u);
  // Every page is either still dirty or was flushed — none lost.
  EXPECT_EQ(stats.dirty_pages + stats.writeback_pages, 40u);
  // The flushing CPU landed on the flusher's lane, and the flusher kept
  // the cgroup under the dirty ratio, so no writer ever stalled.
  EXPECT_GT(stats.ext_writeback_ns, 0u);
  EXPECT_EQ(stats.writeback_throttle_entries, 0u);
  EXPECT_EQ(stats.ext_dirty_throttle_ns, 0u);
  // Background-flushed folios stay resident and readable.
  ExpectPageContents(*rig, lane, 3);
}

TEST_F(WritebackTest, WriterThrottlesWhenFlusherCannotKeepUp) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 64);
  rig->cg->SetDirtyRatios(16, 32);  // derived: bg = 1 page, dirty = 2 pages
  // Wedge the flusher so the dirty pool cannot drain: the writer must hit
  // the balance_dirty_pages analogue.
  fault::ScopedFault stall(fault::points::kWritebackStall,
                           {.on_nth = 1, .magnitude = 100000});
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 8; ++i) {
    WritePage(*rig, lane, i);
  }
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_GE(stats.writeback_throttle_entries, 1u);
  EXPECT_GT(stats.ext_dirty_throttle_ns, 0u);
  EXPECT_GE(stats.writeback_stalled_ticks, 1u);
  EXPECT_EQ(stats.dirty_pages, 8u);  // the wedged lane made no progress
  EXPECT_EQ(stats.writeback_pages, 0u);
  // The throttle is bounded (kMaxThrottleRounds): the writes completed
  // anyway, and fsync stays a durability backstop independent of the lane.
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.writeback_pages, 8u);
}

// --- Chaos ---------------------------------------------------------------

TEST_F(WritebackTest, Chaos_StalledFlusherHealsAndDrains) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 256);  // bg = 25
  fault::ScopedFault stall(fault::points::kWritebackStall,
                           {.on_nth = 1, .magnitude = 2});
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 30; ++i) {
    WritePage(*rig, lane, i);
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // Two wedged ticks, then the lane healed and the next kick drained.
  EXPECT_EQ(stats.writeback_stalled_ticks, 2u);
  EXPECT_GE(stats.writeback_pages, 28u);
  EXPECT_LE(stats.dirty_pages, 2u);
  EXPECT_EQ(stats.dirty_pages + stats.writeback_pages, 30u);
}

TEST_F(WritebackTest, Chaos_LostWakeupIsRediscoveredByNextDirtying) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 256);  // bg = 25
  fault::ScopedFault lost(fault::points::kWritebackLostWakeup, {.on_nth = 1});
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 30; ++i) {
    WritePage(*rig, lane, i);
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // The first threshold crossing was dropped (latch left unarmed); the
  // next dirtying operation rediscovered the pressure and drained.
  EXPECT_EQ(stats.writeback_lost_wakeups, 1u);
  EXPECT_EQ(stats.writeback_wakeups, 1u);
  EXPECT_GE(stats.writeback_pages, 27u);
  EXPECT_EQ(stats.dirty_pages + stats.writeback_pages, 30u);
}

TEST_F(WritebackTest, Chaos_PartialFlushRevertsRemainderThenFsyncIsDurable) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 256);
  rig->cg->SetDirtyRatios(112, 900);  // derived: bg = 28, dirty = 225
  fault::ScopedFault partial(fault::points::kWritebackPartialFlush,
                             {.on_nth = 1});
  Lane lane(0, TaskContext{1, 1}, 1);
  // Two discontiguous dirty runs -> the waking tick plans two extents.
  for (uint64_t i = 0; i < 16; ++i) {
    WritePage(*rig, lane, i);
  }
  for (uint64_t i = 100; i < 116; ++i) {
    WritePage(*rig, lane, i);
  }
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // The tick died after its first extent: run 1 flushed; run 2 reverted to
  // dirty (and requeued) instead of leaking in the in-flight window.
  EXPECT_EQ(stats.writeback_partial_flushes, 1u);
  EXPECT_EQ(stats.writeback_extents, 1u);
  EXPECT_EQ(stats.writeback_pages, 16u);
  EXPECT_EQ(stats.dirty_pages, 16u);
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.writeback_pages, 32u);
  Folio* reverted = rig->as->FindFolio(100);
  ASSERT_NE(reverted, nullptr);
  EXPECT_FALSE(reverted->TestFlag(kFolioDirty));
  EXPECT_FALSE(reverted->TestFlag(kFolioWriteback));
}

// --- Multi-order split keeps kept pages dirty (satellite) ----------------

TEST_F(WritebackTest, PartialInvalidateSplitKeepsKeptPagesDirty) {
  auto rig = MakeRig(PageCacheOptions{}, 512);
  ASSERT_TRUE(rig->loader->Attach(rig->cg, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  // One 16-page write -> one order-4 dirty folio.
  std::vector<uint8_t> buf(16 * kPageSize);
  for (uint64_t i = 0; i < 16; ++i) {
    std::fill_n(buf.begin() + i * kPageSize, kPageSize, PatternByte(i));
  }
  ASSERT_TRUE(
      rig->pc->Write(lane, rig->as, rig->cg, 0, std::span<const uint8_t>(buf))
          .ok());
  Folio* head = rig->as->FindFolio(0);
  ASSERT_NE(head, nullptr);
  ASSERT_EQ(head->nr_pages(), 16u);
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 16u);
  // DONTNEED pages [4, 8): the folio splits. The dropped subrange is
  // flushed inline; the kept subpages must stay DIRTY — a split must not
  // launder them clean or a later fsync would miss them.
  ASSERT_TRUE(rig->pc
                  ->FadviseRange(lane, rig->as, rig->cg, Fadvise::kDontNeed,
                                 4 * kPageSize, 4 * kPageSize)
                  .ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.ext_order_splits, 1u);
  EXPECT_EQ(stats.writeback_pages, 4u);  // the dropped range, inline
  EXPECT_EQ(stats.dirty_pages, 12u);     // both kept halves stay dirty
  EXPECT_EQ(rig->as->FindFolio(5), nullptr);
  Folio* kept_lo = rig->as->FindFolio(2);
  ASSERT_NE(kept_lo, nullptr);
  EXPECT_TRUE(kept_lo->TestFlag(kFolioDirty));
  Folio* kept_hi = rig->as->FindFolio(12);
  ASSERT_NE(kept_hi, nullptr);
  EXPECT_TRUE(kept_hi->TestFlag(kFolioDirty));
  // fsync after the split covers every kept page.
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.writeback_pages, 16u);
  ExpectPageContents(*rig, lane, 12);
}

// --- Concurrent fsync durability (satellite) -----------------------------

TEST_F(WritebackTest, ConcurrentFsyncsBothObserveDurability) {
  auto rig = MakeRig(PageCacheOptions{}, 256);
  Lane writer(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 64; ++i) {
    WritePage(*rig, writer, i);
  }
  // Two racing fsyncs of the same file: whichever clears a folio's dirty
  // bit flushes it; the other must still WAIT for that in-flight write
  // (wb_seq protocol) before reporting durability.
  Lane l1(1, TaskContext{1, 2}, 11);
  Lane l2(2, TaskContext{1, 3}, 12);
  std::thread t1([&] { EXPECT_TRUE(rig->pc->SyncFile(l1, rig->as).ok()); });
  std::thread t2([&] { EXPECT_TRUE(rig->pc->SyncFile(l2, rig->as).ok()); });
  t1.join();
  t2.join();
  const uint64_t completion =
      rig->as->wb_last_completion_ns.load(std::memory_order_relaxed);
  EXPECT_GT(completion, 0u);
  EXPECT_GE(l1.now_ns(), completion);
  EXPECT_GE(l2.now_ns(), completion);
  EXPECT_EQ(rig->as->wb_seq_done.load(std::memory_order_relaxed),
            rig->as->wb_seq_started.load(std::memory_order_relaxed));
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  // Exactly-once flushing: the dirty-bit TestClear races resolve to one
  // winner per folio, so the total never double-counts.
  EXPECT_EQ(stats.writeback_pages, 64u);
  for (uint64_t i = 0; i < 64; ++i) {
    Folio* folio = rig->as->FindFolio(i);
    ASSERT_NE(folio, nullptr);
    EXPECT_FALSE(folio->TestFlag(kFolioDirty));
    EXPECT_FALSE(folio->TestFlag(kFolioWriteback));
  }
}

// --- Reclaim hands dirty victims' writeback CPU to the flusher lane ------

TEST_F(WritebackTest, BackgroundWritebackOffloadsDirtyEvictionCpu) {
  // Identical over-limit write workloads; only the writeback mode differs.
  // The wedged flusher keeps every eviction victim dirty, so the comparison
  // isolates WHERE the eviction-time writeback CPU is charged.
  auto rig_off = MakeRig(PageCacheOptions{}, 64);
  Lane writer_off(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 192; ++i) {
    WritePage(*rig_off, writer_off, i);
  }
  const CgroupCacheStats stats_off = rig_off->pc->StatsFor(rig_off->cg);

  PageCacheOptions bg_options;
  bg_options.writeback.background = true;
  auto rig_on = MakeRig(bg_options, 64);
  rig_on->cg->SetDirtyRatios(1024, 1024);  // bg = 63, dirty = 64
  fault::ScopedFault stall(fault::points::kWritebackStall,
                           {.on_nth = 1, .magnitude = 1000000});
  Lane writer_on(1, TaskContext{1, 1}, 2);
  for (uint64_t i = 0; i < 192; ++i) {
    WritePage(*rig_on, writer_on, i);
  }
  const CgroupCacheStats stats_on = rig_on->pc->StatsFor(rig_on->cg);

  // Both runs evicted (and wrote back) the same dirty pages...
  EXPECT_GT(stats_off.writeback_pages, 0u);
  EXPECT_EQ(stats_on.writeback_pages, stats_off.writeback_pages);
  // ...but inline mode charged the writeback CPU to the allocating writer,
  // while background mode handed it to the cgroup's flusher lane.
  EXPECT_EQ(stats_off.ext_writeback_ns, 0u);
  EXPECT_GT(stats_on.ext_writeback_ns, 0u);
  EXPECT_EQ(stats_on.writeback_throttle_entries, 0u);
  EXPECT_LT(writer_on.now_ns(), writer_off.now_ns());
}

// --- should_writeback / writeback_order through the IR pipeline ----------

TEST_F(WritebackTest, IrWbLsmPolicyDefersColdSmallBlocksUntilPressure) {
  PageCacheOptions options;
  options.writeback.background = true;
  auto rig = MakeRig(options, 256);
  rig->cg->SetDirtyRatios(64, 1024);  // derived: bg = 16, dirty = 256
  auto ops = bpf::ir::CompileToOps(policies::IrWbLsmPolicy());
  ASSERT_TRUE(ops.ok()) << ops.status().message();
  ASSERT_TRUE(rig->loader->Attach(rig->cg, std::move(*ops)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 80; ++i) {
    WritePage(*rig, lane, i);
  }
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // Small cold blocks under mild pressure are vetoed by should_writeback
  // (they stay dirty, awaiting coalescing)...
  EXPECT_GT(stats.writeback_deferred_pages, 0u);
  // ...until the dirty pool crosses the program's 64-page pressure bound,
  // after which each tick flushes down to exactly that bound.
  EXPECT_EQ(stats.writeback_pages, 16u);
  EXPECT_EQ(stats.dirty_pages, 64u);
  // fsync bypasses the veto (durability beats policy): everything drains.
  ASSERT_TRUE(rig->pc->SyncFile(lane, rig->as).ok());
  stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.writeback_pages, 80u);
}

}  // namespace
}  // namespace cache_ext
