// Tests for BPF-guided multi-order folio admission (PR 8 tentpole): the
// admit_order hook's plumbing through the page cache, the automatic
// fallbacks to order 0 (misalignment, memcg pressure, span conflicts,
// invalid orders), partial-invalidate splits, and the readahead.misfire
// fault's containment by the max_readahead_pages clamp.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bpf/ir/compile.h"
#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/ir_policies.h"

namespace cache_ext {
namespace {

// Minimal required hooks plus a fixed-order admit_order program.
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

class FolioOrderTest : public ::testing::Test {
 protected:
  FolioOrderTest() {
    ssd_ = std::make_unique<SsdModel>();
    PageCacheOptions options;
    options.max_readahead_pages = 8;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/order", 512 * kPageSize);
    auto as = pc_->OpenFile("/data");
    CHECK(as.ok());
    as_ = *as;
    CHECK(disk_.Truncate(as_->file(), 2048 * kPageSize).ok());
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

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

TEST_F(FolioOrderTest, Order4MissFaultsWholeSpan) {
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  Folio* head = as_->FindFolio(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->order, 4);
  EXPECT_EQ(head->nr_pages(), 16u);
  // A mid-span lookup resolves to the same folio; the whole span is
  // resident and charged.
  EXPECT_EQ(as_->FindFolio(15), head);
  EXPECT_EQ(as_->FindFolio(16), nullptr);
  EXPECT_EQ(cg_->charged_pages(), 16u);
  auto stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.ext_order_folios, 1u);
  EXPECT_EQ(stats.ext_order_pages, 16u);
  EXPECT_EQ(cg_->stat_misses.load(), 1u);

  // The rest of the span now hits without further misses — ONE hit event
  // per folio per read call, not one per page.
  ReadPage(lane, 7);
  ReadPage(lane, 12);
  EXPECT_EQ(cg_->stat_misses.load(), 1u);
  EXPECT_EQ(cg_->stat_hits.load(), 2u);
}

TEST_F(FolioOrderTest, Order4SpanReadsBackDiskContents) {
  // Data integrity across the span: bytes written through the write path
  // land in the right pages of a multi-order folio.
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  const std::string payload = "span-page-five";
  ASSERT_TRUE(pc_->Write(lane, as_, cg_, 5 * kPageSize + 7,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(payload.data()),
                             payload.size()))
                  .ok());
  ASSERT_TRUE(pc_->SyncFile(lane, as_).ok());
  // Drop everything, then fault the span back in via a read.
  ASSERT_TRUE(pc_->FadviseRange(lane, as_, cg_, Fadvise::kDontNeed, 0,
                                2048 * kPageSize)
                  .ok());
  std::vector<uint8_t> buf(payload.size());
  ASSERT_TRUE(pc_->Read(lane, as_, cg_, 5 * kPageSize + 7,
                        std::span<uint8_t>(buf))
                  .ok());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), payload);
}

TEST_F(FolioOrderTest, MisalignedIndexFallsBackToOrder0) {
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 5);  // 5 & 15 != 0
  Folio* folio = as_->FindFolio(5);
  ASSERT_NE(folio, nullptr);
  EXPECT_EQ(folio->order, 0);
  EXPECT_EQ(folio->nr_pages(), 1u);
  auto stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.ext_order_folios, 0u);
  EXPECT_GE(stats.ext_order_fallbacks, 1u);
}

TEST_F(FolioOrderTest, SpanConflictFallsBackToOrder0) {
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o2", 2)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 18);  // order-0 resident inside the would-be span [16, 20)
  ReadPage(lane, 16);  // aligned, but index 18 already has a folio
  Folio* folio = as_->FindFolio(16);
  ASSERT_NE(folio, nullptr);
  EXPECT_EQ(folio->nr_pages(), 1u);
  EXPECT_GE(pc_->StatsFor(cg_).ext_order_fallbacks, 1u);
}

TEST_F(FolioOrderTest, MemcgPressureFallsBackToOrder0) {
  // A cgroup whose entire limit is smaller than one order-4 folio: the
  // allocation must degrade rather than blow through the limit.
  MemCgroup* tiny = pc_->CreateCgroup("/tiny", 8 * kPageSize);
  ASSERT_TRUE(loader_->Attach(tiny, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(
      pc_->Read(lane, as_, tiny, 0, std::span<uint8_t>(buf)).ok());
  Folio* folio = as_->FindFolio(0);
  ASSERT_NE(folio, nullptr);
  EXPECT_EQ(folio->nr_pages(), 1u);
  auto stats = pc_->StatsFor(tiny);
  EXPECT_EQ(stats.ext_order_folios, 0u);
  EXPECT_GE(stats.ext_order_fallbacks, 1u);
}

TEST_F(FolioOrderTest, InvalidOrderFallsBackAndTripsBreaker) {
  // Order 3 is not in the {0, 2, 4} set: every return is a violation. The
  // page cache still works (order-0 folios), and the order hook's circuit
  // breaker trips once the violation rate is established, after which the
  // hook degrades to the order-0 default without running the program.
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o3", 3)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  for (uint64_t i = 0; i < 32; ++i) {
    ReadPage(lane, i * 16);  // aligned: only the invalid order blocks it
  }
  Folio* folio = as_->FindFolio(0);
  ASSERT_NE(folio, nullptr);
  EXPECT_EQ(folio->nr_pages(), 1u);
  auto stats = pc_->StatsFor(cg_);
  EXPECT_NE(stats.ext_degraded_hook_mask &
                PolicyHookBit(PolicyHook::kOrder),
            0u);
  EXPECT_GE(
      stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kOrder)],
      1u);
  EXPECT_EQ(stats.ext_order_folios, 0u);
}

TEST_F(FolioOrderTest, EofOverrunFallsBackToOrder0) {
  MemCgroup* cg2 = pc_->CreateCgroup("/eof", 512 * kPageSize);
  ASSERT_TRUE(loader_->Attach(cg2, OrderOps("o4", 4)).ok());
  auto as = pc_->OpenFile("/short");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 20 * kPageSize).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  std::vector<uint8_t> buf(64);
  // Index 16 is aligned, but [16, 32) runs past the 20-page file.
  ASSERT_TRUE(pc_->Read(lane, *as, cg2, 16 * kPageSize,
                        std::span<uint8_t>(buf))
                  .ok());
  Folio* folio = (*as)->FindFolio(16);
  ASSERT_NE(folio, nullptr);
  EXPECT_EQ(folio->nr_pages(), 1u);
  EXPECT_GE(pc_->StatsFor(cg2).ext_order_fallbacks, 1u);
}

TEST_F(FolioOrderTest, DontNeedMidSpanSplitsFolio) {
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  ASSERT_EQ(as_->FindFolio(0)->nr_pages(), 16u);

  // Drop the middle [4, 8) of the order-4 folio: the folio is split — the
  // dropped subpages go away, the kept ones survive as order-0 folios.
  ASSERT_TRUE(pc_->FadviseRange(lane, as_, cg_, Fadvise::kDontNeed,
                                4 * kPageSize, 4 * kPageSize)
                  .ok());
  EXPECT_EQ(as_->FindFolio(5), nullptr);
  Folio* kept_low = as_->FindFolio(2);
  Folio* kept_high = as_->FindFolio(12);
  ASSERT_NE(kept_low, nullptr);
  ASSERT_NE(kept_high, nullptr);
  EXPECT_EQ(kept_low->nr_pages(), 1u);
  EXPECT_EQ(kept_high->nr_pages(), 1u);
  auto stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.ext_order_splits, 1u);
  // 16 charged at fault, 4 dropped by the invalidate.
  EXPECT_EQ(cg_->charged_pages(), 12u);

  // Kept pages still serve reads as hits; dropped pages re-fault.
  const uint64_t misses_before = cg_->stat_misses.load();
  ReadPage(lane, 2);
  EXPECT_EQ(cg_->stat_misses.load(), misses_before);
  ReadPage(lane, 5);
  EXPECT_EQ(cg_->stat_misses.load(), misses_before + 1);
}

TEST_F(FolioOrderTest, DontNeedWholeSpanDropsItWithoutSplit) {
  ASSERT_TRUE(loader_->Attach(cg_, OrderOps("o4", 4)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  ASSERT_TRUE(pc_->FadviseRange(lane, as_, cg_, Fadvise::kDontNeed, 0,
                                16 * kPageSize)
                  .ok());
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(as_->FindFolio(i), nullptr) << i;
  }
  auto stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.ext_order_splits, 0u);
  EXPECT_EQ(cg_->charged_pages(), 0u);
}

TEST_F(FolioOrderTest, ReadaheadMisfireContainedByClamp) {
  // The misfire fault makes the readahead hook "return" a wild window; the
  // max_readahead_pages clamp must contain it and count the clamp.
  Ops ops = OrderOps("misfire", 0);
  ops.readahead = [](CacheExtApi&, const ReadaheadCtx&) -> int64_t {
    return 2;
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  fault::FaultSchedule s;
  s.on_nth = 1;  // first dispatch; magnitude 0 -> the 1<<32 default
  fault::FaultInjector::Global().Arm(fault::points::kReadaheadMisfire, s);
  Lane lane(0, TaskContext{1, 1}, 1);
  ReadPage(lane, 0);
  auto stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.readahead_pages, 8u);  // clamped to max_readahead_pages
  EXPECT_EQ(stats.ext_readahead_clamped, 1u);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FolioOrderTest, IrReadaheadPolicyDrivesBothHooks) {
  // End-to-end through the IR pipeline: the ir_readahead policy's verified
  // programs select multi-order folios and boost sequential windows.
  auto ops = bpf::ir::CompileToOps(policies::IrReadaheadPolicy());
  ASSERT_TRUE(ops.ok());
  ASSERT_TRUE(loader_->Attach(cg_, std::move(*ops)).ok());
  Lane lane(0, TaskContext{1, 1}, 1);
  std::vector<uint8_t> buf(32 * kPageSize);
  // A 32-page read: nr_requested >= 16 at an aligned index -> order 4.
  ASSERT_TRUE(pc_->Read(lane, as_, cg_, 0, std::span<uint8_t>(buf)).ok());
  Folio* head = as_->FindFolio(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->nr_pages(), 16u);
  EXPECT_GE(pc_->StatsFor(cg_).ext_order_folios, 1u);
}

}  // namespace
}  // namespace cache_ext
