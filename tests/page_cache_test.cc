// Integration-level tests for the PageCache core: read/write paths, data
// integrity, charging and reclaim, fadvise semantics, readahead, file
// deletion, cross-cgroup accesses, OOM, and virtual-time accounting.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/pagecache/page_cache.h"

namespace cache_ext {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest() {
    SsdModelOptions ssd_options;
    ssd_options.channels = 2;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_options.bytes_per_us = 4096;  // ~4 bytes per ns
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 4;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    cg_ = pc_->CreateCgroup("/test", 64 * kPageSize);
  }

  Lane MakeLane(int id = 0) {
    return Lane(static_cast<uint32_t>(id), TaskContext{100, 100 + id},
                0xABC + static_cast<uint64_t>(id));
  }

  std::string ReadString(Lane& lane, AddressSpace* as, uint64_t offset,
                         size_t len, MemCgroup* cg = nullptr) {
    std::vector<uint8_t> buf(len);
    Status s = pc_->Read(lane, as, cg != nullptr ? cg : cg_, offset,
                         std::span<uint8_t>(buf));
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::string(buf.begin(), buf.end());
  }

  void WriteString(Lane& lane, AddressSpace* as, uint64_t offset,
                   std::string_view data, MemCgroup* cg = nullptr) {
    Status s = pc_->Write(
        lane, as, cg != nullptr ? cg : cg_, offset,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(data.data()), data.size()));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  MemCgroup* cg_;
};

TEST_F(PageCacheTest, WriteThenReadRoundTrip) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, "hello page cache");
  EXPECT_EQ(ReadString(lane, *as, 0, 16), "hello page cache");
  EXPECT_EQ(ReadString(lane, *as, 6, 4), "page");
}

TEST_F(PageCacheTest, OpenFileIsIdempotent) {
  auto a = pc_->OpenFile("/f");
  auto b = pc_->OpenFile("/f");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(PageCacheTest, MissThenHitAccounting) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, std::string(kPageSize, 'x'));
  cg_->ResetStats();

  ReadString(lane, *as, 0, 100);  // hit (page resident from the write)
  EXPECT_EQ(cg_->stat_hits.load(), 1u);
  EXPECT_EQ(cg_->stat_misses.load(), 0u);

  ReadString(lane, *as, 8 * kPageSize, 100);  // miss (beyond extent, zeroes)
  EXPECT_EQ(cg_->stat_misses.load(), 1u);
}

TEST_F(PageCacheTest, MissChargesDeviceTimeHitDoesNot) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 16 * kPageSize).ok());

  const uint64_t before_miss = lane.now_ns();
  ReadString(lane, *as, 0, 64);
  const uint64_t miss_cost = lane.now_ns() - before_miss;
  EXPECT_GE(miss_cost, 1000u);  // at least the device base latency

  const uint64_t before_hit = lane.now_ns();
  ReadString(lane, *as, 0, 64);
  const uint64_t hit_cost = lane.now_ns() - before_hit;
  EXPECT_LT(hit_cost, 2000u);  // pure CPU (syscall + hit + hook costs)
  EXPECT_LT(hit_cost, miss_cost);
}

TEST_F(PageCacheTest, ContiguousMissesBatchIntoOneDeviceRead) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  const uint64_t reads_before = ssd_->total_reads();
  std::vector<uint8_t> buf(8 * kPageSize);
  ASSERT_TRUE(pc_->Read(lane, *as, cg_, 0, std::span<uint8_t>(buf)).ok());
  // One merged read covers the 8-page run (plus possibly one readahead IO).
  EXPECT_LE(ssd_->total_reads() - reads_before, 2u);
}

TEST_F(PageCacheTest, CgroupLimitEnforcedViaReclaim) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/big");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 1024 * kPageSize).ok());
  // Touch 4x the cgroup's 64-page limit.
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(
        pc_->Read(lane, *as, cg_, i * kPageSize, std::span<uint8_t>(buf)).ok());
    EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1)
        << "page " << i;  // +1: the in-flight pinned folio
  }
  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  EXPECT_EQ(pc_->TotalResidentPages(), cg_->charged_pages());
}

TEST_F(PageCacheTest, DirtyFoliosWrittenBackOnEviction) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  // Dirty 3x the limit; evictions must flush to the device.
  const std::string page(kPageSize, 'd');
  for (uint64_t i = 0; i < 192; ++i) {
    WriteString(lane, *as, i * kPageSize, page);
  }
  EXPECT_GT(ssd_->total_writes(), 0u);
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_GT(stats.writeback_pages, 0u);
  // Data integrity after writeback + eviction.
  EXPECT_EQ(ReadString(lane, *as, 0, kPageSize), page);
}

TEST_F(PageCacheTest, SyncFileFlushesDirtyPages) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, "dirty data");
  const uint64_t writes_before = ssd_->total_writes();
  const uint64_t now_before = lane.now_ns();
  ASSERT_TRUE(pc_->SyncFile(lane, *as).ok());
  EXPECT_EQ(ssd_->total_writes(), writes_before + 1);
  EXPECT_GT(lane.now_ns(), now_before);  // fsync waits
  // Second sync: nothing dirty.
  ASSERT_TRUE(pc_->SyncFile(lane, *as).ok());
  EXPECT_EQ(ssd_->total_writes(), writes_before + 1);
}

TEST_F(PageCacheTest, SequentialReadsTriggerReadahead) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/seq");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        pc_->Read(lane, *as, cg_, i * kPageSize, std::span<uint8_t>(buf)).ok());
  }
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_GT(stats.readahead_pages, 0u);
}

TEST_F(PageCacheTest, SequentialReadaheadStopsAtEndOfFile) {
  // A sequential read of a whole 8-page file reads ahead 4 pages after page
  // 1 and then only page 7: nothing past the last page is cached or charged.
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/short");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 8 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        pc_->Read(lane, *as, cg_, i * kPageSize, std::span<uint8_t>(buf)).ok());
  }
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 5u);
  EXPECT_EQ((*as)->nr_resident(), 8u);
  EXPECT_EQ(cg_->charged_pages(), 8u);
  EXPECT_EQ((*as)->FindFolio(8), nullptr);
}

TEST_F(PageCacheTest, FadvRandomDisablesReadahead) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/rand");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kRandom, 0, 0).ok());
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        pc_->Read(lane, *as, cg_, i * kPageSize, std::span<uint8_t>(buf)).ok());
  }
  EXPECT_EQ(pc_->StatsFor(cg_).readahead_pages, 0u);
}

TEST_F(PageCacheTest, FadvDontNeedInvalidatesRange) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, std::string(4 * kPageSize, 'x'));
  ASSERT_EQ((*as)->nr_resident(), 4u);
  ASSERT_TRUE(pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0,
                                2 * kPageSize)
                  .ok());
  EXPECT_EQ((*as)->nr_resident(), 2u);
  EXPECT_GT(pc_->StatsFor(cg_).invalidations, 0u);
  // DONTNEED does not leave shadow entries; data still correct from disk.
  EXPECT_EQ(ReadString(lane, *as, 0, 4), "xxxx");
}

TEST_F(PageCacheTest, FadvWillNeedPrefetches) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 16 * kPageSize).ok());
  ASSERT_TRUE(pc_->FadviseRange(lane, *as, cg_, Fadvise::kWillNeed, 0,
                                8 * kPageSize)
                  .ok());
  EXPECT_EQ((*as)->nr_resident(), 8u);
  cg_->ResetStats();
  ReadString(lane, *as, 0, kPageSize);
  EXPECT_EQ(cg_->stat_misses.load(), 0u);  // prefetched -> hit
  // A range that runs past the end of the file stops at its last page.
  ASSERT_TRUE(pc_->FadviseRange(lane, *as, cg_, Fadvise::kWillNeed,
                                12 * kPageSize, 8 * kPageSize)
                  .ok());
  EXPECT_EQ((*as)->nr_resident(), 12u);
  EXPECT_EQ((*as)->FindFolio(16), nullptr);
}

TEST_F(PageCacheTest, FadvNoReuseMarksFoliosDropBehind) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, std::string(kPageSize, 'x'));
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kNoReuse, 0, 0).ok());
  Folio* existing = (*as)->FindFolio(0);
  ASSERT_NE(existing, nullptr);
  EXPECT_TRUE(existing->TestFlag(kFolioDropBehind));
  // Future insertions inherit the hint.
  ReadString(lane, *as, 4 * kPageSize, 1);
  Folio* fresh = (*as)->FindFolio(4);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->TestFlag(kFolioDropBehind));
}

TEST_F(PageCacheTest, FadvNormalClearsHints) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kSequential, 0, 0).ok());
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kNoReuse, 0, 0).ok());
  ASSERT_TRUE(pc_->FadviseRange(lane, *as, cg_, Fadvise::kNormal, 0, 0).ok());
  EXPECT_FALSE((*as)->ra_sequential_hint);
  EXPECT_FALSE((*as)->noreuse_hint);
}

TEST_F(PageCacheTest, DeleteFileRemovesEverything) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/doomed");
  ASSERT_TRUE(as.ok());
  WriteString(lane, *as, 0, std::string(4 * kPageSize, 'x'));
  const uint64_t charged_before = cg_->charged_pages();
  ASSERT_TRUE(pc_->DeleteFile(lane, *as).ok());
  EXPECT_EQ(cg_->charged_pages(), charged_before - 4);
  EXPECT_FALSE(disk_.Exists("/doomed"));
  // Reopening creates a fresh empty file.
  auto again = pc_->OpenFile("/doomed");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->nr_resident(), 0u);
}

TEST_F(PageCacheTest, RefaultActivationAfterQuickReeviction) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/ws");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 1024 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  // Cycle far more pages than the limit to force evictions with shadows.
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(pc_->Read(lane, *as, cg_, (i % 256) * kPageSize,
                          std::span<uint8_t>(buf))
                    .ok());
  }
  EXPECT_GT(cg_->stat_refaults.load(), 0u);
}

TEST_F(PageCacheTest, CrossCgroupAccessChargesOwnerOnly) {
  Lane lane = MakeLane();
  MemCgroup* other = pc_->CreateCgroup("/other", 64 * kPageSize);
  auto as = pc_->OpenFile("/shared");
  ASSERT_TRUE(as.ok());
  // cg_ faults the page in and owns it.
  WriteString(lane, *as, 0, "shared data");
  const uint64_t owner_charge = cg_->charged_pages();
  ASSERT_EQ(other->charged_pages(), 0u);

  // A process in `other` reads the same page: hit, owner keeps the charge,
  // and the *owner's* hit counter moves.
  cg_->ResetStats();
  ReadString(lane, *as, 0, 4, other);
  EXPECT_EQ(other->charged_pages(), 0u);
  EXPECT_EQ(cg_->charged_pages(), owner_charge);
  EXPECT_EQ(cg_->stat_hits.load(), 1u);
}

TEST_F(PageCacheTest, OomKillsWhenNothingReclaimable) {
  // A tiny cgroup where every folio is pinned cannot reclaim.
  MemCgroup* tiny = pc_->CreateCgroup("/tiny", 2 * kPageSize);
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/pinned");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  // No readahead: with a 2-page cgroup, speculative prefetch would evict
  // the very pages this test wants to pin.
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, tiny, Fadvise::kRandom, 0, 0).ok());
  // Pin each page immediately after faulting it in.
  ASSERT_TRUE(pc_->Read(lane, *as, tiny, 0, std::span<uint8_t>(buf)).ok());
  Folio* folio0 = (*as)->FindFolio(0);
  ASSERT_NE(folio0, nullptr);
  folio0->Pin();
  ASSERT_TRUE(
      pc_->Read(lane, *as, tiny, kPageSize, std::span<uint8_t>(buf)).ok());
  Folio* folio1 = (*as)->FindFolio(1);
  ASSERT_NE(folio1, nullptr);
  folio1->Pin();
  Status status = OkStatus();
  for (uint64_t i = 2; i < 32 && status.ok(); ++i) {
    status = pc_->Read(lane, *as, tiny, i * kPageSize, std::span<uint8_t>(buf));
  }
  EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(pc_->StatsFor(tiny).oom_killed);
  EXPECT_GT(tiny->stat_oom_events.load(), 0u);
  folio0->Unpin();
  folio1->Unpin();
}

// An OOM-killed cgroup gets no new pages from FADV_WILLNEED either: like
// Read and Write, the hint fails with ResourceExhausted and inserts
// nothing (reclaim does nothing for a killed cgroup, so pages charged here
// would stay over the limit for good).
TEST_F(PageCacheTest, FadvWillNeedOnOomKilledCgroupInsertsNothing) {
  MemCgroup* tiny = pc_->CreateCgroup("/tiny", 2 * kPageSize);
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/pinned");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, tiny, Fadvise::kRandom, 0, 0).ok());
  std::vector<uint8_t> buf(kPageSize);
  std::vector<Folio*> pinned;
  Status status = OkStatus();
  for (uint64_t i = 0; i < 32 && status.ok(); ++i) {
    status = pc_->Read(lane, *as, tiny, i * kPageSize, std::span<uint8_t>(buf));
    if (Folio* folio = (*as)->FindFolio(i); folio != nullptr && i < 2) {
      folio->Pin();  // nothing reclaimable once both pages are pinned
      pinned.push_back(folio);
    }
  }
  ASSERT_EQ(status.code(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(pc_->StatsFor(tiny).oom_killed);
  const uint64_t charged = tiny->charged_pages();
  const uint64_t resident = (*as)->nr_resident();

  EXPECT_EQ(pc_->FadviseRange(lane, *as, tiny, Fadvise::kWillNeed,
                              8 * kPageSize, 32 * kPageSize)
                .code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(tiny->charged_pages(), charged);
  EXPECT_EQ((*as)->nr_resident(), resident);
  EXPECT_EQ(pc_->StatsFor(tiny).readahead_pages, 0u);
  for (Folio* folio : pinned) {
    folio->Unpin();
  }
}

// A gifted write reaches the device without a copy, and the folios the
// write inserts share the device's run: each byte lives in one place. A
// later write re-points only the cached page it covers.
TEST_F(PageCacheTest, GiftedWriteSharesOneBufferWithTheCache) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/gift");
  ASSERT_TRUE(as.ok());
  std::string bytes(3 * kPageSize, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>('a' + i % 26);
  }
  std::string model = bytes;
  const char* data = bytes.data();
  ASSERT_TRUE(pc_->Write(lane, *as, cg_, 0, std::move(bytes)).ok());
  const auto run_data = [&](uint64_t page) -> const char* {
    Folio* folio = (*as)->FindFolio(page);
    EXPECT_NE(folio, nullptr) << "page " << page;
    if (folio == nullptr) {
      return nullptr;
    }
    const DiskRun* run = folio->PageRef(page).load();
    return run == nullptr ? nullptr : run->bytes().data();
  };
  for (uint64_t page = 0; page < 3; ++page) {
    EXPECT_EQ(run_data(page), data) << "page " << page;
  }
  EXPECT_EQ(ReadString(lane, *as, 0, model.size()), model);

  const std::string patch(100, 'P');
  WriteString(lane, *as, kPageSize + 10, patch);
  model.replace(kPageSize + 10, patch.size(), patch);
  EXPECT_NE(run_data(1), data);
  EXPECT_EQ(run_data(0), data);
  EXPECT_EQ(run_data(2), data);
  EXPECT_EQ(ReadString(lane, *as, 0, model.size()), model);
}

TEST_F(PageCacheTest, ZeroLengthOpsAreNoops) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  EXPECT_TRUE(pc_->Read(lane, *as, cg_, 0, {}).ok());
  EXPECT_TRUE(pc_->Write(lane, *as, cg_, 0, std::span<const uint8_t>()).ok());
  EXPECT_EQ(lane.now_ns(), 0u);
}

TEST_F(PageCacheTest, NullArgumentsRejected) {
  Lane lane = MakeLane();
  std::vector<uint8_t> buf(8);
  EXPECT_FALSE(pc_->Read(lane, nullptr, cg_, 0, std::span<uint8_t>(buf)).ok());
  auto as = pc_->OpenFile("/f");
  EXPECT_FALSE(
      pc_->Read(lane, *as, nullptr, 0, std::span<uint8_t>(buf)).ok());
}

TEST_F(PageCacheTest, UnalignedReadSpanningPages) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  std::string data(3 * kPageSize, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i % 26));
  }
  WriteString(lane, *as, 0, data);
  const std::string middle =
      ReadString(lane, *as, kPageSize - 10, 20);  // spans pages 0-1
  EXPECT_EQ(middle, data.substr(kPageSize - 10, 20));
}

}  // namespace
}  // namespace cache_ext
