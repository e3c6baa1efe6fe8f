// Edge-case and failure-injection tests across module boundaries:
// attach/detach lifecycles, policy switching, OOM behaviour details, LSM
// corner cases, shared files, and framework cleanup guarantees.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/cache_ext/loader.h"
#include "src/harness/env.h"
#include "src/harness/runner.h"
#include "src/lsm/db.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"

namespace cache_ext {
namespace {

Ops TrivialOps(std::string name) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  return ops;
}

class EdgeCaseTest : public ::testing::Test {
 protected:
  EdgeCaseTest() {
    ssd_ = std::make_unique<SsdModel>();
    PageCacheOptions options;
    options.max_readahead_pages = 0;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/edge", 64 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 1}, 42); }

  void TouchPages(Lane& lane, AddressSpace* as, uint64_t first,
                  uint64_t count) {
    std::vector<uint8_t> buf(64);
    for (uint64_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(
          pc_->Read(lane, as, cg_, i * kPageSize, std::span<uint8_t>(buf))
              .ok());
    }
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
};

// --- attach/detach lifecycle ---------------------------------------------------

TEST_F(EdgeCaseTest, AttachDetachAttachCycle) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 256 * kPageSize).ok());

  for (int cycle = 0; cycle < 3; ++cycle) {
    auto bundle = policies::MakePolicy("lfu", {});
    ASSERT_TRUE(bundle.ok());
    auto policy = loader_->Attach(cg_, std::move(bundle->ops));
    ASSERT_TRUE(policy.ok());
    TouchPages(lane, *as, static_cast<uint64_t>(cycle) * 100, 50);
    EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1);
    ASSERT_TRUE(loader_->Detach(cg_).ok());
    // After detach, the base policy must keep the cgroup healthy.
    TouchPages(lane, *as, static_cast<uint64_t>(cycle) * 100 + 50, 50);
    EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1);
  }
}

TEST_F(EdgeCaseTest, SwitchingPoliciesPreservesResidency) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 256 * kPageSize).ok());
  TouchPages(lane, *as, 0, 32);

  // default -> lfu -> s3fifo, folios survive the policy swaps.
  for (const char* name : {"lfu", "s3fifo"}) {
    const uint64_t resident_before = cg_->charged_pages();
    policies::PolicyParams params;
    params.capacity_pages = cg_->limit_pages();
    auto bundle = policies::MakePolicy(name, params);
    ASSERT_TRUE(bundle.ok());
    auto policy = loader_->Attach(cg_, std::move(bundle->ops));
    ASSERT_TRUE(policy.ok());
    EXPECT_EQ(cg_->charged_pages(), resident_before);
    // The fresh policy can immediately evict pre-existing folios.
    TouchPages(lane, *as, 100, 64);
    EXPECT_LE(cg_->charged_pages(), cg_->limit_pages() + 1);
    ASSERT_TRUE(loader_->Detach(cg_).ok());
  }
}

TEST_F(EdgeCaseTest, PolicyProgramsNotCalledAfterDetach) {
  int calls_after_detach = 0;
  bool detached = false;
  Ops ops = TrivialOps("counting");
  ops.folio_added = [&](CacheExtApi&, Folio*) {
    if (detached) {
      ++calls_after_detach;
    }
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  detached = true;
  TouchPages(lane, *as, 10, 4);
  EXPECT_EQ(calls_after_detach, 0);
}

// --- OOM details ---------------------------------------------------------------

TEST_F(EdgeCaseTest, OomIsStickyAndReportsOnSubsequentOps) {
  MemCgroup* tiny = pc_->CreateCgroup("/tiny", 2 * kPageSize);
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/pin");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 32 * kPageSize).ok());
  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(pc_->Read(lane, *as, tiny, 0, std::span<uint8_t>(buf)).ok());
  ASSERT_TRUE(
      pc_->Read(lane, *as, tiny, kPageSize, std::span<uint8_t>(buf)).ok());
  (*as)->FindFolio(0)->Pin();
  (*as)->FindFolio(1)->Pin();
  Status status = OkStatus();
  for (uint64_t i = 2; i < 16 && status.ok(); ++i) {
    status =
        pc_->Read(lane, *as, tiny, i * kPageSize, std::span<uint8_t>(buf));
  }
  ASSERT_EQ(status.code(), ErrorCode::kResourceExhausted);
  // Sticky: every subsequent op fails fast, including writes.
  EXPECT_EQ(pc_->Read(lane, *as, tiny, 0, std::span<uint8_t>(buf)).code(),
            ErrorCode::kResourceExhausted);
  const uint8_t byte = 1;
  EXPECT_EQ(pc_->Write(lane, *as, tiny, 0, std::span<const uint8_t>(&byte, 1))
                .code(),
            ErrorCode::kResourceExhausted);
  // Other cgroups are unaffected.
  EXPECT_TRUE(pc_->Read(lane, *as, cg_, 0, std::span<uint8_t>(buf)).ok());
  (*as)->FindFolio(0)->Unpin();
  (*as)->FindFolio(1)->Unpin();
}

// --- shared files across cgroups -------------------------------------------------

TEST_F(EdgeCaseTest, SharedFolioMetadataGoesToOwnersPolicy) {
  // Reader in cgroup B touching A-owned folios must drive A's policy hooks
  // (§2.1: "such an access will update the page's metadata").
  int owner_policy_accesses = 0;
  Ops ops = TrivialOps("owner_counter");
  ops.folio_accessed = [&](CacheExtApi&, Folio*) { ++owner_policy_accesses; };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  MemCgroup* other = pc_->CreateCgroup("/other", 64 * kPageSize);

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/shared");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 8 * kPageSize).ok());
  TouchPages(lane, *as, 0, 1);  // cg_ faults it in and owns it
  const int after_fault = owner_policy_accesses;

  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(pc_->Read(lane, *as, other, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(owner_policy_accesses, after_fault + 1);
  EXPECT_EQ(other->charged_pages(), 0u);
}

TEST_F(EdgeCaseTest, EvictionByOwnerAffectsSharingReader) {
  // cgroup A owns the folio; when A's pressure evicts it, a B reader must
  // refault it — and B then becomes the owner (first touch after eviction).
  MemCgroup* other = pc_->CreateCgroup("/other", 64 * kPageSize);
  Lane lane = MakeLane();
  auto shared = pc_->OpenFile("/shared");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(disk_.Truncate((*shared)->file(), 8 * kPageSize).ok());
  TouchPages(lane, *shared, 0, 1);
  ASSERT_EQ((*shared)->FindFolio(0)->memcg, cg_);

  // Drive A over its limit with another file until the shared folio dies.
  auto filler = pc_->OpenFile("/filler");
  ASSERT_TRUE(filler.ok());
  ASSERT_TRUE(disk_.Truncate((*filler)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *filler, 0, 200);
  ASSERT_EQ((*shared)->FindFolio(0), nullptr);

  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(pc_->Read(lane, *shared, other, 0, std::span<uint8_t>(buf)).ok());
  ASSERT_NE((*shared)->FindFolio(0), nullptr);
  EXPECT_EQ((*shared)->FindFolio(0)->memcg, other);
  EXPECT_EQ(other->charged_pages(), 1u);
}

// --- framework cleanup guarantees ------------------------------------------------

TEST_F(EdgeCaseTest, MisbehavingRemovalProgramStillCleansUp) {
  // folio_removed exhausts its budget without cleaning anything; the
  // framework must still unlink + unregister the folio (§4.4).
  Ops ops = TrivialOps("dirty_removal");
  ops.helper_budget = 8;
  uint64_t list_id = 0;
  ops.policy_init = [&list_id](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto list = api.ListCreate();
    if (!list.ok()) {
      return -1;
    }
    list_id = *list;
    return 0;
  };
  ops.folio_added = [&list_id](CacheExtApi& api, Folio* folio) {
    (void)api.ListAdd(list_id, folio, true);
  };
  ops.folio_removed = [](CacheExtApi& api, Folio*) {
    for (int i = 0; i < 100; ++i) {
      (void)api.CurrentTask();  // burn the budget, "forget" to clean up
    }
  };
  auto policy = loader_->Attach(cg_, std::move(ops));
  ASSERT_TRUE(policy.ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 8 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  EXPECT_EQ((*policy)->registry().Size(), 4u);
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ((*policy)->registry().Size(), 0u);
  EXPECT_GT((*policy)->aborted_programs(), 0u);
}

TEST_F(EdgeCaseTest, DeleteFileWhilePolicyHoldsFoliosOnLists) {
  // File deletion removes folios in circumvention of eviction; the policy's
  // lists must end up empty without its evict hook ever running.
  auto bundle = policies::MakePolicy("fifo", {});
  ASSERT_TRUE(bundle.ok());
  auto policy = loader_->Attach(cg_, std::move(bundle->ops));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/doomed");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 16 * kPageSize).ok());
  TouchPages(lane, *as, 0, 16);
  EXPECT_EQ((*policy)->registry().Size(), 16u);
  ASSERT_TRUE(pc_->DeleteFile(lane, *as).ok());
  EXPECT_EQ((*policy)->registry().Size(), 0u);
  EXPECT_EQ(cg_->charged_pages(), 0u);
}

// --- LSM corner cases --------------------------------------------------------------

class LsmEdgeTest : public ::testing::Test {
 protected:
  LsmEdgeTest() {
    ssd_ = std::make_unique<SsdModel>();
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), PageCacheOptions{});
    cg_ = pc_->CreateCgroup("/lsm", 2048 * kPageSize);
    lsm::DbOptions options;
    options.memtable_bytes = 8 * 1024;
    options.target_file_bytes = 16 * 1024;
    options.level_base_bytes = 32 * 1024;
    db_ = std::make_unique<lsm::LsmDb>(pc_.get(), cg_, "edge", options);
    lane_ = std::make_unique<Lane>(0, TaskContext{1, 1}, 5);
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  MemCgroup* cg_;
  std::unique_ptr<lsm::LsmDb> db_;
  std::unique_ptr<Lane> lane_;
};

TEST_F(LsmEdgeTest, EmptyDbBehaviour) {
  EXPECT_EQ(db_->Get(*lane_, "nothing").status().code(),
            ErrorCode::kNotFound);
  auto scan = db_->Scan(*lane_, "", 10);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->empty());
  EXPECT_TRUE(db_->Flush(*lane_).ok());  // flushing empty memtable: no-op
  EXPECT_EQ(db_->TotalDataBytes(), 0u);
}

TEST_F(LsmEdgeTest, EmptyValueAndBinaryKeys) {
  ASSERT_TRUE(db_->Put(*lane_, "empty", "").ok());
  const std::string binary_key("\x01\x00\xff\x7f", 4);
  ASSERT_TRUE(db_->Put(*lane_, binary_key, "bin").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  auto empty = db_->Get(*lane_, "empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
  auto bin = db_->Get(*lane_, binary_key);
  ASSERT_TRUE(bin.ok());
  EXPECT_EQ(*bin, "bin");
}

TEST_F(LsmEdgeTest, MultiPageValues) {
  // Values larger than a page must round-trip through block reads.
  const std::string big_value(3 * kPageSize + 123, 'v');
  ASSERT_TRUE(db_->Put(*lane_, "big", big_value).ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  auto v = db_->Get(*lane_, "big");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, big_value);
  // And via scan (segment-reader path).
  auto scan = db_->Scan(*lane_, "big", 1);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 1u);
  EXPECT_EQ((*scan)[0].value, big_value);
}

TEST_F(LsmEdgeTest, DeleteThenReinsertAcrossCompactions) {
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Put(*lane_,
                           "k" + std::to_string(i),
                           "r" + std::to_string(round))
                      .ok());
    }
    for (int i = 0; i < 200; i += 2) {
      ASSERT_TRUE(db_->Delete(*lane_, "k" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db_->Flush(*lane_).ok());
  }
  for (int i = 0; i < 200; ++i) {
    auto v = db_->Get(*lane_, "k" + std::to_string(i));
    if (i % 2 == 0) {
      EXPECT_EQ(v.status().code(), ErrorCode::kNotFound) << i;
    } else {
      ASSERT_TRUE(v.ok()) << i;
      EXPECT_EQ(*v, "r2");
    }
  }
}

TEST_F(LsmEdgeTest, ScanFromBeyondLastKey) {
  ASSERT_TRUE(db_->Put(*lane_, "a", "1").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  auto scan = db_->Scan(*lane_, "zzz", 10);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->empty());
}

TEST_F(LsmEdgeTest, CompactionDeletesObsoleteFilesFromDisk) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db_->Put(*lane_, "key" + std::to_string(i % 300), std::string(64, 'x'))
            .ok());
  }
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  ASSERT_GT(db_->compactions_run(), 0u);
  // Disk usage stays bounded: obsolete SSTables are deleted, so total file
  // bytes are within a small multiple of the live data.
  EXPECT_LT(disk_.TotalBytes(), 16 * db_->TotalDataBytes() + (1 << 20));
}

}  // namespace
}  // namespace cache_ext
