// Behavioural tests for the eight cache_ext policies (§5), driven through a
// real page cache with the loader, plus hit-rate ordering property tests.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/classic.h"
#include "src/policies/lhd.h"
#include "src/policies/mglru_ext.h"
#include "src/policies/policy_factory.h"
#include "src/policies/s3fifo.h"
#include "src/util/rng.h"
#include "src/workloads/distributions.h"

namespace cache_ext {
namespace {

using policies::MakePolicy;
using policies::PolicyParams;

constexpr uint64_t kLimitPages = 32;

class PolicyHarness {
 public:
  PolicyHarness() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 0;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/policy", kLimitPages * kPageSize);
    auto as = pc_->OpenFile("/data");
    CHECK(as.ok());
    as_ = *as;
    CHECK(disk_.Truncate(as_->file(), 4096 * kPageSize).ok());
    lane_ = std::make_unique<Lane>(0, TaskContext{500, 500}, 0x715);
  }

  void Attach(std::string_view name, PolicyParams params = {}) {
    params.capacity_pages = kLimitPages;
    auto bundle = MakePolicy(name, params);
    CHECK(bundle.ok());
    agent_ = bundle->agent;
    auto attached = loader_->Attach(cg_, std::move(bundle->ops));
    CHECK(attached.ok());
  }

  // Read one page; returns true if it was a hit.
  bool Touch(uint64_t page, Lane* lane = nullptr) {
    const bool was_resident = as_->FindFolio(page) != nullptr;
    std::vector<uint8_t> buf(64);
    Status s = pc_->Read(lane != nullptr ? *lane : *lane_, as_, cg_,
                         page * kPageSize, std::span<uint8_t>(buf));
    CHECK(s.ok());
    return was_resident;
  }

  bool Resident(uint64_t page) const { return as_->FindFolio(page) != nullptr; }

  // Hit rate over a generated access trace.
  double MeasureHitRate(const std::vector<uint64_t>& trace) {
    uint64_t hits = 0;
    for (const uint64_t page : trace) {
      if (Touch(page)) {
        ++hits;
      }
      if (agent_ != nullptr) {
        ++ops_;
        if (ops_ % 512 == 0) {
          agent_->Poll();
        }
      }
    }
    return static_cast<double>(hits) / static_cast<double>(trace.size());
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
  AddressSpace* as_;
  std::unique_ptr<Lane> lane_;
  std::shared_ptr<policies::UserspaceAgent> agent_;
  uint64_t ops_ = 0;
};

// --- FIFO ---------------------------------------------------------------

TEST(FifoPolicyTest, EvictsInInsertionOrder) {
  PolicyHarness h;
  h.Attach("fifo");
  // Fill the cache, then keep touching page 0 (FIFO ignores accesses).
  for (uint64_t i = 0; i < kLimitPages; ++i) {
    h.Touch(i);
  }
  for (int i = 0; i < 10; ++i) {
    h.Touch(0);
  }
  // Insert new pages; the oldest inserted (page 0) must go first even
  // though it is the hottest.
  for (uint64_t i = kLimitPages; i < kLimitPages + 8; ++i) {
    h.Touch(i);
  }
  EXPECT_FALSE(h.Resident(0));
  EXPECT_TRUE(h.Resident(kLimitPages + 7));
}

// --- MRU ----------------------------------------------------------------

TEST(MruPolicyTest, EvictsMostRecentFirst) {
  PolicyHarness h;
  h.Attach("mru");
  for (uint64_t i = 0; i < kLimitPages; ++i) {
    h.Touch(i);
  }
  // Pressure: insert more. MRU evicts the most recently used (skipping a
  // few freshest), so the OLDEST pages survive.
  for (uint64_t i = kLimitPages; i < kLimitPages + 16; ++i) {
    h.Touch(i);
  }
  uint64_t old_resident = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (h.Resident(i)) {
      ++old_resident;
    }
  }
  EXPECT_GE(old_resident, 6u);  // early pages survive under MRU
}

TEST(MruPolicyTest, BeatsLruShapedPolicyOnCyclicScan) {
  // The Fig. 9 mechanism in miniature: cyclic scan over 1.5x the cache.
  const uint64_t scan_pages = kLimitPages * 3 / 2;
  std::vector<uint64_t> trace;
  for (int pass = 0; pass < 8; ++pass) {
    for (uint64_t i = 0; i < scan_pages; ++i) {
      trace.push_back(i);
    }
  }
  PolicyHarness mru;
  mru.Attach("mru");
  const double mru_hits = mru.MeasureHitRate(trace);

  PolicyHarness lru;  // no ext policy: default two-list LRU
  const double lru_hits = lru.MeasureHitRate(trace);

  EXPECT_GT(mru_hits, lru_hits + 0.2)
      << "mru=" << mru_hits << " lru=" << lru_hits;
}

// --- LFU ----------------------------------------------------------------

TEST(LfuPolicyTest, KeepsFrequentPagesUnderPressure) {
  PolicyHarness h;
  h.Attach("lfu");
  // Pages [0, 8) are hot: touch many times.
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 8; ++i) {
      h.Touch(i);
    }
  }
  // Sweep a large cold range through the cache.
  for (uint64_t i = 100; i < 100 + 3 * kLimitPages; ++i) {
    h.Touch(i);
  }
  uint64_t hot_resident = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (h.Resident(i)) {
      ++hot_resident;
    }
  }
  EXPECT_EQ(hot_resident, 8u);
}

TEST(LfuPolicyTest, BeatsDefaultOnZipfian) {
  workloads::ScrambledZipfianGenerator zipf(kLimitPages * 12, 0.99);
  Rng rng(21);
  std::vector<uint64_t> trace;
  for (int i = 0; i < 20000; ++i) {
    trace.push_back(zipf.Next(rng));
  }
  PolicyHarness lfu;
  lfu.Attach("lfu");
  const double lfu_hits = lfu.MeasureHitRate(trace);
  PolicyHarness lru;
  const double lru_hits = lru.MeasureHitRate(trace);
  EXPECT_GT(lfu_hits, lru_hits) << "lfu=" << lfu_hits << " lru=" << lru_hits;
}

// --- S3-FIFO -------------------------------------------------------------

TEST(S3FifoPolicyTest, GhostKeyStableAcrossResidency) {
  Folio folio;
  AddressSpace as(7, 1, "/x");
  folio.mapping = &as;
  folio.index = 42;
  const uint64_t key1 = policies::S3FifoGhostKey(&folio);
  Folio folio2;  // different folio object, same logical page
  folio2.mapping = &as;
  folio2.index = 42;
  EXPECT_EQ(key1, policies::S3FifoGhostKey(&folio2));
  folio2.index = 43;
  EXPECT_NE(key1, policies::S3FifoGhostKey(&folio2));
}

TEST(S3FifoPolicyTest, FiltersOneHitWonders) {
  PolicyHarness h;
  h.Attach("s3fifo");
  // Hot set accessed repeatedly.
  for (int round = 0; round < 6; ++round) {
    for (uint64_t i = 0; i < 8; ++i) {
      h.Touch(i);
    }
  }
  // Stream of one-hit wonders (each page touched exactly once).
  for (uint64_t i = 1000; i < 1000 + 4 * kLimitPages; ++i) {
    h.Touch(i);
  }
  uint64_t hot_resident = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (h.Resident(i)) {
      ++hot_resident;
    }
  }
  // The small FIFO absorbed the scan; hot pages live in the main FIFO.
  EXPECT_GE(hot_resident, 6u);
}

TEST(S3FifoPolicyTest, GhostReadmissionGoesToMainQueue) {
  PolicyHarness h;
  h.Attach("s3fifo");
  // Page 5 is accessed once, evicted by a scan, then comes back: the ghost
  // hit should protect it from the next scan.
  h.Touch(5);
  for (uint64_t i = 1000; i < 1000 + 2 * kLimitPages; ++i) {
    h.Touch(i);  // evicts page 5 from the small FIFO -> ghost entry
  }
  ASSERT_FALSE(h.Resident(5));
  h.Touch(5);  // readmission -> main FIFO
  ASSERT_TRUE(h.Resident(5));
  // A further one-hit-wonder stream must not displace it quickly: the
  // stream churns the small FIFO.
  for (uint64_t i = 2000; i < 2000 + kLimitPages; ++i) {
    h.Touch(i);
  }
  EXPECT_TRUE(h.Resident(5));
}

// --- LHD -----------------------------------------------------------------

TEST(LhdPolicyTest, ReconfigurationRunsViaAgent) {
  policies::LhdParams params;
  params.capacity_pages = kLimitPages;
  params.reconfig_interval = 64;  // small so the test triggers it
  auto bundle = policies::MakeLhdPolicy(params);
  ASSERT_NE(bundle.agent, nullptr);

  PolicyHarness h;
  auto attached = h.loader_->Attach(h.cg_, std::move(bundle.ops));
  ASSERT_TRUE(attached.ok());
  for (uint64_t i = 0; i < 200; ++i) {
    h.Touch(i % 50);
  }
  bundle.agent->Poll();  // consumes the ringbuf notification, reconfigures
  // After reconfiguration the policy still evicts sanely.
  for (uint64_t i = 300; i < 300 + 2 * kLimitPages; ++i) {
    h.Touch(i);
  }
  EXPECT_LE(h.cg_->charged_pages(), kLimitPages);
}

TEST(LhdPolicyTest, PrefersKeepingHotPages) {
  workloads::ScrambledZipfianGenerator zipf(kLimitPages * 12, 0.99);
  Rng rng(77);
  std::vector<uint64_t> trace;
  for (int i = 0; i < 20000; ++i) {
    trace.push_back(zipf.Next(rng));
  }
  PolicyHarness lhd;
  lhd.Attach("lhd");
  const double lhd_hits = lhd.MeasureHitRate(trace);
  PolicyHarness lru;
  const double lru_hits = lru.MeasureHitRate(trace);
  EXPECT_GT(lhd_hits, lru_hits - 0.02)
      << "lhd=" << lhd_hits << " lru=" << lru_hits;
}

// --- MGLRU on cache_ext ----------------------------------------------------

TEST(MglruExtPolicyTest, EvictsColdKeepsCapacity) {
  PolicyHarness h;
  h.Attach("mglru_ext");
  for (uint64_t i = 0; i < 4 * kLimitPages; ++i) {
    h.Touch(i);
  }
  EXPECT_LE(h.cg_->charged_pages(), kLimitPages);
  EXPECT_GT(h.cg_->stat_evictions.load(), 0u);
}

TEST(MglruExtPolicyTest, TracksNativeMglruHitRate) {
  // Table 5's shape: the two implementations behave very similarly.
  workloads::ScrambledZipfianGenerator zipf(kLimitPages * 12, 0.99);
  Rng rng(31);
  std::vector<uint64_t> trace;
  for (int i = 0; i < 30000; ++i) {
    trace.push_back(zipf.Next(rng));
  }

  PolicyHarness ext;
  ext.Attach("mglru_ext");
  const double ext_hits = ext.MeasureHitRate(trace);

  // Native MGLRU baseline.
  SimDisk disk;
  SsdModel ssd;
  PageCacheOptions options;
  options.max_readahead_pages = 0;
  PageCache pc(&disk, &ssd, options);
  MemCgroup* cg =
      pc.CreateCgroup("/native", kLimitPages * kPageSize,
                      BasePolicyKind::kMglru);
  auto as = pc.OpenFile("/data");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk.Truncate((*as)->file(), 4096 * kPageSize).ok());
  Lane lane(0, TaskContext{1, 1}, 5);
  uint64_t hits = 0;
  std::vector<uint8_t> buf(64);
  for (const uint64_t page : trace) {
    if ((*as)->FindFolio(page) != nullptr) {
      ++hits;
    }
    ASSERT_TRUE(
        pc.Read(lane, *as, cg, page * kPageSize, std::span<uint8_t>(buf)).ok());
  }
  const double native_hits =
      static_cast<double>(hits) / static_cast<double>(trace.size());
  EXPECT_NEAR(ext_hits, native_hits, 0.10)
      << "ext=" << ext_hits << " native=" << native_hits;
}

// --- GET-SCAN ---------------------------------------------------------------

TEST(GetScanPolicyTest, ScanFoliosSacrificedFirst) {
  PolicyHarness h;
  PolicyParams params;
  params.scan_pids = {777};
  h.Attach("get_scan", params);

  Lane get_lane(1, TaskContext{500, 501}, 1);
  Lane scan_lane(2, TaskContext{777, 778}, 2);

  // GET pages faulted by the normal lane.
  for (uint64_t i = 0; i < 16; ++i) {
    h.Touch(i, &get_lane);
    h.Touch(i, &get_lane);
  }
  // SCAN stream from the scan PID pollutes the cache.
  for (uint64_t i = 1000; i < 1000 + 3 * kLimitPages; ++i) {
    h.Touch(i, &scan_lane);
  }
  uint64_t get_resident = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    if (h.Resident(i)) {
      ++get_resident;
    }
  }
  // GET folios survive: scans evict their own list first (Fig. 5).
  EXPECT_GE(get_resident, 14u);
}

TEST(GetScanPolicyTest, GetListEvictedUnderRealPressure) {
  PolicyHarness h;
  PolicyParams params;
  params.scan_pids = {777};
  h.Attach("get_scan", params);
  Lane get_lane(1, TaskContext{500, 501}, 1);
  // Only GET traffic, more than the cache: must still stay within limits.
  for (uint64_t i = 0; i < 3 * kLimitPages; ++i) {
    h.Touch(i, &get_lane);
  }
  EXPECT_LE(h.cg_->charged_pages(), kLimitPages);
}

// --- Admission filter ---------------------------------------------------------

TEST(AdmissionFilterPolicyTest, CompactionTidBypassesCache) {
  PolicyHarness h;
  PolicyParams params;
  params.filter_tids = {9000};
  h.Attach("admission_filter", params);

  Lane normal(1, TaskContext{500, 501}, 1);
  Lane compaction(2, TaskContext{9000, 9000}, 2);

  h.Touch(0, &normal);
  EXPECT_TRUE(h.Resident(0));
  h.Touch(1, &compaction);
  EXPECT_FALSE(h.Resident(1));  // serviced like direct I/O
  EXPECT_GT(h.pc_->StatsFor(h.cg_).direct_reads, 0u);
  // But the compaction thread can still *hit* pages cached by others.
  EXPECT_TRUE(h.Touch(0, &compaction));
}

// --- noop --------------------------------------------------------------------

TEST(NoopPolicyTest, DefersToDefaultEviction) {
  PolicyHarness h;
  h.Attach("noop");
  for (uint64_t i = 0; i < 3 * kLimitPages; ++i) {
    h.Touch(i);
  }
  EXPECT_LE(h.cg_->charged_pages(), kLimitPages);
  // All evictions came through the fallback path.
  EXPECT_GT(h.pc_->StatsFor(h.cg_).fallback_evictions, 0u);
  EXPECT_FALSE(h.pc_->StatsFor(h.cg_).oom_killed);
}

// --- factory ------------------------------------------------------------------

TEST(PolicyFactoryTest, AllAdvertisedPoliciesConstruct) {
  for (const auto name : policies::AvailablePolicies()) {
    PolicyParams params;
    params.capacity_pages = 128;
    auto bundle = MakePolicy(name, params);
    ASSERT_TRUE(bundle.ok()) << name;
    EXPECT_TRUE(CacheExtLoader::Verify(bundle->ops).ok()) << name;
    EXPECT_EQ(bundle->ops.name, name);
  }
}

TEST(PolicyFactoryTest, UnknownPolicyRejected) {
  EXPECT_FALSE(MakePolicy("belady", {}).ok());
}

// --- cross-policy property: capacity invariant -------------------------------

class PolicyCapacityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyCapacityTest, NeverExceedsCgroupLimit) {
  PolicyHarness h;
  PolicyParams params;
  params.scan_pids = {42};
  params.filter_tids = {43};
  h.Attach(GetParam(), params);
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    h.Touch(rng.NextU64Below(8 * kLimitPages));
    EXPECT_LE(h.cg_->charged_pages(), kLimitPages + 1);
  }
  EXPECT_FALSE(h.pc_->StatsFor(h.cg_).oom_killed);
  EXPECT_FALSE(h.pc_->StatsFor(h.cg_).ext_detached_by_watchdog);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyCapacityTest,
                         ::testing::Values("noop", "fifo", "mru", "lfu",
                                           "s3fifo", "lhd", "mglru_ext",
                                           "get_scan", "admission_filter"));

}  // namespace
}  // namespace cache_ext
