// White-box tests for policy internals driven directly through the
// framework adapter (no page cache): S3-FIFO queue balancing and ghost
// semantics, MGLRU-ext generation mechanics, LHD scoring/reconfiguration,
// and GET-SCAN list routing.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache_ext/framework.h"
#include "src/mm/address_space.h"
#include "src/pagecache/current_task.h"
#include "src/policies/lhd.h"
#include "src/policies/mglru_ext.h"
#include "src/policies/policy_factory.h"
#include "src/policies/s3fifo.h"

namespace cache_ext {
namespace {

// Drives a CacheExtPolicy adapter directly: "inserts" folios, "accesses"
// them, and asks for eviction candidates — the page cache's role, minus the
// data path.
class PolicyDriver {
 public:
  explicit PolicyDriver(Ops ops, uint64_t limit_pages = 256)
      : cg_(1, "/driver", limit_pages),
        policy_(std::move(ops), &cg_, CpuCostModel{}),
        as_(1, 1, "/driver_file") {
    CHECK(policy_.Init().ok());
  }

  Folio* Add(uint64_t index) {
    folios_.push_back(std::make_unique<Folio>());
    Folio* folio = folios_.back().get();
    folio->mapping = &as_;
    folio->index = index;
    folio->memcg = &cg_;
    policy_.FolioAdded(folio);
    return folio;
  }

  void Access(Folio* folio) { policy_.FolioAccessed(folio); }

  void Remove(Folio* folio) { policy_.FolioRemoved(folio); }

  std::vector<Folio*> Evict(uint64_t n) {
    EvictionCtx ctx;
    ctx.nr_candidates_requested = n;
    policy_.EvictFolios(&ctx, &cg_);
    return {ctx.candidates.begin(),
            ctx.candidates.begin() + ctx.nr_candidates_proposed};
  }

  CacheExtPolicy& policy() { return policy_; }
  AddressSpace& mapping() { return as_; }

 private:
  MemCgroup cg_;
  CacheExtPolicy policy_;
  AddressSpace as_;
  std::vector<std::unique_ptr<Folio>> folios_;
};

// --- S3-FIFO ----------------------------------------------------------------

TEST(S3FifoInternalsTest, NewFoliosStartInSmallQueue) {
  policies::S3FifoParams params;
  params.capacity_pages = 256;
  PolicyDriver driver(policies::MakeS3FifoOps(params));
  // Fill only a little: small queue above its 10% share, so eviction works
  // the small queue first, in FIFO order.
  std::vector<Folio*> added;
  for (uint64_t i = 0; i < 10; ++i) {
    added.push_back(driver.Add(i));
  }
  const auto victims = driver.Evict(3);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], added[0]);
  EXPECT_EQ(victims[1], added[1]);
}

TEST(S3FifoInternalsTest, TwiceAccessedFoliosPromoteToMain) {
  policies::S3FifoParams params;
  params.capacity_pages = 256;
  PolicyDriver driver(policies::MakeS3FifoOps(params));
  Folio* hot = driver.Add(0);
  driver.Access(hot);
  driver.Access(hot);  // freq 2 > promote_threshold 1
  for (uint64_t i = 1; i < 12; ++i) {
    driver.Add(i);
  }
  const auto victims = driver.Evict(4);
  // The hot folio is promoted to the main queue during the scan, not
  // proposed; the one-hit wonders are.
  for (Folio* victim : victims) {
    EXPECT_NE(victim, hot);
  }
}

TEST(S3FifoInternalsTest, GhostReadmissionSkipsSmallQueue) {
  policies::S3FifoParams params;
  params.capacity_pages = 256;
  PolicyDriver driver(policies::MakeS3FifoOps(params));
  Folio* once = driver.Add(7);
  for (uint64_t i = 100; i < 120; ++i) {
    driver.Add(i);
  }
  // Evict `once` from the small queue -> ghost entry.
  auto victims = driver.Evict(8);
  ASSERT_FALSE(victims.empty());
  ASSERT_EQ(victims[0], once);
  driver.Remove(once);

  // Readmit the same (mapping, index): goes straight to main. Eviction
  // pressure on the small queue must not touch it.
  Folio* again = driver.Add(7);
  for (uint64_t i = 200; i < 230; ++i) {
    driver.Add(i);
  }
  victims = driver.Evict(16);
  for (Folio* victim : victims) {
    EXPECT_NE(victim, again);
  }
}

// --- MGLRU-on-cache_ext -------------------------------------------------------

TEST(MglruExtInternalsTest, EvictsOldestInsertionOrderWhenCold) {
  PolicyDriver driver(policies::MakeMglruExtOps({.capacity_pages = 256}));
  std::vector<Folio*> added;
  for (uint64_t i = 0; i < 8; ++i) {
    added.push_back(driver.Add(i));
  }
  const auto victims = driver.Evict(3);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], added[0]);
  EXPECT_EQ(victims[1], added[1]);
  EXPECT_EQ(victims[2], added[2]);
}

TEST(MglruExtInternalsTest, RefaultedFolioJoinsYoungGeneration) {
  PolicyDriver driver(policies::MakeMglruExtOps({.capacity_pages = 256}));
  Folio* first = driver.Add(5);
  for (uint64_t i = 100; i < 108; ++i) {
    driver.Add(i);
  }
  auto victims = driver.Evict(1);
  ASSERT_EQ(victims.size(), 1u);
  ASSERT_EQ(victims[0], first);
  driver.Remove(first);  // ghost entry for (mapping, 5)

  // Readmission is a refault: the folio joins the youngest generation, so
  // the next eviction takes older folios first.
  Folio* again = driver.Add(5);
  victims = driver.Evict(4);
  ASSERT_FALSE(victims.empty());
  for (Folio* victim : victims) {
    EXPECT_NE(victim, again);
  }
}

TEST(MglruExtInternalsTest, CleansMapStateOnRemoval) {
  PolicyDriver driver(policies::MakeMglruExtOps({.capacity_pages = 64}));
  // Churn far more folios than the meta-map capacity would tolerate if
  // removal leaked entries (map capacity = 2*64+16 = 144).
  for (uint64_t i = 0; i < 1000; ++i) {
    Folio* folio = driver.Add(i);
    driver.Access(folio);
    driver.Remove(folio);
  }
  // Still able to track fresh folios (Update would fail if the map leaked).
  Folio* fresh = driver.Add(5000);
  driver.Access(fresh);
  driver.Access(fresh);
  const auto victims = driver.Evict(1);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], fresh);  // only folio present
}

// --- LHD ------------------------------------------------------------------------

TEST(LhdInternalsTest, EvictsNeverHitBeforeFrequentlyHit) {
  policies::LhdParams params;
  params.capacity_pages = 256;
  params.reconfig_interval = 64;
  auto bundle = policies::MakeLhdPolicy(params);
  PolicyDriver driver(std::move(bundle.ops));

  std::vector<Folio*> hot;
  std::vector<Folio*> cold;
  for (uint64_t i = 0; i < 8; ++i) {
    hot.push_back(driver.Add(i));
  }
  for (uint64_t i = 100; i < 108; ++i) {
    cold.push_back(driver.Add(i));
  }
  // Heat the hot set across several "ages" and reconfigure.
  for (int round = 0; round < 30; ++round) {
    for (Folio* folio : hot) {
      driver.Access(folio);
    }
  }
  bundle.agent->Poll();

  const auto victims = driver.Evict(8);
  ASSERT_EQ(victims.size(), 8u);
  for (Folio* victim : victims) {
    EXPECT_GE(victim->index, 100u) << "evicted a hot folio";
  }
}

TEST(LhdInternalsTest, SurvivesChurnWithoutAgent) {
  // Nobody polls the agent: the inline safety valve must keep the policy
  // functional (documented divergence in src/policies/lhd.h).
  policies::LhdParams params;
  params.capacity_pages = 64;
  params.reconfig_interval = 32;
  auto bundle = policies::MakeLhdPolicy(params);
  PolicyDriver driver(std::move(bundle.ops));
  std::vector<Folio*> resident;
  for (uint64_t i = 0; i < 5000; ++i) {
    Folio* folio = driver.Add(i);
    driver.Access(folio);
    resident.push_back(folio);
    if (resident.size() > 48) {
      auto victims = driver.Evict(8);
      for (Folio* victim : victims) {
        driver.Remove(victim);
        resident.erase(
            std::find(resident.begin(), resident.end(), victim));
      }
      ASSERT_FALSE(victims.empty());
    }
  }
}

// --- GET-SCAN --------------------------------------------------------------------

Ops GetScanOps() {
  policies::PolicyParams params;
  params.capacity_pages = 256;
  params.scan_pids = {777};
  auto bundle = policies::MakePolicy("get_scan", params);
  CHECK(bundle.ok());
  return std::move(bundle->ops);
}

TEST(GetScanInternalsTest, RoutesByCurrentPid) {
  PolicyDriver driver(GetScanOps());

  Folio* get_folio = nullptr;
  Folio* scan_folio = nullptr;
  {
    ScopedCurrentTask task(TaskContext{100, 100});
    get_folio = driver.Add(1);
  }
  {
    ScopedCurrentTask task(TaskContext{777, 778});
    scan_folio = driver.Add(2);
  }
  // Scan folios are sacrificed first even though the GET folio is older.
  const auto victims = driver.Evict(1);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], scan_folio);
  EXPECT_NE(victims[0], get_folio);
}

TEST(GetScanInternalsTest, FallsBackToGetListWhenNoScans) {
  PolicyDriver driver(GetScanOps());
  ScopedCurrentTask task(TaskContext{100, 100});
  Folio* cold = driver.Add(1);
  Folio* warm = driver.Add(2);
  driver.Access(warm);
  driver.Access(warm);
  const auto victims = driver.Evict(1);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], cold);  // LFU within the GET list
}

}  // namespace
}  // namespace cache_ext
