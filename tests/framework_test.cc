// Tests for the cache_ext framework adapter + loader: verifier checks,
// per-cgroup attach/detach, hook dispatch, registry maintenance, candidate
// validation, fallback eviction, and the misbehaviour watchdog.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bpf/ir/compile.h"
#include "src/cache_ext/framework.h"
#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/ir_policies.h"

namespace cache_ext {
namespace {

Ops MinimalOps(std::string name) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  return ops;
}

// --- Verifier ---------------------------------------------------------------

TEST(LoaderVerifyTest, AcceptsMinimalOps) {
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps("ok_policy")).ok());
}

TEST(LoaderVerifyTest, RejectsEmptyName) {
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("")).ok());
}

TEST(LoaderVerifyTest, RejectsOverlongName) {
  EXPECT_FALSE(
      CacheExtLoader::Verify(MinimalOps(std::string(64, 'a'))).ok());
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps(std::string(63, 'a'))).ok());
}

TEST(LoaderVerifyTest, RejectsBadCharacters) {
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("bad name")).ok());
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("bad/name")).ok());
  // Hyphens are not valid in kernel struct_ops names: [A-Za-z0-9_] only.
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("good_name-2")).ok());
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps("good_name_2")).ok());
}

TEST(LoaderVerifyTest, RejectsMissingPrograms) {
  Ops ops = MinimalOps("p");
  ops.evict_folios = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
  ops = MinimalOps("p");
  ops.policy_init = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
  ops = MinimalOps("p");
  ops.folio_accessed = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
}

TEST(LoaderVerifyTest, RejectsZeroBudget) {
  Ops ops = MinimalOps("p");
  ops.helper_budget = 0;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
}

// --- Framework fixture -------------------------------------------------------

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.watchdog_violation_limit = 50;
    options.max_readahead_pages = 0;  // exact counts: no prefetch noise
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/fw", 16 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 2}, 99); }

  void TouchPages(Lane& lane, AddressSpace* as, uint64_t first,
                  uint64_t count) {
    std::vector<uint8_t> buf(kPageSize);
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

TEST_F(FrameworkTest, AttachRunsPolicyInit) {
  bool init_ran = false;
  Ops ops = MinimalOps("attach_test");
  ops.policy_init = [&init_ran](CacheExtApi& api, MemCgroup* cg) -> int32_t {
    EXPECT_NE(cg, nullptr);
    init_ran = api.ListCreate().ok();
    return 0;
  };
  auto policy = loader_->Attach(cg_, std::move(ops));
  ASSERT_TRUE(policy.ok());
  EXPECT_TRUE(init_ran);
  EXPECT_EQ(pc_->ext_policy(cg_), *policy);
  EXPECT_EQ((*policy)->name(), "attach_test");
}

TEST_F(FrameworkTest, AttachFailsWhenInitFails) {
  Ops ops = MinimalOps("failing_init");
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return -22; };
  EXPECT_FALSE(loader_->Attach(cg_, std::move(ops)).ok());
  EXPECT_EQ(pc_->ext_policy(cg_), nullptr);
}

TEST_F(FrameworkTest, AttachFailsWhenInitExhaustsBudget) {
  Ops ops = MinimalOps("greedy_init");
  ops.helper_budget = 2;
  ops.policy_init = [](CacheExtApi& api, MemCgroup*) -> int32_t {
    for (int i = 0; i < 10; ++i) {
      (void)api.ListCreate();
    }
    return 0;
  };
  EXPECT_EQ(loader_->Attach(cg_, std::move(ops)).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(FrameworkTest, DoubleAttachRejected) {
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("first")).ok());
  EXPECT_EQ(loader_->Attach(cg_, MinimalOps("second")).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(FrameworkTest, DetachRestoresBasePolicy) {
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("temp")).ok());
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  EXPECT_EQ(pc_->ext_policy(cg_), nullptr);
  EXPECT_FALSE(loader_->Detach(cg_).ok());  // nothing attached
}

TEST_F(FrameworkTest, PerCgroupIsolation) {
  MemCgroup* other = pc_->CreateCgroup("/other", 16 * kPageSize);
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("policy_a")).ok());
  ASSERT_TRUE(loader_->Attach(other, MinimalOps("policy_b")).ok());
  EXPECT_EQ(pc_->ext_policy(cg_)->name(), "policy_a");
  EXPECT_EQ(pc_->ext_policy(other)->name(), "policy_b");
}

TEST_F(FrameworkTest, HooksFireOnCacheEvents) {
  int added = 0;
  int accessed = 0;
  int removed = 0;
  Ops ops = MinimalOps("counting");
  ops.folio_added = [&added](CacheExtApi&, Folio*) { ++added; };
  ops.folio_accessed = [&accessed](CacheExtApi&, Folio*) { ++accessed; };
  ops.folio_removed = [&removed](CacheExtApi&, Folio*) { ++removed; };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 1);
  EXPECT_EQ(added, 1);
  EXPECT_GE(accessed, 1);
  TouchPages(lane, *as, 0, 1);  // hit
  EXPECT_GE(accessed, 2);
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ(removed, 1);
}

TEST_F(FrameworkTest, RegistryTracksResidency) {
  auto policy = loader_->Attach(cg_, MinimalOps("registry_check"));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  EXPECT_EQ((*policy)->registry().Size(), 4u);
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ((*policy)->registry().Size(), 0u);
}

TEST_F(FrameworkTest, AttachIntroducesPreexistingFolios) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/pre");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 5);  // resident before attach

  auto policy = loader_->Attach(cg_, MinimalOps("late"));
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ((*policy)->registry().Size(), 5u);
}

TEST_F(FrameworkTest, EvictionUsesPolicyProposals) {
  // A policy that tracks folios FIFO and proposes them.
  auto fifo = bpf::ir::CompileToOps(policies::IrFifoPolicy());
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(loader_->Attach(cg_, std::move(*fifo)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);  // 4x the 16-page limit
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  // FIFO proposals satisfied reclaim; fallback unused.
  EXPECT_EQ(pc_->StatsFor(cg_).fallback_evictions, 0u);
}

TEST_F(FrameworkTest, UnderProposingPolicyFallsBack) {
  // MinimalOps proposes nothing -> every eviction comes from the fallback.
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("lazy")).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(pc_->StatsFor(cg_).fallback_evictions, 0u);
  EXPECT_FALSE(pc_->StatsFor(cg_).oom_killed);
}

TEST_F(FrameworkTest, InvalidCandidatesRejectedAndCounted) {
  // A malicious policy proposing garbage pointers.
  Folio decoy;  // never registered
  Ops ops = MinimalOps("malicious");
  ops.evict_folios = [&decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    ctx->Propose(&decoy);
    ctx->Propose(reinterpret_cast<Folio*>(0x1234));
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 32);
  EXPECT_GT(pc_->StatsFor(cg_).ext_violations, 0u);
  // The kernel survives: fallback kept the cgroup under its limit.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FrameworkTest, BreakerDegradesEvictHookOfPersistentOffender) {
  // A policy that only spews garbage candidates trips its evict-hook
  // circuit breaker: that hook degrades to the default-policy fallback while
  // the policy as a whole stays attached (single-hook failure domain).
  Folio decoy;
  Ops ops = MinimalOps("offender");
  ops.evict_folios = [&decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    for (int i = 0; i < 8; ++i) {
      ctx->Propose(&decoy);
    }
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *as, 0, 256);  // heavy pressure, many violations
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  // The breaker cut the violation stream off long before the global
  // watchdog limit (50 in this fixture) was reached.
  EXPECT_GT(stats.ext_violations, 0u);
  EXPECT_LT(stats.ext_violations, 50u);
  EXPECT_FALSE(stats.ext_detached_by_watchdog);
  EXPECT_NE(stats.ext_degraded_hook_mask & PolicyHookBit(PolicyHook::kEvict),
            0u);
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kEvict)],
            1u);
  // With the evict hook degraded the base policy drives eviction directly.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(stats.fallback_evictions, 0u);
}

TEST_F(FrameworkTest, WatchdogDetachesMultiHookOffender) {
  // Broken on two fronts — garbage eviction candidates AND a folio_added
  // program that always exhausts its helper budget. Two tripped hooks
  // escalate to a full watchdog detach (§4.4).
  Folio decoy;
  Ops ops = MinimalOps("multi_offender");
  ops.helper_budget = 2;
  ops.evict_folios = [&decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    for (int i = 0; i < 8; ++i) {
      ctx->Propose(&decoy);
    }
  };
  ops.folio_added = [](CacheExtApi& api, Folio*) {
    for (int i = 0; i < 4; ++i) {
      (void)api.ListCreate();  // blows the 2-call budget: program aborts
    }
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *as, 0, 256);
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_TRUE(stats.ext_detached_by_watchdog);
  // Both hooks show in the trip counts.
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kEvict)],
            1u);
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kAdded)],
            1u);
  // After the watchdog fires, the base policy drives eviction directly.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FrameworkTest, ForeignCgroupFolioRejected) {
  // A policy attached to cgroup A proposing a folio owned by cgroup B: the
  // pointer is a live folio, but it is not in A's registry — the kernel must
  // reject it (cross-cgroup eviction attack) and count a violation.
  MemCgroup* victim_cg = pc_->CreateCgroup("/victim", 16 * kPageSize);
  Lane lane = MakeLane();
  auto victim_as = pc_->OpenFile("/victim_file");
  ASSERT_TRUE(victim_as.ok());
  ASSERT_TRUE(disk_.Truncate((*victim_as)->file(), 16 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(
      pc_->Read(lane, *victim_as, victim_cg, 0, std::span<uint8_t>(buf)).ok());
  Folio* foreign = (*victim_as)->FindFolio(0);
  ASSERT_NE(foreign, nullptr);

  Ops ops = MinimalOps("cross_cgroup");
  ops.evict_folios = [foreign](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    ctx->Propose(foreign);
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 32);  // pressure in cg_ -> malicious proposals
  EXPECT_GT(pc_->StatsFor(cg_).ext_violations, 0u);
  // The foreign folio survived.
  EXPECT_EQ((*victim_as)->FindFolio(0), foreign);
}

TEST_F(FrameworkTest, ProgramBudgetAbortCounted) {
  Ops ops = MinimalOps("hog");
  ops.helper_budget = 4;
  ops.folio_added = [](CacheExtApi& api, Folio*) {
    for (int i = 0; i < 100; ++i) {
      (void)api.CurrentTask();  // burns helper budget
    }
  };
  auto policy = loader_->Attach(cg_, std::move(ops));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 2);
  EXPECT_GE((*policy)->aborted_programs(), 2u);
}

TEST_F(FrameworkTest, AdmissionFilterHookConsulted) {
  int asked = 0;
  Ops ops = MinimalOps("filter");
  ops.admit_folio = [&asked](CacheExtApi&, const AdmissionCtx& ctx) {
    ++asked;
    return ctx.index % 2 == 0;  // admit only even pages
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  EXPECT_EQ(asked, 4);
  EXPECT_NE((*as)->FindFolio(0), nullptr);
  EXPECT_EQ((*as)->FindFolio(1), nullptr);  // rejected: direct I/O
  EXPECT_NE((*as)->FindFolio(2), nullptr);
  EXPECT_EQ(pc_->StatsFor(cg_).direct_reads, 2u);
}

TEST_F(FrameworkTest, AttachToNullCgroupRejected) {
  EXPECT_FALSE(loader_->Attach(nullptr, MinimalOps("x")).ok());
}

}  // namespace
}  // namespace cache_ext
