// Chaos harness (ISSUE tentpole part 4): every built-in policy is driven
// through a deterministic fault storm while the cache serves a mixed
// workload. Asserted properties:
//   - no crashes and no invalid folio pointer ever reaches the page cache
//     (candidate corruption is caught by registry validation);
//   - page contents served by the cache always match the backing disk;
//   - a cgroup whose policy tripped the breaker converges back to within 1%
//     of the default-policy hit rate;
//   - a healthy policy under disk-latency faults keeps its hit rate;
//   - injected device errors surface as clean Status failures.
//
// Tests here carry the ctest label "chaos" (tools/check.sh --chaos runs
// them under AddressSanitizer).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/ir/compile.h"
#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"
#include "src/util/ebr.h"

namespace cache_ext {
namespace {

using fault::FaultInjector;
using fault::FaultSchedule;

constexpr uint64_t kFilePages = 256;
constexpr uint64_t kHotPages = 48;
constexpr uint64_t kCgroupPages = 64;

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 37 + 11) & 0xFF);
}

// Deterministic access stream: ~75% of accesses within the hot set.
class AccessStream {
 public:
  explicit AccessStream(uint64_t seed) : state_(seed) {}

  uint64_t NextPage() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t roll = (state_ >> 33) % 100;
    const uint64_t raw = state_ >> 17;
    return roll < 75 ? raw % kHotPages : raw % kFilePages;
  }

 private:
  uint64_t state_;
};

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::unique_ptr<CacheExtLoader> loader;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
  Lane lane{0, TaskContext{1, 2}, 11};

  // Serves one read and verifies the bytes against the disk pattern.
  // Returns the read status (contents are only checked on success).
  Status ReadPage(uint64_t page) {
    std::vector<uint8_t> buf(kPageSize);
    Status st = pc->Read(lane, as, cg, page * kPageSize,
                         std::span<uint8_t>(buf));
    if (st.ok()) {
      for (uint8_t b : buf) {
        if (b != PatternByte(page)) {
          return Internal("corrupted page content served from cache");
        }
      }
    }
    return st;
  }

  double RunAndMeasureHitRate(AccessStream& stream, uint64_t ops) {
    const uint64_t hits0 = cg->stat_hits.load();
    const uint64_t misses0 = cg->stat_misses.load();
    for (uint64_t i = 0; i < ops; ++i) {
      EXPECT_TRUE(ReadPage(stream.NextPage()).ok());
    }
    const double hits = static_cast<double>(cg->stat_hits.load() - hits0);
    const double misses =
        static_cast<double>(cg->stat_misses.load() - misses0);
    return hits + misses == 0 ? 0.0 : hits / (hits + misses);
  }
};

std::unique_ptr<Rig> MakeRig(std::string_view policy_name) {
  auto rig = std::make_unique<Rig>();
  SsdModelOptions ssd_options;
  ssd_options.read_latency_ns = 1000;
  ssd_options.write_latency_ns = 1000;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get());
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());
  rig->cg = rig->pc->CreateCgroup("/chaos", kCgroupPages * kPageSize);

  auto as = rig->pc->OpenFile("/data");
  CHECK(as.ok());
  rig->as = *as;
  CHECK(rig->disk.Truncate(rig->as->file(), kFilePages * kPageSize).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t i = 0; i < kFilePages; ++i) {
    std::fill(page.begin(), page.end(), PatternByte(i));
    CHECK(rig->disk
              .WriteAt(rig->as->file(), i * kPageSize,
                       std::span<const uint8_t>(page))
              .ok());
  }

  if (!policy_name.empty()) {
    policies::PolicyParams params;
    params.capacity_pages = rig->cg->limit_pages();
    auto bundle = policies::MakePolicy(policy_name, params);
    CHECK(bundle.ok());
    auto attached = rig->loader->Attach(rig->cg, std::move(bundle->ops),
                                        rig->pc->options().costs);
    CHECK(attached.ok());
  }
  return rig;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  // The fault storm covering every kernel-side failure mode (device faults
  // are exercised separately — they make reads fail by design).
  void ArmKernelStorm() {
    FaultSchedule p10;
    p10.probability = 0.10;
    uint64_t seed = 1000;
    for (std::string_view point :
         {fault::points::kBpfMapUpdate, fault::points::kBpfMapLookup,
          fault::points::kBpfRingbufReserve, fault::points::kBpfRunAbort,
          fault::points::kCandidateCorrupt, fault::points::kListOp}) {
      p10.seed = ++seed;
      FaultInjector::Global().Arm(point, p10);
    }
    FaultSchedule storm;
    storm.probability = 0.05;
    storm.seed = ++seed;
    storm.magnitude = 8;
    FaultInjector::Global().Arm(fault::points::kBpfLruEvictStorm, storm);
    FaultSchedule shrink;
    shrink.probability = 0.10;
    shrink.seed = ++seed;
    shrink.magnitude = 4;
    FaultInjector::Global().Arm(fault::points::kBpfRunBudgetShrink, shrink);
  }
};

TEST_F(ChaosTest, AllPoliciesSurviveKernelFaultStorm) {
  for (std::string_view name : policies::AvailablePolicies()) {
    SCOPED_TRACE(std::string(name));
    auto rig = MakeRig(name);
    AccessStream stream(2024);
    // Warm-up with no faults armed: the attach and the first evictions run
    // clean, like a policy that degrades in production after deployment.
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
    ArmKernelStorm();
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
    FaultInjector::Global().DisarmAll();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
    const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
    EXPECT_FALSE(stats.oom_killed);
    EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
  }
}

// IR hash maps fail updates on bpf.map.update, as bpf::HashMap does, so
// the storm above reaches the IR policies too. Here ir_lfu's frequency map
// refuses every insert: every folio scores 0, and the cache still serves
// correct pages within its limit.
TEST_F(ChaosTest, IrHashMapUpdatesHonourTheMapFaultPoint) {
  auto rig = MakeRig("ir_lfu");
  FaultSchedule always;
  always.every_kth = 1;
  FaultInjector::Global().Arm(fault::points::kBpfMapUpdate, always);
  AccessStream stream(4242);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  EXPECT_GT(FaultInjector::Global().fires(fault::points::kBpfMapUpdate), 0u);
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
}

TEST_F(ChaosTest, TrippedCgroupConvergesToDefaultPolicyHitRate) {
  // Baseline: the default policy, no ext attachment, same access stream.
  auto base = MakeRig("");
  AccessStream base_stream(7777);
  base->RunAndMeasureHitRate(base_stream, 400);  // warm
  const double base_rate = base->RunAndMeasureHitRate(base_stream, 3000);

  // Chaos run: MRU attached, every eviction proposal corrupted until the
  // evict breaker trips and the hook degrades to the default policy.
  auto chaos = MakeRig("mru");
  AccessStream chaos_stream(7777);
  FaultSchedule corrupt;
  corrupt.every_kth = 1;
  FaultInjector::Global().Arm(fault::points::kCandidateCorrupt, corrupt);
  chaos->RunAndMeasureHitRate(chaos_stream, 400);  // warm + trip
  FaultInjector::Global().DisarmAll();
  const CgroupCacheStats mid = chaos->pc->StatsFor(chaos->cg);
  ASSERT_GE(
      mid.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kEvict)], 1u);
  ASSERT_GT(mid.ext_violations, 0u);

  const double chaos_rate = chaos->RunAndMeasureHitRate(chaos_stream, 3000);
  EXPECT_NEAR(chaos_rate, base_rate, 0.01);
  EXPECT_LE(chaos->cg->charged_pages(), chaos->cg->limit_pages());
}

TEST_F(ChaosTest, HealthyPolicyKeepsHitRateUnderDeviceSlowdown) {
  auto clean = MakeRig("lfu");
  AccessStream clean_stream(555);
  clean->RunAndMeasureHitRate(clean_stream, 300);
  const double clean_rate = clean->RunAndMeasureHitRate(clean_stream, 2000);

  auto slow = MakeRig("lfu");
  AccessStream slow_stream(555);
  FaultSchedule spike;
  spike.probability = 0.05;
  spike.seed = 99;
  spike.magnitude = 50;
  FaultInjector::Global().Arm(fault::points::kSsdLatencySpike, spike);
  FaultSchedule degrade;
  degrade.every_kth = 3;
  degrade.magnitude = 8;
  FaultInjector::Global().Arm(fault::points::kSsdDegrade, degrade);
  slow->RunAndMeasureHitRate(slow_stream, 300);
  const double slow_rate = slow->RunAndMeasureHitRate(slow_stream, 2000);
  // Latency faults fired but only stretched device time — they must not
  // change caching decisions or break the policy.
  EXPECT_GT(FaultInjector::Global().fires(fault::points::kSsdDegrade), 0u);
  EXPECT_NEAR(slow_rate, clean_rate, 0.01);
  const CgroupCacheStats stats = slow->pc->StatsFor(slow->cg);
  EXPECT_EQ(stats.ext_degraded_hook_mask, 0u);
  EXPECT_FALSE(stats.ext_detached_by_watchdog);
}

TEST_F(ChaosTest, InjectedDiskErrorsSurfaceAsCleanStatuses) {
  auto rig = MakeRig("fifo");
  AccessStream stream(31337);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  FaultSchedule s;
  s.every_kth = 5;
  FaultInjector::Global().Arm(fault::points::kDiskRead, s);
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    Status st = rig->ReadPage(stream.NextPage());
    if (!st.ok()) {
      ++failures;
      EXPECT_NE(std::string(st.message()).find("injected"),
                std::string::npos);
    }
  }
  EXPECT_GT(failures, 0);
  FaultInjector::Global().DisarmAll();
  // The cache recovered: contents intact, reads clean again.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }

  // Write-side: the injected device error propagates out of Write().
  FaultSchedule w;
  w.on_nth = 1;
  FaultInjector::Global().Arm(fault::points::kDiskWrite, w);
  std::vector<uint8_t> page(kPageSize, PatternByte(0));
  Status wst = rig->pc->Write(rig->lane, rig->as, rig->cg, 0,
                              std::span<const uint8_t>(page));
  EXPECT_FALSE(wst.ok());
  EXPECT_NE(std::string(wst.message()).find("injected"), std::string::npos);
  EXPECT_TRUE(rig->pc
                  ->Write(rig->lane, rig->as, rig->cg, 0,
                          std::span<const uint8_t>(page))
                  .ok());
  ASSERT_TRUE(rig->ReadPage(0).ok());
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
}

TEST_F(ChaosTest, EbrStallDefersFreesBoundedlyWhileWritersProgress) {
  // ebr.stall wedges a phantom reader at the current epoch (a reader stuck
  // inside rcu_read_lock) for `magnitude` blocked advance attempts. While
  // it holds, every eviction's folio free is deferred; the cache must keep
  // serving and evicting (writers never wait on a grace period), the
  // deferred backlog must stay bounded by the stall length, and once the
  // phantom expires the backlog must drain completely.
  auto rig = MakeRig("fifo");  // 256-page file, 64-page cgroup: heavy churn
  ebr::Synchronize();          // start from a drained domain
  const uint64_t freed_before = ebr::FreedCount();

  FaultSchedule stall;
  stall.on_nth = 1;
  stall.magnitude = 64;  // blocked advance attempts before the phantom dies
  FaultInjector::Global().Arm(fault::points::kEbrStall, stall);

  AccessStream stream(7777);
  uint64_t max_retired = 0;
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    max_retired = std::max(max_retired, ebr::RetiredCount());
  }
  // The stall really deferred frees...
  EXPECT_GT(max_retired, 0u);
  // ...but boundedly: each blocked advance is one Retire-side attempt, so
  // the backlog can never grow past the order of the stall's ttl.
  EXPECT_LT(max_retired, 512u);
  // ...and the cache stayed healthy throughout.
  EXPECT_FALSE(rig->pc->StatsFor(rig->cg).oom_killed);
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
  EXPECT_GT(rig->cg->stat_evictions.load(), 0u);

  // Phantom gone: a full grace period drains everything that was deferred.
  FaultInjector::Global().DisarmAll();
  ebr::Synchronize();
  EXPECT_EQ(ebr::RetiredCount(), 0u);
  EXPECT_GT(ebr::FreedCount(), freed_before);
}

TEST_F(ChaosTest, JitCompileFailFallsBackToInterpreterAndStaysAttached) {
  // jit.compile_fail rejects every hook at lowering time — the analogue of
  // bpf_int_jit_compile returning NULL. Without BPF_JIT_ALWAYS_ON, the
  // kernel keeps the program and runs it in the interpreter; here the
  // policy must stay attached, keep its semantics, and surface the
  // degradation through the ext_ir_* counters.
  FaultSchedule always;
  always.every_kth = 1;
  FaultInjector::Global().Arm(fault::points::kJitCompileFail, always);

  auto rig = MakeRig("ir_lfu");
  ASSERT_NE(rig->pc->ext_policy(rig->cg), nullptr);

  AccessStream stream(424242);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }

  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.ext_ir_jit_compiles, 0u);
  EXPECT_GT(stats.ext_ir_interp_fallbacks, 0u);
  // The interpreter kept the policy alive: still attached, never
  // quarantined, cache healthy.
  EXPECT_NE(rig->pc->ext_policy(rig->cg), nullptr);
  EXPECT_FALSE(stats.ext_quarantined);
  EXPECT_FALSE(stats.oom_killed);
  EXPECT_GT(rig->cg->stat_hits.load(), 0u);
}

TEST_F(ChaosTest, BudgetOverrunBehaviourIdenticalAcrossIrBackends) {
  // Shrink the helper budget under both IR backends and require the
  // breaker/violation picture to be bit-identical: both backends charge
  // the same ChargeHelperCall accounting, so an overrun aborts the same
  // invocation with the same counts whichever backend dispatched it.
  struct Observed {
    uint64_t violations = 0;
    uint64_t trips = 0;
    uint64_t hits = 0;
    bool quarantined = false;
  };
  auto run_with = [&](bpf::ir::Backend backend) {
    bpf::ir::SetDefaultBackend(backend);
    FaultSchedule shrink;
    shrink.every_kth = 3;
    shrink.seed = 99;
    shrink.magnitude = 1;  // one helper call, then abort
    FaultInjector::Global().Arm(fault::points::kBpfRunBudgetShrink, shrink);
    auto rig = MakeRig("ir_lfu");
    AccessStream stream(5150);
    for (int i = 0; i < 2500; ++i) {
      EXPECT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
    Observed o;
    const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
    o.violations = stats.ext_violations;
    for (uint64_t trips : stats.ext_hook_trip_counts) {
      o.trips += trips;
    }
    o.hits = rig->cg->stat_hits.load();
    o.quarantined = stats.ext_quarantined;
    FaultInjector::Global().DisarmAll();
    return o;
  };

  const Observed interp = run_with(bpf::ir::Backend::kInterp);
  const Observed jit = run_with(bpf::ir::Backend::kJit);
  bpf::ir::SetDefaultBackend(bpf::ir::Backend::kJit);

  EXPECT_EQ(interp.violations, jit.violations);
  EXPECT_EQ(interp.trips, jit.trips);
  EXPECT_EQ(interp.hits, jit.hits);
  EXPECT_EQ(interp.quarantined, jit.quarantined);
}

}  // namespace
}  // namespace cache_ext
