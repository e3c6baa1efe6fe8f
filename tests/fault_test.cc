// Tests for the fault-injection framework: deterministic schedules, the
// fault points wired through src/bpf and src/cache_ext, ring-buffer drop
// accounting, per-hook circuit-breaker degradation, and the regression test
// for watchdog gating of every dispatch site.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/lru_hash_map.h"
#include "src/bpf/map.h"
#include "src/bpf/prog.h"
#include "src/bpf/ringbuf.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"

namespace cache_ext {
namespace {

using fault::FaultInjector;
using fault::FaultSchedule;
using fault::ScopedFault;

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_F(FaultInjectorTest, DisarmedPointNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::InjectFault("test.scratch"));
  }
}

TEST_F(FaultInjectorTest, OnNthFiresExactlyOnce) {
  FaultSchedule s;
  s.on_nth = 3;
  FaultInjector::Global().Arm("test.scratch", s);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(fault::InjectFault("test.scratch"));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(FaultInjector::Global().fires("test.scratch"), 1u);
  EXPECT_EQ(FaultInjector::Global().hits("test.scratch"), 6u);
}

TEST_F(FaultInjectorTest, EveryKthRespectsAfterAndMaxFires) {
  FaultSchedule s;
  s.every_kth = 2;
  s.after = 3;
  s.max_fires = 2;
  FaultInjector::Global().Arm("test.scratch", s);
  std::vector<bool> fired;
  for (int i = 0; i < 12; ++i) {
    fired.push_back(fault::InjectFault("test.scratch"));
  }
  // Hits 1-3 skipped; then every 2nd of the remainder (hits 5, 7), healed
  // after max_fires = 2.
  EXPECT_EQ(fired,
            (std::vector<bool>{false, false, false, false, true, false, true,
                               false, false, false, false, false}));
}

TEST_F(FaultInjectorTest, ProbabilisticScheduleIsDeterministic) {
  FaultSchedule s;
  s.probability = 0.3;
  s.seed = 42;
  auto run = [&] {
    FaultInjector::Global().Arm("test.scratch", s);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(fault::InjectFault("test.scratch"));
    }
    return fired;
  };
  const auto first = run();
  const auto second = run();  // re-Arm resets counters and the stream
  EXPECT_EQ(first, second);
  const size_t fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 30u);  // ~60 expected
  EXPECT_LT(fires, 100u);
}

TEST_F(FaultInjectorTest, MagnitudeDeliveredOnFire) {
  FaultSchedule s;
  s.on_nth = 1;
  s.magnitude = 77;
  FaultInjector::Global().Arm("test.scratch", s);
  uint64_t magnitude = 0;
  EXPECT_TRUE(fault::InjectFault("test.scratch", &magnitude));
  EXPECT_EQ(magnitude, 77u);
}

TEST_F(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  {
    FaultSchedule s;
    s.every_kth = 1;
    ScopedFault armed("test.scratch", s);
    EXPECT_TRUE(fault::InjectFault("test.scratch"));
  }
  EXPECT_FALSE(fault::InjectFault("test.scratch"));
  EXPECT_TRUE(FaultInjector::Global().ArmedPoints().empty());
}

TEST_F(FaultInjectorTest, AllFaultPointsRegistered) {
  const auto all = fault::AllFaultPoints();
  EXPECT_GE(all.size(), 13u);
}

// --- Fault points wired into src/bpf ----------------------------------------

TEST_F(FaultInjectorTest, HashMapUpdateAndLookupFaults) {
  bpf::HashMap<int, int> map(8);
  FaultSchedule s;
  s.on_nth = 1;
  FaultInjector::Global().Arm(fault::points::kBpfMapUpdate, s);
  EXPECT_FALSE(map.Update(1, 10));  // injected -E2BIG
  EXPECT_TRUE(map.Update(1, 10));
  FaultInjector::Global().Arm(fault::points::kBpfMapLookup, s);
  EXPECT_EQ(map.Lookup(1), nullptr);  // injected miss
  ASSERT_NE(map.Lookup(1), nullptr);
  EXPECT_EQ(*map.Lookup(1), 10);
}

TEST_F(FaultInjectorTest, LruMapEvictionStormReapsEntries) {
  bpf::LruHashMap<int, int> map(16);
  for (int i = 0; i < 16; ++i) {
    map.Update(i, i);
  }
  ASSERT_EQ(map.Size(), 16u);
  FaultSchedule s;
  s.on_nth = 1;
  s.magnitude = 6;
  FaultInjector::Global().Arm(fault::points::kBpfLruEvictStorm, s);
  map.Update(100, 100);
  // 6 LRU entries reaped by the storm, then the insert proceeded.
  EXPECT_EQ(map.Size(), 11u);
  EXPECT_TRUE(map.Contains(100));
  EXPECT_FALSE(map.Contains(0));  // oldest entries went first
}

TEST_F(FaultInjectorTest, RunContextBudgetShrinkAndAbort) {
  FaultSchedule s;
  s.on_nth = 1;
  s.magnitude = 4;
  FaultInjector::Global().Arm(fault::points::kBpfRunBudgetShrink, s);
  {
    bpf::RunContext run(1000);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(run.CountHelperCall());
    }
    EXPECT_FALSE(run.CountHelperCall());  // shrunk budget of 4 exhausted
    EXPECT_TRUE(run.aborted());
  }
  FaultInjector::Global().Arm(fault::points::kBpfRunAbort, s);
  {
    bpf::RunContext run(1000);
    EXPECT_TRUE(run.aborted());  // injected immediate abort
    EXPECT_FALSE(run.CountHelperCall());
  }
}

// --- Ring buffer drop accounting (satellite: overflow degradation) ----------

TEST_F(FaultInjectorTest, RingBufFullRingDropsAndAccounts) {
  // 64-byte ring; each 8-byte record occupies 16 bytes with its header.
  bpf::RingBuf rb(64);
  uint64_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(rb.OutputValue(payload));
  }
  // Full: further reservations are dropped, not blocked.
  EXPECT_FALSE(rb.OutputValue(payload));
  EXPECT_FALSE(rb.OutputValue(payload));
  bpf::RingBuf::Stats stats = rb.stats();
  EXPECT_EQ(stats.produced, 4u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.bytes_pending, 64u);
  EXPECT_EQ(stats.peak_bytes_pending, 64u);
  // Draining restores capacity; the drop counter is cumulative.
  uint64_t records = 0;
  rb.Consume([&](std::span<const uint8_t>) { ++records; });
  EXPECT_EQ(records, 4u);
  stats = rb.stats();
  EXPECT_EQ(stats.consumed, 4u);
  EXPECT_EQ(stats.bytes_pending, 0u);
  EXPECT_EQ(stats.peak_bytes_pending, 64u);
  EXPECT_TRUE(rb.OutputValue(payload));
  EXPECT_EQ(rb.stats().dropped, 2u);
}

TEST_F(FaultInjectorTest, RingBufInjectedReserveFailure) {
  bpf::RingBuf rb(1024);
  FaultSchedule s;
  s.on_nth = 1;
  FaultInjector::Global().Arm(fault::points::kBpfRingbufReserve, s);
  uint64_t payload = 0;
  EXPECT_FALSE(rb.OutputValue(payload));  // dropped despite free space
  EXPECT_TRUE(rb.OutputValue(payload));
  const bpf::RingBuf::Stats stats = rb.stats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.produced, 1u);
}

// --- Per-hook degradation through the full stack ----------------------------

class FaultStackTest : public ::testing::Test {
 protected:
  FaultStackTest() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 0;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/fault", 16 * kPageSize);
  }

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

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

  // A functional FIFO policy (working eviction list) whose state lives in
  // the returned shared pointer; tests graft broken hooks onto it.
  struct FifoState {
    uint64_t list = 0;
  };
  Ops WorkingFifoOps(std::string name, std::shared_ptr<FifoState> st) {
    Ops ops;
    ops.name = std::move(name);
    ops.helper_budget = 256;
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
    };
    ops.folio_accessed = [](CacheExtApi&, Folio*) {};
    ops.folio_removed = [](CacheExtApi&, Folio*) {};
    ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
      IterOpts opts;
      opts.nr_scan = 4 * ctx->nr_candidates_requested;
      opts.on_evict = IterPlacement::kMoveToTail;
      (void)api.ListIterate(st->list, opts, ctx,
                            [](Folio*) { return IterVerdict::kEvict; });
    };
    return ops;
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
};

TEST_F(FaultStackTest, AbortingAdmitHookDegradesAloneEvictionsKeepFlowing) {
  // ISSUE satellite: a policy whose admit program always aborts must keep
  // serving evictions through its (healthy) evict hook; only the admit hook
  // degrades, and the stats say so.
  auto st = std::make_shared<FifoState>();
  Ops ops = WorkingFifoOps("admit_aborts", st);
  ops.admit_folio = [st](CacheExtApi& api, const AdmissionCtx&) -> bool {
    for (int i = 0; i < 300; ++i) {  // blows the 256-call budget: aborts
      (void)api.ListAdd(st->list, nullptr, true);
    }
    return true;
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 96);

  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_EQ(stats.ext_degraded_hook_mask, PolicyHookBit(PolicyHook::kAdmit));
  EXPECT_FALSE(stats.ext_detached_by_watchdog);
  EXPECT_EQ(
      stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kAdmit)], 1u);
  EXPECT_EQ(
      stats.ext_hook_trip_counts[static_cast<size_t>(PolicyHook::kEvict)], 0u);
  // The healthy evict hook kept proposing: no fallback evictions, and the
  // cgroup stayed within its limit.
  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  EXPECT_EQ(stats.fallback_evictions, 0u);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FaultStackTest, WatchdogGatesEveryDispatchSiteAfterDetach) {
  // Regression for the incomplete one-shot watchdog: once the flag is set,
  // NO program of the flagged policy may run again — added, accessed,
  // removed, admit, refault included.
  struct Counters {
    std::atomic<uint64_t> added{0};
    std::atomic<uint64_t> accessed{0};
    std::atomic<uint64_t> removed{0};
    std::atomic<uint64_t> evict{0};
    std::atomic<uint64_t> admit{0};
    std::atomic<uint64_t> refault{0};
    uint64_t Total() const {
      return added + accessed + removed + evict + admit + refault;
    }
  };
  auto counters = std::make_shared<Counters>();
  Ops ops;
  ops.name = "probe";
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.folio_added = [counters](CacheExtApi&, Folio*) { ++counters->added; };
  ops.folio_accessed = [counters](CacheExtApi&, Folio*) {
    ++counters->accessed;
  };
  ops.folio_removed = [counters](CacheExtApi&, Folio*) {
    ++counters->removed;
  };
  ops.evict_folios = [counters](CacheExtApi&, EvictionCtx*, MemCgroup*) {
    ++counters->evict;
  };
  ops.admit_folio = [counters](CacheExtApi&, const AdmissionCtx&) -> bool {
    ++counters->admit;
    return true;
  };
  ops.folio_refaulted = [counters](CacheExtApi&, Folio*, uint32_t) {
    ++counters->refault;
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 256 * kPageSize).ok());

  // Abort every program invocation: multiple hooks trip, the breaker
  // escalates, and ExtActive latches the watchdog flag.
  FaultSchedule abort_all;
  abort_all.every_kth = 1;
  FaultInjector::Global().Arm(fault::points::kBpfRunAbort, abort_all);
  for (int round = 0; round < 8; ++round) {
    TouchPages(lane, *as, 0, 48);  // misses + re-hits of the resident tail
    if (pc_->StatsFor(cg_).ext_detached_by_watchdog) {
      break;
    }
  }
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(pc_->StatsFor(cg_).ext_detached_by_watchdog);

  // From here on, not a single program may run — any dispatch site that
  // forgot to check the flag will bump a counter.
  const uint64_t frozen = counters->Total();
  TouchPages(lane, *as, 0, 96);
  std::vector<uint8_t> page(kPageSize, 0xAB);
  ASSERT_TRUE(pc_->Write(lane, *as, cg_, 0, std::span<const uint8_t>(page))
                  .ok());
  ASSERT_TRUE(pc_->DeleteFile(lane, *as).ok());  // removals circumvent too
  EXPECT_EQ(counters->Total(), frozen);
  // The cgroup still works on the base policy.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FaultStackTest, InjectedListMisuseFeedsFallback) {
  // kListOp makes every list operation fail: the FIFO's list stays empty,
  // so eviction under-proposes and the default-policy fallback takes over —
  // no crash, no stuck reclaim.
  auto st = std::make_shared<FifoState>();
  ASSERT_TRUE(loader_->Attach(cg_, WorkingFifoOps("listfault", st)).ok());
  FaultSchedule s;
  s.every_kth = 1;
  FaultInjector::Global().Arm(fault::points::kListOp, s);
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);
  FaultInjector::Global().DisarmAll();
  EXPECT_GT(pc_->StatsFor(cg_).fallback_evictions, 0u);
  EXPECT_FALSE(pc_->StatsFor(cg_).oom_killed);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

// With every device read failing, resident pages are still served: a hit
// never reaches the device. A read that misses fails with IoError before it
// inserts anything, WILLNEED's readahead is dropped silently, and once the
// device heals the same read succeeds.
TEST_F(FaultStackTest, HitsSurviveADeadDeviceAndMissesFailCleanly) {
  auto st = std::make_shared<FifoState>();
  auto attached = loader_->Attach(cg_, WorkingFifoOps("dead_device", st));
  ASSERT_TRUE(attached.ok());
  const FolioRegistry& registry = (*attached)->registry();
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  std::vector<uint8_t> data(16 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + i / kPageSize);
  }
  ASSERT_TRUE(disk_.WriteAt((*as)->file(), 0, data).ok());
  const auto expect_bytes = [&](uint64_t offset,
                                const std::vector<uint8_t>& got) {
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + offset))
        << "offset " << offset;
  };
  std::vector<uint8_t> page(kPageSize);
  TouchPages(lane, *as, 0, 8);
  const uint64_t charged = cg_->charged_pages();
  const uint64_t resident = (*as)->nr_resident();
  const uint64_t registered = registry.Size();
  const uint64_t insertions = cg_->stat_insertions.load();

  {
    ScopedFault dead(fault::points::kDiskRead, FaultSchedule{.every_kth = 1});
    for (uint64_t p = 0; p < 8; ++p) {
      ASSERT_TRUE(pc_->Read(lane, *as, cg_, p * kPageSize, page).ok());
      expect_bytes(p * kPageSize, page);
    }
    std::vector<uint8_t> eight(8 * kPageSize);
    ASSERT_TRUE(pc_->Read(lane, *as, cg_, 0, eight).ok());
    expect_bytes(0, eight);
    EXPECT_EQ(FaultInjector::Global().fires(fault::points::kDiskRead), 0u);

    EXPECT_EQ(pc_->Read(lane, *as, cg_, 12 * kPageSize, page).code(),
              ErrorCode::kIoError);
    // A read that starts on a resident page fails where it misses.
    std::vector<uint8_t> across(2 * kPageSize);
    EXPECT_EQ(pc_->Read(lane, *as, cg_, 7 * kPageSize, across).code(),
              ErrorCode::kIoError);
    EXPECT_TRUE(pc_->FadviseRange(lane, *as, cg_, Fadvise::kWillNeed,
                                  8 * kPageSize, 8 * kPageSize)
                    .ok());
    EXPECT_EQ(disk_.ReadAt((*as)->file(), 0, page).code(),
              ErrorCode::kIoError);
    EXPECT_EQ(FaultInjector::Global().fires(fault::points::kDiskRead), 4u);
    // No folio, charge or registry entry was left behind.
    for (uint64_t p = 8; p < 16; ++p) {
      EXPECT_EQ((*as)->FindFolio(p), nullptr) << "page " << p;
    }
    EXPECT_EQ(cg_->charged_pages(), charged);
    EXPECT_EQ((*as)->nr_resident(), resident);
    EXPECT_EQ(registry.Size(), registered);
    EXPECT_EQ(cg_->stat_insertions.load(), insertions);
  }

  ASSERT_TRUE(pc_->Read(lane, *as, cg_, 12 * kPageSize, page).ok());
  expect_bytes(12 * kPageSize, page);
  EXPECT_NE((*as)->FindFolio(12), nullptr);
  EXPECT_EQ(cg_->charged_pages(), charged + 1);
}

TEST_F(FaultStackTest, InjectedPolicyInitFailureFailsAttachCleanly) {
  auto st = std::make_shared<FifoState>();
  FaultSchedule s;
  s.on_nth = 1;
  FaultInjector::Global().Arm(fault::points::kPolicyInit, s);
  auto attached = loader_->Attach(cg_, WorkingFifoOps("initfault", st));
  EXPECT_FALSE(attached.ok());
  // The failed attach left no policy behind; a retry succeeds.
  EXPECT_EQ(pc_->ext_policy(cg_), nullptr);
  auto st2 = std::make_shared<FifoState>();
  EXPECT_TRUE(loader_->Attach(cg_, WorkingFifoOps("initfault", st2)).ok());
}

}  // namespace
}  // namespace cache_ext
