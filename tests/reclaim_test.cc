// Background reclaim (src/reclaim): watermark invariants, hysteresis,
// stall/death/overshoot chaos, the allocator-side watchdog, and the
// concurrent allocate-vs-reclaim path with real reclaimer threads.
//
// Asserted robustness properties (ISSUE 7):
//   - low < high <= limit survives arbitrary config churn (property sweep);
//   - hysteresis prevents wakeup thrash around one threshold;
//   - with a healthy daemon, allocations never pay direct reclaim
//     (reclaim_direct_entries == 0, psi_some_ns == 0);
//   - a stalled or killed reclaimer degrades to bounded emergency direct
//     reclaim: forward progress, bounded overshoot, hit path still serves,
//     no deadlock — and a healed stall is re-detected as recovered;
//   - repeated ext-policy reclaim failure feeds the PolicyManager's
//     quarantine machinery;
//   - real reclaimer threads racing real allocator threads never corrupt
//     served contents (run under TSan by tools/check.sh --tsan).
//
// Tests carry the "chaos" ctest label (tools/check.sh --chaos -> ASan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"
#include "src/policies/policy_manager.h"
#include "src/reclaim/reclaimer.h"
#include "src/reclaim/watermarks.h"

namespace cache_ext {
namespace {

using fault::FaultSchedule;
using fault::ScopedFault;
using reclaim::CgroupReclaimControl;
using reclaim::LaneHealth;
using reclaim::Watermarks;
using reclaim::WatermarkSpec;

constexpr uint64_t kFilePages = 256;
constexpr uint64_t kHotPages = 48;
constexpr uint64_t kCgroupPages = 64;

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 53 + 7) & 0xFF);
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

  Status ReadPage(Lane& rd_lane, uint64_t page) {
    std::vector<uint8_t> buf(kPageSize);
    Status st = pc->Read(rd_lane, as, cg, page * kPageSize,
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

  Status ReadPage(uint64_t page) { return ReadPage(lane, page); }
};

std::unique_ptr<Rig> MakeRig(const PageCacheOptions& options,
                             std::string_view policy_name = "") {
  auto rig = std::make_unique<Rig>();
  SsdModelOptions ssd_options;
  ssd_options.read_latency_ns = 1000;
  ssd_options.write_latency_ns = 1000;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());
  rig->cg = rig->pc->CreateCgroup("/reclaim", kCgroupPages * kPageSize);

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

PageCacheOptions BackgroundOptions() {
  PageCacheOptions options;
  options.reclaim.background = true;
  return options;
}

// Overshoot tolerance: one allocation plus a full readahead window can land
// between two pressure checks, so transient excursions above the limit up
// to that burst are expected; anything larger means the emergency path
// failed to bound the overshoot.
uint64_t OvershootBound(const PageCacheOptions& options) {
  return 2 * options.max_readahead_pages + 2;
}

// --- Watermark invariants (property sweep) ---------------------------------

TEST(WatermarkTest, DerivePropertySweepUnderConfigChurn) {
  const uint64_t limits[] = {0,    1,    2,    3,     5,     7,
                             63,   64,   100,  1023,  1024,  1025,
                             4096, 1u << 20, (1ull << 40) + 13};
  const WatermarkSpec specs[] = {
      {0, 0},        // degenerate: both ratios zero
      {16, 48},      // defaults
      {48, 16},      // inverted: high ratio below low
      {1024, 1024},  // 100% / 100%
      {5000, 9000},  // > 100%, must clamp
      {1, 2},        // tiny
      {1023, 1024},  // nearly all of the cgroup
  };
  for (uint64_t limit : limits) {
    for (const WatermarkSpec& spec : specs) {
      const Watermarks wm = Watermarks::Derive(limit, spec);
      if (limit < 2) {
        EXPECT_FALSE(wm.Valid()) << "limit=" << limit;
        continue;
      }
      EXPECT_TRUE(wm.Valid())
          << "limit=" << limit << " low/1024=" << spec.low_per_1024
          << " high/1024=" << spec.high_per_1024;
      EXPECT_GE(wm.low_pages, 1u);
      EXPECT_LT(wm.low_pages, wm.high_pages);
      EXPECT_LE(wm.high_pages, wm.limit_pages);
      // The hysteresis band is non-empty and the target is reachable.
      EXPECT_LT(wm.target_charged(), wm.limit_pages);
      EXPECT_TRUE(wm.TargetReached(wm.target_charged()));
      EXPECT_TRUE(wm.NeedsWake(wm.limit_pages));
    }
  }
}

TEST(WatermarkTest, ForCgroupTracksRuntimeChurn) {
  MemCgroup cg(1, "/churn", 1000);
  // Interleave limit changes and ratio changes; the derived watermarks must
  // be valid after every step because they are re-derived per check.
  const uint64_t limit_seq[] = {1000, 4, 2, 1, 77, 1 << 16, 3};
  const uint32_t ratio_seq[][2] = {{16, 48}, {0, 0}, {900, 100}, {1024, 2048}};
  for (uint64_t limit : limit_seq) {
    cg.set_limit_pages(limit);
    for (const auto& ratios : ratio_seq) {
      cg.SetReclaimWatermarks(ratios[0], ratios[1]);
      const Watermarks wm = reclaim::ForCgroup(cg);
      if (limit >= 2) {
        ASSERT_TRUE(wm.Valid()) << "limit=" << limit;
      } else {
        ASSERT_FALSE(wm.Valid()) << "limit=" << limit;
      }
    }
  }
}

// --- Hysteresis ------------------------------------------------------------

TEST(ReclaimControlTest, HysteresisPreventsWakeupThrash) {
  CgroupReclaimControl control(1);
  Watermarks wm;
  wm.limit_pages = 1000;
  wm.low_pages = 100;   // wake when charged > 900
  wm.high_pages = 200;  // sleep when charged <= 800
  ASSERT_TRUE(wm.Valid());

  // Cross the low watermark: exactly one wakeup.
  EXPECT_FALSE(control.ShouldWake(850, wm));
  EXPECT_TRUE(control.ShouldWake(901, wm));
  EXPECT_EQ(control.counters().reclaim_wakeups.load(), 1u);

  // Oscillate around the wake threshold mid-run: the latch holds, the
  // reclaimer keeps running, and no new wakeups are counted.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(control.ShouldWake(i % 2 == 0 ? 899 : 901, wm));
  }
  EXPECT_EQ(control.counters().reclaim_wakeups.load(), 1u);

  // Reaching the high-watermark target releases the latch...
  EXPECT_FALSE(control.ShouldWake(800, wm));
  // ...and oscillating inside the hysteresis band stays asleep.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(control.ShouldWake(i % 2 == 0 ? 850 : 880, wm));
  }
  EXPECT_EQ(control.counters().reclaim_wakeups.load(), 1u);

  // Only crossing low again wakes a second time.
  EXPECT_TRUE(control.ShouldWake(950, wm));
  EXPECT_EQ(control.counters().reclaim_wakeups.load(), 2u);
}

// --- Healthy daemon: allocations never stall -------------------------------

TEST(ReclaimSimTest, BackgroundKeepsAllocationsStallFree) {
  auto rig = MakeRig(BackgroundOptions());
  AccessStream stream(17);
  for (uint64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // The daemon absorbed every bit of eviction work: zero direct-reclaim
  // entries, zero allocation stall time.
  EXPECT_EQ(stats.reclaim_direct_entries, 0u);
  EXPECT_EQ(stats.ext_direct_reclaim_ns, 0u);
  EXPECT_EQ(stats.psi_some_ns, 0u);
  EXPECT_EQ(stats.reclaim_emergency_entries, 0u);
  EXPECT_GE(stats.reclaim_wakeups, 1u);
  EXPECT_GT(stats.reclaim_background_batches, 0u);
  EXPECT_GT(stats.reclaim_background_evicted, 0u);
  EXPECT_GT(stats.ext_background_reclaim_ns, 0u);
  EXPECT_FALSE(stats.oom_killed);
  // Steady state sits at (or below) the hard limit.
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
  EXPECT_TRUE(stats.reclaim_health == LaneHealth::kIdle ||
              stats.reclaim_health == LaneHealth::kRunning);
}

TEST(ReclaimSimTest, InlineAblationAccountsDirectReclaim) {
  auto rig = MakeRig(PageCacheOptions{});  // reclaim.background = false
  AccessStream stream(17);
  for (uint64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // The accounting gap this PR closes: inline eviction cost is now visible
  // as ext_direct_reclaim_ns / PSI instead of vanishing into miss latency.
  EXPECT_GT(stats.reclaim_direct_entries, 0u);
  EXPECT_GT(stats.reclaim_direct_evicted, 0u);
  EXPECT_GT(stats.ext_direct_reclaim_ns, 0u);
  EXPECT_EQ(stats.psi_some_ns, stats.ext_direct_reclaim_ns);
  EXPECT_EQ(stats.reclaim_background_batches, 0u);
  EXPECT_EQ(stats.ext_background_reclaim_ns, 0u);
  EXPECT_EQ(stats.reclaim_wakeups, 0u);
}

// Background reclaim must not change what is served, only who pays for
// eviction: hit rates of the two modes stay close.
TEST(ReclaimSimTest, BackgroundModeServesSameContentsAndSimilarHitRate) {
  double hit_rate[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    PageCacheOptions options;
    options.reclaim.background = mode == 1;
    auto rig = MakeRig(options);
    AccessStream stream(23);
    for (uint64_t i = 0; i < 6000; ++i) {
      ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
    hit_rate[mode] = rig->cg->HitRate();
  }
  // The daemon keeps `high` watermark pages of headroom free, so its hit
  // rate may dip slightly; with default ratios on a 64-page cgroup that is
  // ~3 pages of working set — a few percent at most.
  EXPECT_NEAR(hit_rate[0], hit_rate[1], 0.05);
}

// --- Chaos: stalled / killed / under-reclaiming daemon ---------------------

TEST(ReclaimChaosTest, StalledReclaimerDegradesToDirectWithoutDeadlock) {
  auto rig = MakeRig(BackgroundOptions());
  // Wedge the lane forever: every tick fires the stall, magnitude refills
  // faster than ticks can drain it.
  ScopedFault stall(fault::points::kReclaimStall,
                    {.every_kth = 1, .magnitude = 1u << 30});
  AccessStream stream(29);
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // Degradation, not deadlock: the watchdog tripped, emergency direct
  // reclaim carried the load, overshoot stayed bounded, nobody OOMed.
  EXPECT_GE(stats.reclaim_watchdog_trips, 1u);
  EXPECT_EQ(stats.reclaim_health, LaneHealth::kStalled);
  EXPECT_GT(stats.reclaim_emergency_entries, 0u);
  EXPECT_GT(stats.reclaim_direct_entries, 0u);
  EXPECT_GT(stats.ext_direct_reclaim_ns, 0u);
  EXPECT_GT(stats.reclaim_stalled_ticks, 0u);
  EXPECT_EQ(stats.reclaim_background_evicted, 0u);
  EXPECT_LE(stats.reclaim_max_overshoot_pages,
            OvershootBound(rig->pc->options()));
  EXPECT_FALSE(stats.oom_killed);
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());

  // The (lockless) hit path still serves while the daemon is wedged.
  const uint64_t hits_before = rig->cg->stat_hits.load();
  ASSERT_TRUE(rig->ReadPage(0).ok());
  ASSERT_TRUE(rig->ReadPage(0).ok());
  EXPECT_GT(rig->cg->stat_hits.load(), hits_before);
}

TEST(ReclaimChaosTest, HealedStallIsDetectedAsRecovered) {
  auto rig = MakeRig(BackgroundOptions());
  {
    // A transient wedge: one fire, a handful of stalled ticks, then heals.
    ScopedFault stall(fault::points::kReclaimStall,
                      {.on_nth = 1, .max_fires = 1, .magnitude = 4});
    AccessStream stream(31);
    for (uint64_t i = 0; i < 6000; ++i) {
      ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
    }
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  // The stall consumed ticks, the watchdog saw it, and after the heal the
  // backed-off probes revived the lane: it is no longer reported stalled
  // and background reclaim made progress again.
  EXPECT_GT(stats.reclaim_stalled_ticks, 0u);
  EXPECT_GT(stats.reclaim_background_evicted, 0u);
  EXPECT_TRUE(stats.reclaim_health == LaneHealth::kIdle ||
              stats.reclaim_health == LaneHealth::kRunning)
      << "health=" << reclaim::LaneHealthName(stats.reclaim_health);
  EXPECT_FALSE(stats.oom_killed);
}

TEST(ReclaimChaosTest, DeadReclaimerFallsBackToBoundedDirect) {
  auto rig = MakeRig(BackgroundOptions());
  ScopedFault death(fault::points::kReclaimThreadDeath, {.on_nth = 1});
  AccessStream stream(37);
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_EQ(stats.reclaim_health, LaneHealth::kDead);
  EXPECT_GE(stats.reclaim_watchdog_trips, 1u);
  EXPECT_GT(stats.reclaim_direct_entries, 0u);
  EXPECT_EQ(stats.reclaim_background_evicted, 0u);
  EXPECT_LE(stats.reclaim_max_overshoot_pages,
            OvershootBound(rig->pc->options()));
  EXPECT_FALSE(stats.oom_killed);
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
  EXPECT_GT(rig->cg->stat_hits.load(), 0u);
}

TEST(ReclaimChaosTest, OvershootFaultIsBoundedByEmergencyPath) {
  auto rig = MakeRig(BackgroundOptions());
  // The daemon under-reclaims on every other tick: occupancy repeatedly
  // drifts to the hard limit and the emergency path must contain it.
  ScopedFault overshoot(fault::points::kReclaimOvershoot, {.every_kth = 2});
  AccessStream stream(41);
  for (uint64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_LE(stats.reclaim_max_overshoot_pages,
            OvershootBound(rig->pc->options()));
  EXPECT_FALSE(stats.oom_killed);
  EXPECT_LE(rig->cg->charged_pages(), rig->cg->limit_pages());
}

// --- Circuit-breaker feed: broken ext policy under reclaim -----------------

TEST(ReclaimQuarantineTest, ExtReclaimFailureFeedsQuarantine) {
  PageCacheOptions options;
  options.reclaim.ext_failure_limit = 4;  // opt-in escalation
  auto rig = MakeRig(options);

  policies::PolicyManager manager(rig->pc.get());
  policies::PolicyParams params;
  params.capacity_pages = rig->cg->limit_pages();
  // The noop policy never proposes candidates: with the escalation knob on,
  // a few fallback-rescued reclaim rounds are an unambiguous failure streak.
  ASSERT_TRUE(manager.Request(rig->cg, "noop", params).ok());

  AccessStream stream(43);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_GE(stats.ext_reclaim_failures, 4u);
  EXPECT_TRUE(stats.ext_detached_by_watchdog);
  EXPECT_GT(stats.fallback_evictions, 0u);
  EXPECT_FALSE(stats.oom_killed);

  // The manager's poll turns the latched detach into revert + quarantine.
  manager.Poll();
  const auto quarantine = manager.QuarantineFor(rig->cg);
  EXPECT_TRUE(quarantine.quarantined);
  EXPECT_EQ(manager.PolicyFor(rig->cg), "");
}

// The default (ext_failure_limit = 0) must NOT escalate: the noop policy
// legitimately relies on the base-policy fallback (Table 4's overhead
// baseline) and stays attached forever.
TEST(ReclaimQuarantineTest, NoopPolicyIsNotEscalatedByDefault) {
  auto rig = MakeRig(PageCacheOptions{}, "noop");
  AccessStream stream(47);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(rig->ReadPage(stream.NextPage()).ok());
  }
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_GT(stats.ext_reclaim_failures, 0u);  // counted...
  EXPECT_FALSE(stats.ext_detached_by_watchdog);  // ...but never escalated
  EXPECT_GT(stats.fallback_evictions, 0u);
}

// --- Real reclaimer threads vs real allocator threads ----------------------

TEST(ReclaimThreadedTest, ConcurrentAllocateVsReclaimNeverCorrupts) {
  PageCacheOptions options;
  options.reclaim.background = true;
  options.reclaim.use_threads = true;
  options.reclaim.nr_threads = 2;
  options.reclaim.thread_poll_us = 50;
  auto rig = MakeRig(options, "lfu");

  constexpr int kReaders = 4;
  constexpr uint64_t kOpsPerReader = 4000;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Lane lane(100 + t, TaskContext{100 + t, 100 + t}, 1000 + t);
      AccessStream stream(59 + t);
      for (uint64_t i = 0; i < kOpsPerReader; ++i) {
        if (!rig->ReadPage(lane, stream.NextPage()).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Policy churn while reclaimer threads are mid-batch: detach/attach races
  // the daemon's dispatch (both serialize on the cgroup lock — the race is
  // the point of the test, TSan arbitrates).
  std::thread churn([&] {
    for (int i = 0; i < 20; ++i) {
      (void)rig->loader->Detach(rig->cg);
      policies::PolicyParams params;
      params.capacity_pages = rig->cg->limit_pages();
      auto bundle = policies::MakePolicy("lfu", params);
      if (bundle.ok()) {
        (void)rig->loader->Attach(rig->cg, std::move(bundle->ops),
                                  rig->pc->options().costs);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& reader : readers) {
    reader.join();
  }
  churn.join();

  // Every read succeeded with correct contents (a pinned folio was never
  // freed under a reader), and the cgroup is not stuck over its limit.
  EXPECT_EQ(failures.load(), 0u);
  const CgroupCacheStats stats = rig->pc->StatsFor(rig->cg);
  EXPECT_FALSE(stats.oom_killed);
  EXPECT_LE(rig->cg->charged_pages(),
            rig->cg->limit_pages() + OvershootBound(rig->pc->options()));
  // Destruction joins the reclaimer pool before EBR teardown (no use-after
  // -free under ASan/TSan) — exercised implicitly when `rig` goes away.
}

}  // namespace
}  // namespace cache_ext
