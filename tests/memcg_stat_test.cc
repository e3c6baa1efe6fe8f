// The per-cgroup counter table (src/cgroup/memcg_stat.h): the table is well
// formed, ForEachStat covers exactly the counter fields of CgroupCacheStats,
// and every counter moves in at least one small scenario (no dead
// counters). Some scenarios arm fault points, so the file carries the ctest
// label "chaos".

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "src/bpf/ir/compile.h"
#include "src/cache_ext/loader.h"
#include "src/cgroup/memcg_stat.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/ir_policies.h"
#include "src/policies/policy_factory.h"

namespace cache_ext {
namespace {

using bpf::verifier::Hook;
using fault::ScopedFault;

// --- The table ---------------------------------------------------------

constexpr size_t CountVisited() {
  CgroupCacheStats stats;
  size_t visited = 0;
  ForEachStat(stats, [&visited](const StatDesc&, uint64_t) { ++visited; });
  return visited;
}
constexpr size_t kNumStats = CountVisited();

// CgroupCacheStats opens with its uint64_t counter fields and the hand-
// written non-counter state starts right after them: the visitor sees as
// many entries as there are counter fields.
static_assert(offsetof(CgroupCacheStats, ext_detached_by_watchdog) ==
              kNumStats * sizeof(uint64_t));

TEST(MemcgStatTableTest, NamesAreUniqueNonEmptySnakeCase) {
  const CgroupCacheStats stats;
  std::set<std::string_view> names;
  ForEachStat(stats, [&names](const StatDesc& desc, uint64_t) {
    EXPECT_FALSE(desc.name.empty());
    EXPECT_EQ(desc.name.find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyz0123456789_"),
              std::string_view::npos)
        << desc.name;
    EXPECT_FALSE(desc.help.empty()) << desc.name;
    EXPECT_TRUE(names.insert(desc.name).second) << "duplicate " << desc.name;
  });
  EXPECT_EQ(names.size(), kNumStats);
}

TEST(MemcgStatTableTest, ForEachStatVisitsEachCounterFieldOnceInOrder) {
  CgroupCacheStats stats;
  const auto* base = reinterpret_cast<const unsigned char*>(&stats);
  size_t i = 0;
  ForEachStat(stats, [&](const StatDesc& desc, uint64_t& field) {
    EXPECT_EQ(reinterpret_cast<const unsigned char*>(&field) - base,
              static_cast<ptrdiff_t>(i * sizeof(uint64_t)))
        << desc.name;
    ++i;
  });
  EXPECT_EQ(i, kNumStats);
}

// --- No dead counters ----------------------------------------------------

struct Rig {
  explicit Rig(const PageCacheOptions& options, uint64_t limit_pages)
      : pc(&disk, &ssd, options), loader(&pc) {
    cg = pc.CreateCgroup("/stat", limit_pages * kPageSize);
    auto opened = pc.OpenFile("/data");
    CHECK(opened.ok());
    as = *opened;
    CHECK(disk.Truncate(as->file(), 512 * kPageSize).ok());
  }

  void Read(uint64_t index) {
    std::vector<uint8_t> buf(kPageSize);
    ASSERT_TRUE(
        pc.Read(lane, as, cg, index * kPageSize, std::span<uint8_t>(buf))
            .ok());
  }
  void Write(uint64_t index) {
    std::vector<uint8_t> buf(kPageSize, static_cast<uint8_t>(index));
    ASSERT_TRUE(pc.Write(lane, as, cg, index * kPageSize,
                         std::span<const uint8_t>(buf))
                    .ok());
  }
  void Attach(std::string_view policy) {
    policies::PolicyParams params;
    params.capacity_pages = cg->limit_pages();
    auto bundle = policies::MakePolicy(policy, params);
    ASSERT_TRUE(bundle.ok());
    ASSERT_TRUE(loader.Attach(cg, std::move(bundle->ops)).ok());
  }

  SimDisk disk;
  SsdModel ssd;
  PageCache pc;
  CacheExtLoader loader;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
  Lane lane{0, TaskContext{1, 1}, 1};
};

PageCacheOptions Background(bool reclaim, bool writeback) {
  PageCacheOptions options;
  options.reclaim.background = reclaim;
  options.writeback.background = writeback;
  return options;
}

class MemcgStatCoverageTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  void Note(Rig& rig) {
    const CgroupCacheStats stats = rig.pc.StatsFor(rig.cg);
    size_t i = 0;
    ForEachStat(stats, [this, &i](const StatDesc&, uint64_t value) {
      moved_[i++] |= value != 0;
    });
  }

  std::array<bool, kNumStats> moved_{};
};

TEST_F(MemcgStatCoverageTest, EveryCounterMovesInSomeScenario) {
  {
    // lfu with a readahead window past max_readahead_pages and order-4
    // admission: scoring arena, readahead clamp, multi-order folios and
    // their misalignment fallbacks, lockless hits, inline direct reclaim.
    // The first load leaves the new hooks out of the ProgramSpec and is
    // rejected by the verifier.
    Rig rig(PageCacheOptions{}, 128);
    policies::PolicyParams params;
    params.capacity_pages = rig.cg->limit_pages();
    auto lfu = policies::MakePolicy("lfu", params);
    ASSERT_TRUE(lfu.ok());
    Ops ops = std::move(lfu->ops);
    ops.readahead = [](CacheExtApi&, const ReadaheadCtx&) -> int64_t {
      return 64;
    };
    ops.admit_order = [](CacheExtApi&, const AdmitOrderCtx&) -> uint32_t {
      return 4;
    };
    EXPECT_FALSE(rig.loader.Attach(rig.cg, ops).ok());
    ops.spec.DeclareHook(Hook::kReadahead, 0).DeclareHook(Hook::kAdmitOrder, 0);
    ASSERT_TRUE(rig.loader.Attach(rig.cg, std::move(ops)).ok());
    for (int round = 0; round < 3; ++round) {
      for (uint64_t index = 0; index < 512; index += 5) {
        rig.Read(index);
      }
    }
    // A partial DONTNEED over an order-4 folio splits it.
    ASSERT_TRUE(rig.pc
                    .FadviseRange(rig.lane, rig.as, rig.cg, Fadvise::kDontNeed,
                                  0, 512 * kPageSize)
                    .ok());
    rig.Read(0);
    ASSERT_EQ(rig.as->FindFolio(0)->nr_pages(), 16u);
    ASSERT_TRUE(rig.pc
                    .FadviseRange(rig.lane, rig.as, rig.cg, Fadvise::kDontNeed,
                                  4 * kPageSize, 4 * kPageSize)
                    .ok());
    Note(rig);
  }
  {
    // Writes and fsync with background reclaim and background writeback,
    // under ir_wb_lsm (a JIT-compiled policy whose should_writeback defers
    // small cold blocks). dirty_pages is a gauge: sampled before the sync.
    Rig rig(Background(true, true), 64);
    auto wb = bpf::ir::CompileToOps(policies::IrWbLsmPolicy());
    ASSERT_TRUE(wb.ok());
    ASSERT_TRUE(rig.loader.Attach(rig.cg, std::move(*wb)).ok());
    for (uint64_t index = 0; index < 192; ++index) {
      rig.Write(index);
    }
    Note(rig);
    ASSERT_TRUE(rig.pc.SyncFile(rig.lane, rig.as).ok());
    Note(rig);
  }
  {
    // Admission denies odd pages (read and written uncached) and the
    // policy proposes no victims, so the base fallback does the evicting.
    Rig rig(PageCacheOptions{}, 32);
    Ops ops;
    ops.name = "deny_odd";
    ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
    ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
    ops.folio_added = [](CacheExtApi&, Folio*) {};
    ops.folio_accessed = [](CacheExtApi&, Folio*) {};
    ops.folio_removed = [](CacheExtApi&, Folio*) {};
    ops.admit_folio = [](CacheExtApi&, const AdmissionCtx& ctx) {
      return ctx.index % 2 == 0;
    };
    ASSERT_TRUE(rig.loader.Attach(rig.cg, std::move(ops)).ok());
    for (uint64_t index = 0; index < 128; ++index) {
      rig.Read(index);
      rig.Write(index);
    }
    Note(rig);
  }
  {
    // Every resident folio pinned: direct reclaim makes no progress (PSI
    // full) until the cgroup is OOM-killed.
    Rig rig(PageCacheOptions{}, 2);
    ASSERT_TRUE(rig.pc
                    .FadviseRange(rig.lane, rig.as, rig.cg, Fadvise::kRandom,
                                  0, 0)
                    .ok());
    std::vector<Folio*> pinned;
    for (uint64_t index = 0; index < 2; ++index) {
      rig.Read(index);
      pinned.push_back(rig.as->FindFolio(index));
      ASSERT_NE(pinned.back(), nullptr);
      pinned.back()->Pin();
    }
    std::vector<uint8_t> buf(kPageSize);
    EXPECT_FALSE(rig.pc
                     .Read(rig.lane, rig.as, rig.cg, 2 * kPageSize,
                           std::span<uint8_t>(buf))
                     .ok());
    for (Folio* folio : pinned) {
      folio->Unpin();
    }
    Note(rig);
  }
  {
    // cache_ext.candidate.corrupt: every eviction batch carries a forged
    // candidate, rejected by registry validation.
    Rig rig(PageCacheOptions{}, 64);
    rig.Attach("lfu");
    ScopedFault corrupt(fault::points::kCandidateCorrupt, {.every_kth = 1});
    for (uint64_t index = 0; index < 256; ++index) {
      rig.Read(index);
    }
    Note(rig);
  }
  {
    // jit.compile_fail: ir_lfu runs every hook on the interpreter.
    ScopedFault fail(fault::points::kJitCompileFail, {.every_kth = 1});
    Rig rig(PageCacheOptions{}, 64);
    rig.Attach("ir_lfu");
    for (uint64_t index = 0; index < 256; ++index) {
      rig.Read(index % 96);
    }
    Note(rig);
  }
  {
    // reclaim.stall wedges the reclaimer lane: the allocator watchdog trips
    // and emergency direct reclaim carries the load.
    Rig rig(Background(true, false), 64);
    ScopedFault stall(fault::points::kReclaimStall,
                      {.every_kth = 1, .magnitude = 1u << 30});
    for (uint64_t index = 0; index < 512; ++index) {
      rig.Read(index);
    }
    Note(rig);
  }
  {
    // The writeback.* faults, each with the dirty thresholds its effect
    // needs: a stalled flusher throttles writers, a kick is dropped, and a
    // tick planning two extents dies after the first.
    struct WritebackFault {
      std::string_view point;
      fault::FaultSchedule schedule;
      uint32_t bg_per_1024;
      uint32_t dirty_per_1024;
    };
    for (const WritebackFault& f : {
             WritebackFault{fault::points::kWritebackStall,
                            {.on_nth = 1, .magnitude = 100000}, 16, 32},
             WritebackFault{fault::points::kWritebackLostWakeup,
                            {.on_nth = 1}, kDefaultDirtyBgPer1024,
                            kDefaultDirtyPer1024},
             WritebackFault{fault::points::kWritebackPartialFlush,
                            {.on_nth = 1}, 112, 900},
         }) {
      Rig rig(Background(false, true), 256);
      rig.cg->SetDirtyRatios(f.bg_per_1024, f.dirty_per_1024);
      ScopedFault armed(f.point, f.schedule);
      for (uint64_t index = 0; index < 16; ++index) {
        rig.Write(index);
        rig.Write(100 + index);
      }
      Note(rig);
    }
  }
  {
    // A lockless hit can only lose its race to a concurrent remover, so
    // one thread re-reads a small file while another drops it with
    // DONTNEED, until a reader's pin finds a frozen folio.
    Rig rig(PageCacheOptions{}, 64);
    constexpr uint64_t kPages = 8;
    for (uint64_t index = 0; index < kPages; ++index) {
      rig.Read(index);
    }
    std::atomic<bool> stop{false};
    std::thread invalidator([&rig, &stop] {
      Lane lane(1, TaskContext{2, 2}, 2);
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_TRUE(rig.pc
                        .FadviseRange(lane, rig.as, rig.cg, Fadvise::kDontNeed,
                                      0, kPages * kPageSize)
                        .ok());
      }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::vector<uint8_t> buf(kPageSize);
    while (rig.pc.StatsFor(rig.cg).ext_lockless_retries == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(rig.pc
                        .Read(rig.lane, rig.as, rig.cg,
                              (i % kPages) * kPageSize,
                              std::span<uint8_t>(buf))
                        .ok());
      }
    }
    stop.store(true, std::memory_order_relaxed);
    invalidator.join();
    Note(rig);
  }

  const CgroupCacheStats names;
  size_t i = 0;
  ForEachStat(names, [this, &i](const StatDesc& desc, uint64_t) {
    EXPECT_TRUE(moved_[i++]) << desc.name << " stayed 0 in every scenario";
  });
}

}  // namespace
}  // namespace cache_ext
