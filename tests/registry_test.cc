// Unit + concurrency tests for the valid-folio registry (§4.4).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/registry.h"
#include "src/util/rng.h"

namespace cache_ext {
namespace {

TEST(RegistryTest, InsertContainsRemove) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_FALSE(registry.Contains(&folio));
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_TRUE(registry.Contains(&folio));
  EXPECT_EQ(registry.Size(), 1u);
  EXPECT_TRUE(registry.Remove(&folio));
  EXPECT_FALSE(registry.Contains(&folio));
  EXPECT_EQ(registry.Size(), 0u);
}

TEST(RegistryTest, DoubleInsertRejected) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_FALSE(registry.Insert(&folio));
  EXPECT_EQ(registry.Size(), 1u);
}

TEST(RegistryTest, RemoveMissingFails) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_FALSE(registry.Remove(&folio));
}

TEST(RegistryTest, GarbagePointersNotContained) {
  FolioRegistry registry(64);
  Folio real;
  registry.Insert(&real);
  // A malicious policy returns arbitrary pointers: never "contained", and
  // Contains never dereferences them.
  EXPECT_FALSE(registry.Contains(reinterpret_cast<Folio*>(0xDEADBEEF)));
  EXPECT_FALSE(registry.Contains(nullptr));
  EXPECT_FALSE(registry.Contains(&real + 1));
}

TEST(RegistryTest, FindReturnsNodeWithBackPointer) {
  FolioRegistry registry(64);
  Folio folio;
  registry.Insert(&folio);
  ExtListNode* node = registry.Find(&folio);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->folio, &folio);
  EXPECT_FALSE(node->OnList());
  EXPECT_EQ(registry.Find(reinterpret_cast<Folio*>(0x123)), nullptr);
}

TEST(RegistryTest, SingleBucketDegenerateCase) {
  FolioRegistry registry(1);  // all folios collide into one bucket
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 100; ++i) {
    folios.push_back(std::make_unique<Folio>());
    EXPECT_TRUE(registry.Insert(folios.back().get()));
  }
  EXPECT_EQ(registry.Size(), 100u);
  for (auto& folio : folios) {
    EXPECT_TRUE(registry.Contains(folio.get()));
    EXPECT_TRUE(registry.Remove(folio.get()));
  }
  EXPECT_EQ(registry.Size(), 0u);
}

TEST(RegistryTest, ZeroBucketRequestClampedToOne) {
  FolioRegistry registry(0);
  EXPECT_EQ(registry.nr_buckets(), 1u);
  Folio folio;
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_TRUE(registry.Contains(&folio));
}

TEST(RegistryTest, MemoryAccountingMatchesPaper) {
  // §6.3.1: 16 bytes per bucket, 32 more per filled entry.
  FolioRegistry registry(1000);
  EXPECT_EQ(registry.MemoryBytes(), 16000u);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 10; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  EXPECT_EQ(registry.MemoryBytes(), 16000u + 10 * 32);
  // Worst-case overhead vs cgroup memory: buckets = pages -> 16/4096 = 0.4%,
  // full registry 48/4096 ~= 1.2%.
  const double empty_overhead = 16.0 / 4096.0;
  EXPECT_NEAR(empty_overhead, 0.004, 0.0005);
}

TEST(RegistryTest, ConcurrentInsertRemoveContains) {
  FolioRegistry registry(256);
  constexpr int kThreads = 4;
  constexpr int kFoliosPerThread = 2000;
  std::vector<std::vector<std::unique_ptr<Folio>>> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFoliosPerThread; ++i) {
      per_thread[t].push_back(std::make_unique<Folio>());
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &per_thread, t] {
      for (int round = 0; round < 3; ++round) {
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Insert(folio.get()));
        }
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Contains(folio.get()));
        }
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Remove(folio.get()));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(registry.Size(), 0u);
}

// --- Owner slots: the trusted lookup ---------------------------------------

TEST(RegistryOwnershipTest, TrustedLookupAgreesWithHashAcrossInsertRemove) {
  FolioRegistry registry(16);  // small: chains of several entries
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 64; ++i) {
    folios.push_back(std::make_unique<Folio>());
  }
  Rng rng(0xB0A7);
  for (int step = 0; step < 5000; ++step) {
    Folio* folio = folios[rng.NextU64Below(folios.size())].get();
    if (rng.NextU64Below(2) == 0) {
      registry.Insert(folio);
    } else {
      registry.Remove(folio);
    }
    for (const auto& f : folios) {
      ASSERT_EQ(registry.FindTrusted(f.get()), registry.Find(f.get()))
          << "step " << step;
      ASSERT_EQ(registry.FindTrusted(f.get()) != nullptr,
                registry.Contains(f.get()))
          << "step " << step;
    }
  }
}

TEST(RegistryOwnershipTest, StaleTagFromDestroyedRegistryNeverMatches) {
  Folio folio;
  {
    FolioRegistry old_registry(64);
    ASSERT_TRUE(old_registry.Insert(&folio));
    ASSERT_NE(old_registry.FindTrusted(&folio), nullptr);
  }  // destroyed with the folio still tagged
  FolioRegistry fresh(64);
  EXPECT_EQ(fresh.FindTrusted(&folio), nullptr);
  EXPECT_FALSE(fresh.Contains(&folio));
  ASSERT_TRUE(fresh.Insert(&folio));
  ASSERT_NE(fresh.FindTrusted(&folio), nullptr);
  EXPECT_EQ(fresh.FindTrusted(&folio)->folio, &folio);
}

TEST(RegistryOwnershipTest, FirstAccessAfterReattachReRegisters) {
  MemCgroup cg(1, "/reattach", 64);
  int added = 0;
  int accessed = 0;
  Ops ops;
  ops.name = "counting";
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [&added](CacheExtApi&, Folio*) { ++added; };
  ops.folio_accessed = [&accessed](CacheExtApi&, Folio*) { ++accessed; };
  ops.folio_removed = [](CacheExtApi&, Folio*) {};

  Folio folio;
  {
    CacheExtPolicy first(ops, &cg, CpuCostModel{});
    first.FolioAdded(&folio);
    first.FolioAccessed(&folio);
    EXPECT_EQ(added, 1);
    EXPECT_EQ(accessed, 1);
  }  // detached: the folio keeps the first registry's tag

  CacheExtPolicy second(ops, &cg, CpuCostModel{});
  EXPECT_EQ(second.registry().FindTrusted(&folio), nullptr);
  // The first access re-registers the folio (the added program runs, not
  // the accessed one), and later accesses find it.
  second.FolioAccessed(&folio);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(accessed, 1);
  EXPECT_TRUE(second.registry().Contains(&folio));
  second.FolioAccessed(&folio);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(accessed, 2);
  second.FolioRemoved(&folio);
  EXPECT_FALSE(second.registry().Contains(&folio));
  EXPECT_EQ(second.registry().FindTrusted(&folio), nullptr);
}

// --- Slab -------------------------------------------------------------------

TEST(RegistrySlabTest, WarmSlabAllocatesNoNewChunks) {
  constexpr size_t kFolios = 3 * FolioRegistry::kSlabChunkEntries - 1;
  FolioRegistry registry(1024);
  std::vector<std::unique_ptr<Folio>> folios;
  for (size_t i = 0; i < kFolios; ++i) {
    folios.push_back(std::make_unique<Folio>());
  }
  EXPECT_EQ(registry.slab_chunks(), 0u);
  for (auto& folio : folios) {
    ASSERT_TRUE(registry.Insert(folio.get()));
  }
  const uint64_t warm_chunks = registry.slab_chunks();
  EXPECT_EQ(warm_chunks, 3u);
  for (auto& folio : folios) {
    ASSERT_TRUE(registry.Remove(folio.get()));
  }
  // Admission/eviction churn at or below the warm population reuses freed
  // entries.
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    Folio* folio = folios[rng.NextU64Below(folios.size())].get();
    if (registry.Contains(folio)) {
      ASSERT_TRUE(registry.Remove(folio));
    } else {
      ASSERT_TRUE(registry.Insert(folio));
    }
  }
  EXPECT_EQ(registry.slab_chunks(), warm_chunks);
}

}  // namespace
}  // namespace cache_ext
