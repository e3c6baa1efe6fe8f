// Deterministic unit tests for the EBR subsystem (src/util/ebr) and the
// folio freeze/TryPin protocol that the lockless read path builds on it.
// The EBR counters are process-global and cumulative, so every assertion
// works on deltas, never absolutes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/mm/folio.h"
#include "src/mm/xarray.h"
#include "src/util/ebr.h"

namespace cache_ext {
namespace {

struct FlagOnDelete {
  explicit FlagOnDelete(std::atomic<bool>* flag) : flag(flag) {}
  ~FlagOnDelete() { flag->store(true, std::memory_order_seq_cst); }
  std::atomic<bool>* flag;
};

TEST(EbrTest, RetireWithoutReadersFreesImmediately) {
  // No active readers: Retire's opportunistic double-advance completes a
  // full grace period inline, preserving eager-delete semantics for the
  // single-threaded tests and tools that predate EBR.
  const uint64_t freed_before = ebr::FreedCount();
  std::atomic<bool> freed{false};
  ebr::Retire(new FlagOnDelete(&freed));
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(ebr::FreedCount(), freed_before + 1);
}

TEST(EbrTest, ActiveReaderDefersFreeUntilGuardExitAndSynchronize) {
  std::atomic<int> stage{0};
  std::thread reader([&stage] {
    ebr::Guard guard;
    stage.store(1, std::memory_order_seq_cst);
    while (stage.load(std::memory_order_seq_cst) < 2) {
      std::this_thread::yield();
    }
  });
  while (stage.load(std::memory_order_seq_cst) < 1) {
    std::this_thread::yield();
  }

  // The reader is pinned at some epoch E. Retiring now tags the object
  // with E; the grace period cannot elapse (the second advance needs the
  // reader off E), so the object stays deferred however many advances we
  // attempt.
  std::atomic<bool> freed{false};
  ebr::Retire(new FlagOnDelete(&freed));
  for (int i = 0; i < 8; ++i) {
    ebr::TryAdvance();
  }
  EXPECT_FALSE(freed.load());
  EXPECT_GE(ebr::RetiredCount(), 1u);
  EXPECT_GE(ebr::ActiveReaders(), 1u);

  stage.store(2, std::memory_order_seq_cst);
  reader.join();
  ebr::Synchronize();  // a full grace period after the reader left
  EXPECT_TRUE(freed.load());
}

TEST(EbrTest, NestedGuardsKeepOneOutermostPin) {
  EXPECT_EQ(ebr::ActiveReaders(), 0u);
  {
    ebr::Guard outer;
    EXPECT_EQ(ebr::ActiveReaders(), 1u);
    {
      ebr::Guard inner;
      EXPECT_EQ(ebr::ActiveReaders(), 1u);  // nested: same pin
    }
    // Leaving the inner guard must not release the outer pin: an object
    // retired now must stay deferred until the *outer* guard exits.
    EXPECT_EQ(ebr::ActiveReaders(), 1u);
  }
  EXPECT_EQ(ebr::ActiveReaders(), 0u);
}

TEST(EbrTest, QuiescentRetireFreesTheWholeBacklog) {
  // A backlog deferred behind a reader is freed by the first retire after
  // the reader leaves, together with that retire's own object: more frees
  // than one retire usually collects, all before Retire returns.
  constexpr int kBacklog = 20;
  std::atomic<int> stage{0};
  std::thread reader([&stage] {
    ebr::Guard guard;
    stage.store(1, std::memory_order_seq_cst);
    while (stage.load(std::memory_order_seq_cst) < 2) {
      std::this_thread::yield();
    }
  });
  while (stage.load(std::memory_order_seq_cst) < 1) {
    std::this_thread::yield();
  }
  std::atomic<int> freed{0};
  const auto count_free = [](void* p) {
    static_cast<std::atomic<int>*>(p)->fetch_add(1);
  };
  for (int i = 0; i < kBacklog; ++i) {
    ebr::Retire(&freed, count_free);
  }
  EXPECT_EQ(freed.load(), 0);
  stage.store(2, std::memory_order_seq_cst);
  reader.join();

  ebr::Retire(&freed, count_free);
  EXPECT_EQ(freed.load(), kBacklog + 1);
  EXPECT_EQ(ebr::RetiredCount(), 0u);
}

TEST(EbrTest, RetireUnderOwnGuardIsDeferredUntilExit) {
  // A thread may retire while itself inside a guard (the page cache never
  // does, but nothing forbids it): its own pin blocks the grace period.
  std::atomic<bool> freed{false};
  {
    ebr::Guard guard;
    ebr::Retire(new FlagOnDelete(&freed));
    EXPECT_FALSE(freed.load());
  }
  ebr::Synchronize();
  EXPECT_TRUE(freed.load());
}

TEST(EbrTest, SynchronizeDrainsEverythingRetiredBefore) {
  const uint64_t freed_before = ebr::FreedCount();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  std::atomic<int> freed_flags{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&freed_flags] {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the retires happen under a guard so some grace periods are
        // genuinely blocked mid-run.
        if (i % 2 == 0) {
          ebr::Guard guard;
          ebr::Retire(static_cast<void*>(&freed_flags), [](void* p) {
            static_cast<std::atomic<int>*>(p)->fetch_add(1);
          });
        } else {
          ebr::Retire(static_cast<void*>(&freed_flags), [](void* p) {
            static_cast<std::atomic<int>*>(p)->fetch_add(1);
          });
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ebr::Synchronize();
  EXPECT_EQ(freed_flags.load(), kThreads * kPerThread);
  EXPECT_EQ(ebr::FreedCount(), freed_before + kThreads * kPerThread);
  EXPECT_EQ(ebr::RetiredCount(), 0u);
}

TEST(EbrTest, ThreadExitReleasesSlotsForReuse) {
  // Far more threads than the domain has slots, sequentially: each thread's
  // exit must recycle its slot or AcquireSlot would eventually abort.
  for (int i = 0; i < 200; ++i) {
    std::thread t([] {
      ebr::Guard guard;
      std::atomic<bool> freed{false};
      ebr::Retire(new FlagOnDelete(&freed));
    });
    t.join();
  }
  ebr::Synchronize();
  EXPECT_EQ(ebr::RetiredCount(), 0u);
  EXPECT_EQ(ebr::ActiveReaders(), 0u);
}

// --- freeze / TryPin protocol (the lockless retry path, deterministically) --

TEST(EbrTest, TryFreezeFailsWhilePinnedAndTryPinFailsAfterFreeze) {
  Folio folio;
  // Speculative reader wins the race: the folio is pinned, so a remover
  // cannot freeze it and must leave it in the cache.
  ASSERT_TRUE(folio.TryPin());
  EXPECT_TRUE(folio.pinned());
  EXPECT_FALSE(folio.TryFreeze());
  EXPECT_FALSE(folio.frozen());

  // Reader done; now the remover wins. After the freeze no speculative
  // reader can take a new reference — this is what forces LocklessLookup
  // into its retry/slow path.
  folio.Unpin();
  EXPECT_TRUE(folio.TryFreeze());
  EXPECT_TRUE(folio.frozen());
  EXPECT_FALSE(folio.pinned());  // frozen, not pinned
  EXPECT_FALSE(folio.TryPin());
  EXPECT_FALSE(folio.TryFreeze());  // freeze is once-only
}

TEST(EbrTest, LocklessLoadSeesEntryOrMissNeverGarbage) {
  // The raw ingredients of PageCache::LocklessLookup, deterministically:
  // an xarray mapping index -> folio, a reader that loads + TryPins under
  // a guard, and a remover that freezes, unmaps, and retires. Interleaved
  // by hand at every commit point.
  XArray xa;
  Folio* folio = new Folio();
  folio->index = 77;
  xa.Store(77, XEntry::FromPointer(folio));

  {
    // Reader enters before the removal: load + pin succeed, and the folio
    // stays valid for the whole guard even after the remover retires it.
    ebr::Guard guard;
    Folio* seen = xa.Load(77).AsPointer<Folio>();
    ASSERT_EQ(seen, folio);
    ASSERT_TRUE(seen->TryPin());
    EXPECT_EQ(seen->index, 77u);
    seen->Unpin();

    // Remover commits while the reader still holds its guard.
    ASSERT_TRUE(folio->TryFreeze());
    xa.Store(77, XEntry::Empty());
    ebr::Retire(folio);

    // Reader retries: the slot is gone (miss), and the frozen folio it may
    // still hold a pointer to refuses a new pin — exactly the retry path.
    EXPECT_TRUE(xa.Load(77).IsEmpty());
    EXPECT_FALSE(folio->TryPin());
    // Under our guard the retired folio is still allocated (readable).
    EXPECT_EQ(folio->index, 77u);
  }
  ebr::Synchronize();  // now it is actually freed
}

TEST(EbrTest, XarrayPruneDefersNodeFreesToEbr) {
  // Erasing the only entry of a deep tree prunes its interior nodes; with
  // no readers the opportunistic advance frees them inline, which the
  // global freed counter observes.
  const uint64_t freed_before = ebr::FreedCount();
  XArray xa;
  xa.Store(1ULL << 30, XEntry::FromValue(42));
  EXPECT_EQ(xa.Load(1ULL << 30).AsValue(), 42u);
  xa.Store(1ULL << 30, XEntry::Empty());
  EXPECT_TRUE(xa.Load(1ULL << 30).IsEmpty());
  ebr::Synchronize();
  EXPECT_GT(ebr::FreedCount(), freed_before);
}

TEST(EbrTest, FromValueRejectsPayloadsAbove63Bits) {
  EXPECT_DEATH(XEntry::FromValue(1ULL << 63), "");
  // The largest representable payload round-trips.
  const XEntry entry = XEntry::FromValue((1ULL << 63) - 1);
  EXPECT_TRUE(entry.IsValue());
  EXPECT_EQ(entry.AsValue(), (1ULL << 63) - 1);
}

}  // namespace
}  // namespace cache_ext
