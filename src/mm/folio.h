// Folio: the unit of page-cache residency.
//
// Mirrors the kernel's struct folio for the fields eviction policies care
// about: the owning mapping and index, state flags, LRU linkage, and the
// MGLRU generation/tier bookkeeping. Folios are multi-order: a folio of
// order N spans 2^N contiguous pages starting at a 2^N-aligned index (the
// kernel's large-folio / THP-in-the-page-cache analogue). Residency,
// charging, pinning, and hook dispatch are all per-folio, so a 16-page
// folio costs one xarray entry, one pin, and one policy call where 16
// zero-order folios would cost 16 of each.

#ifndef SRC_MM_FOLIO_H_
#define SRC_MM_FOLIO_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "src/mm/folio_storage.h"
#include "src/sim/disk_run.h"
#include "src/util/intrusive_list.h"

namespace cache_ext {

class AddressSpace;
class MemCgroup;
struct ExtListNode;

inline constexpr uint64_t kPageSize = 4096;
static_assert(kPageSize == kDiskPageSize);

enum FolioFlag : uint32_t {
  kFolioReferenced = 1u << 0,  // accessed since last scan
  kFolioActive = 1u << 1,      // on the active list
  kFolioDirty = 1u << 2,       // needs writeback before reclaim
  kFolioUptodate = 1u << 3,    // contents populated from storage
  kFolioWorkingset = 1u << 4,  // refaulted within the workingset window
  kFolioDropBehind = 1u << 5,  // FADV_NOREUSE-style hint: evict early
  kFolioWriteback = 1u << 6,   // device write in flight (PG_writeback)
};

struct Folio {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;  // first page index within the mapping (2^order aligned)
  MemCgroup* memcg = nullptr;

  // Allocation order: the folio spans [index, index + 2^order) pages.
  // Immutable after insertion (splits remove + reinsert, as in the kernel's
  // truncate path), so plain reads are safe wherever the folio is reachable.
  uint8_t order = 0;

  uint64_t nr_pages() const { return 1ull << order; }
  bool Contains(uint64_t page_index) const {
    return page_index >= index && page_index - index < nr_pages();
  }

  // Flags and the pin count are accessed from concurrent lanes: the hit path
  // sets kFolioReferenced under the mapping stripe lock while reclaim clears
  // it under the owning cgroup lock, so both are atomic (relaxed — each bit
  // is an independent hint, like the kernel's folio page-flag bitops).
  std::atomic<uint32_t> flags{0};
  // Pin count: >0 means the kernel is using the folio (in-flight I/O,
  // mapped buffers); pinned folios are not evictable (§4.2.3).
  std::atomic<uint32_t> pins{0};

  // Linkage on the *base* (native) policy's lists. cache_ext eviction lists
  // keep their own nodes in the registry, per §4.2.2.
  ListNode lru;

  // MGLRU bookkeeping (native implementation).
  uint32_t gen = 0;        // generation sequence number this folio belongs to
  uint32_t accesses = 0;   // access count feeding the tier computation

  // BPF folio-local storage slots, one per attached FolioLocalStorage
  // map (the folio-owner analogue of task/inode bpf_local_storage). A
  // slot holds the map's element for this folio; policies reach their
  // per-folio state with one indexed load instead of a hash probe. Set
  // with a CAS by the owning map, detached on every free path by
  // ~Folio via FolioStorageDirectory::OnFolioFree.
  std::array<std::atomic<void*>, kFolioLocalStorageSlots> bpf_storage = {};

  // Owner slot of the cache_ext valid-folio registry (§4.4), in the same
  // spirit as the storage slots above: the id of the registry that last
  // inserted this folio and the folio's list node there, so hook dispatch
  // resolves the node with one load and a tag compare instead of a hash
  // probe. Written by FolioRegistry::Insert and cleared by its Remove.
  // Registry ids are never reused, so a slot left behind by a destroyed
  // registry never matches a live one (src/cache_ext/registry.h).
  std::atomic<uint64_t> ext_registry_id{0};
  std::atomic<ExtListNode*> ext_registry_node{nullptr};

  // Where the folio's bytes live: one reference per page of the span into
  // the immutable runs SimDisk maps those pages to (src/sim/disk_run.h), so
  // a clean folio shares its device pages and a miss copies nothing. Order
  // 0 keeps its reference inline in page0; an order-k folio points `pages`
  // at an array of 2^k (InitPageRefs). The page cache takes them under the
  // mapping stripe before it publishes the folio, and a write-through
  // re-points them under the stripe, retiring each old reference through
  // EBR because a lockless reader may still be copying from it; so readers
  // load them inside an ebr::Guard. The folio's free drops them. `order`
  // says which member is live; sharing one slot keeps the folio in its old
  // allocation size class.
  union {
    std::atomic<const DiskRun*> page0{nullptr};
    std::atomic<const DiskRun*>* pages;
  };

  // Sizes the page references for `order`, which must be set first.
  void InitPageRefs() {
    if (order > 0) {
      pages = new std::atomic<const DiskRun*>[nr_pages()]();
    }
  }
  // The reference of page `page_index` (inside the span).
  std::atomic<const DiskRun*>& PageRef(uint64_t page_index) {
    return order == 0 ? page0 : pages[page_index - index];
  }

  ~Folio() {
    FolioStorageDirectory::Instance().OnFolioFree(this);
    // Freed after its grace period (or by a quiescent cache): no reader can
    // still be copying from these pages.
    if (order == 0) {
      DiskRun::Unref(page0.load(std::memory_order_relaxed));
    } else if (pages != nullptr) {
      for (uint64_t i = 0; i < nr_pages(); ++i) {
        DiskRun::Unref(pages[i].load(std::memory_order_relaxed));
      }
      delete[] pages;
    }
  }

  bool TestFlag(FolioFlag f) const {
    return (flags.load(std::memory_order_relaxed) & f) != 0;
  }
  void SetFlag(FolioFlag f) { flags.fetch_or(f, std::memory_order_relaxed); }
  void ClearFlag(FolioFlag f) {
    flags.fetch_and(~static_cast<uint32_t>(f), std::memory_order_relaxed);
  }
  // Atomically "test and clear" a flag, like folio_test_clear_*.
  bool TestClearFlag(FolioFlag f) {
    const uint32_t old =
        flags.fetch_and(~static_cast<uint32_t>(f), std::memory_order_relaxed);
    return (old & f) != 0;
  }

  // Atomically "test and set" a flag, like folio_test_set_*: returns true
  // iff the flag was already set. Lets a clean->dirty transition be counted
  // exactly once even when concurrent writers race on the same folio.
  bool TestSetFlag(FolioFlag f) {
    const uint32_t old = flags.fetch_or(f, std::memory_order_relaxed);
    return (old & f) != 0;
  }

  // Atomically "test and clear" referenced, like folio_test_clear_referenced.
  bool TestClearReferenced() { return TestClearFlag(kFolioReferenced); }

  // Top bit of `pins`: the folio is *frozen* — its remover won the race
  // and committed to freeing it. Set once (CAS from an unpinned state,
  // under the mapping stripe) and never cleared; TryPin fails on it. The
  // analogue of the kernel freezing a folio's refcount before deleting it
  // from the page cache (folio_ref_freeze in __filemap_remove_folio).
  static constexpr uint32_t kPinFrozen = 0x80000000u;

  bool pinned() const {
    return (pins.load(std::memory_order_relaxed) & ~kPinFrozen) > 0;
  }
  bool frozen() const {
    return (pins.load(std::memory_order_relaxed) & kPinFrozen) != 0;
  }
  // Plain pin: callers hold the mapping stripe or an existing pin, either
  // of which excludes a concurrent freeze.
  void Pin() { pins.fetch_add(1, std::memory_order_relaxed); }
  void Unpin() {
    // Release: a remover's freeze CAS (acquire) reading the 0 this store
    // produces orders our folio accesses before the free.
    const uint32_t old = pins.fetch_sub(1, std::memory_order_release);
    DCHECK((old & ~kPinFrozen) > 0);
    (void)old;
  }

  // Speculative pin for lockless readers (folio_try_get): fails iff the
  // folio is frozen, i.e. a remover already committed to freeing it.
  bool TryPin() {
    uint32_t v = pins.load(std::memory_order_relaxed);
    while (true) {
      if ((v & kPinFrozen) != 0) {
        return false;
      }
      if (pins.compare_exchange_weak(v, v + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Remover side: atomically claim an unpinned folio for removal. After
  // success no TryPin can succeed and no pin exists, so the folio can be
  // unmapped and retired. Fails if any pin is held (or already frozen).
  bool TryFreeze() {
    uint32_t expected = 0;
    return pins.compare_exchange_strong(expected, kPinFrozen,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
  }
};

}  // namespace cache_ext

#endif  // SRC_MM_FOLIO_H_
