#include "src/bpf/ir/ir_map.h"

#include <algorithm>

#include "src/bpf/map.h"  // detail::ShardCountFor / detail::MixHash
#include "src/fault/fault_injector.h"

namespace cache_ext::bpf::ir {

namespace {

constexpr uint8_t kEmpty = 0;
constexpr uint8_t kFull = 1;
constexpr uint8_t kTombstone = 2;

constexpr uint64_t kInitialTableCapacity = 16;

inline void WordStore(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
}

// The low MixHash bits pick the shard; slot probing starts from the high
// bits so keys that share a shard do not also share a probe sequence.
inline uint64_t SlotHash(uint64_t mixed) { return mixed >> 7; }

}  // namespace

IrMap::IrMap(const MapDecl& decl)
    : decl_(decl),
      words_(decl.value_size / 8),
      shards_(decl.kind == IrMapKind::kHash
                  ? detail::ShardCountFor(static_cast<uint32_t>(
                        std::min<uint64_t>(decl.max_entries, 1u << 30)))
                  : 1),
      shard_mask_(shards_.size() - 1) {
  if (decl_.kind == IrMapKind::kArray) {
    array_.assign(static_cast<size_t>(decl_.max_entries) * words_, 0);
    return;
  }
  for (Shard& shard : shards_) {
    shard.tables.push_back(std::make_unique<HashTable>(kInitialTableCapacity));
    shard.table.store(shard.tables.back().get(), std::memory_order_release);
  }
}

uint64_t* IrMap::Lookup(uint64_t key) {
  if (decl_.kind == IrMapKind::kArray) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (key >= decl_.max_entries) {
      return nullptr;
    }
    return &array_[static_cast<size_t>(key) * words_];
  }
  if (fault::InjectFault(fault::points::kBpfMapLookup)) {
    return nullptr;  // injected lookup miss, as in bpf::HashMap
  }
  const uint64_t mixed = detail::MixHash(key);
  Shard& shard = shards_[mixed & shard_mask_];
  // Probe accounting in the percpu-counter style: plain add, no RMW.
  shard.lookups.store(shard.lookups.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  // Lock-free probe: the acquire pairs with the table-publish release (for
  // rehash) and the slot-state release (for in-place inserts), so a kFull
  // slot's key/value/block contents are fully visible.
  const HashTable* table = shard.table.load(std::memory_order_acquire);
  const uint64_t mask = table->mask;
  uint64_t idx = SlotHash(mixed) & mask;
  for (uint64_t probes = 0; probes <= mask; ++probes, idx = (idx + 1) & mask) {
    const Slot& slot = table->slots[idx];
    const uint8_t state = slot.state.load(std::memory_order_acquire);
    if (state == kEmpty) {
      return nullptr;
    }
    if (state == kFull && slot.key.load(std::memory_order_relaxed) == key) {
      return slot.value.load(std::memory_order_relaxed);
    }
  }
  return nullptr;
}

uint64_t IrMap::lookups() const {
  uint64_t total = lookups_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    total += shard.lookups.load(std::memory_order_relaxed);
  }
  return total;
}

IrMap::Slot* IrMap::FindLive(HashTable* table, uint64_t key, uint64_t hash) {
  const uint64_t mask = table->mask;
  uint64_t idx = hash & mask;
  for (uint64_t probes = 0; probes <= mask; ++probes, idx = (idx + 1) & mask) {
    Slot& slot = table->slots[idx];
    const uint8_t state = slot.state.load(std::memory_order_relaxed);
    if (state == kEmpty) {
      return nullptr;
    }
    if (state == kFull && slot.key.load(std::memory_order_relaxed) == key) {
      return &slot;
    }
  }
  return nullptr;
}

// Writer-side, shard lock held. Rebuilds the index into a fresh table
// (dropping tombstones, doubling until live entries fit under ~50%) and
// publishes it; the old table stays owned by the shard because a
// concurrent reader may still be probing it.
void IrMap::Rehash(Shard& shard) {
  HashTable* old = shard.table.load(std::memory_order_relaxed);
  uint64_t live = 0;
  for (uint64_t i = 0; i <= old->mask; ++i) {
    if (old->slots[i].state.load(std::memory_order_relaxed) == kFull) {
      ++live;
    }
  }
  uint64_t capacity = old->mask + 1;
  while ((live + 1) * 2 >= capacity) {
    capacity *= 2;
  }
  shard.tables.push_back(std::make_unique<HashTable>(capacity));
  HashTable* fresh = shard.tables.back().get();
  for (uint64_t i = 0; i <= old->mask; ++i) {
    Slot& from = old->slots[i];
    if (from.state.load(std::memory_order_relaxed) != kFull) {
      continue;
    }
    const uint64_t key = from.key.load(std::memory_order_relaxed);
    uint64_t idx = SlotHash(detail::MixHash(key)) & fresh->mask;
    while (fresh->slots[idx].state.load(std::memory_order_relaxed) != kEmpty) {
      idx = (idx + 1) & fresh->mask;
    }
    Slot& to = fresh->slots[idx];
    // Plain stores: nothing can observe `fresh` before the release
    // publish below.
    to.key.store(key, std::memory_order_relaxed);
    to.value.store(from.value.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    to.state.store(kFull, std::memory_order_relaxed);
    ++fresh->used;
  }
  shard.table.store(fresh, std::memory_order_release);
}

uint64_t IrMap::Update(uint64_t key, uint64_t value) {
  if (decl_.kind == IrMapKind::kArray) {
    if (key >= decl_.max_entries) {
      return 1;
    }
    WordStore(&array_[static_cast<size_t>(key) * words_], value);
    return 0;
  }
  if (fault::InjectFault(fault::points::kBpfMapUpdate)) {
    return 1;  // injected -ENOMEM/-E2BIG, as in bpf::HashMap
  }
  const uint64_t mixed = detail::MixHash(key);
  Shard& shard = shards_[mixed & shard_mask_];
  SpinLockGuard lock(shard.mu);
  HashTable* table = shard.table.load(std::memory_order_relaxed);
  if (Slot* slot = FindLive(table, key, SlotHash(mixed))) {
    WordStore(&slot->value.load(std::memory_order_relaxed)[0], value);
    return 0;
  }
  // Reserve a slot in the global occupancy count before inserting so
  // max_entries is exact across shards (HashMap's reserve/rollback idiom),
  // then hand out a recycled or fresh zeroed block.
  if (size_.fetch_add(1, std::memory_order_relaxed) >= decl_.max_entries) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    return 1;  // capacity bound enforced, not assumed
  }
  uint64_t* block;
  if (!shard.free_list.empty()) {
    block = shard.free_list.back();
    shard.free_list.pop_back();
  } else {
    shard.blocks.push_back(std::make_unique<uint64_t[]>(words_));
    block = shard.blocks.back().get();
  }
  // Zero through atomic words: a racing reader may still hold this
  // block's pointer from before a Delete recycled it.
  for (size_t w = 0; w < words_; ++w) {
    WordStore(&block[w], 0);
  }
  WordStore(&block[0], value);
  // Keep the table at most ~70% occupied (full + tombstones) so lock-free
  // probes stay short and always terminate on an empty slot.
  if ((table->used + 1) * 10 > (table->mask + 1) * 7) {
    Rehash(shard);
    table = shard.table.load(std::memory_order_relaxed);
  }
  // Claim the first tombstone on the probe path (or the terminating empty
  // slot). FindLive already proved the key absent.
  uint64_t idx = SlotHash(mixed) & table->mask;
  Slot* claim = nullptr;
  for (;; idx = (idx + 1) & table->mask) {
    Slot& slot = table->slots[idx];
    const uint8_t state = slot.state.load(std::memory_order_relaxed);
    if (state == kTombstone) {
      claim = &slot;
      break;
    }
    if (state == kEmpty) {
      claim = &slot;
      ++table->used;
      break;
    }
  }
  claim->key.store(key, std::memory_order_relaxed);
  claim->value.store(block, std::memory_order_relaxed);
  // Publish: after this release, a reader's acquire of `state` makes the
  // key, the value pointer, and the zeroed block contents visible.
  claim->state.store(kFull, std::memory_order_release);
  return 0;
}

uint64_t IrMap::Delete(uint64_t key) {
  if (decl_.kind == IrMapKind::kArray) {
    if (key >= decl_.max_entries) {
      return 1;
    }
    for (size_t w = 0; w < words_; ++w) {
      WordStore(&array_[static_cast<size_t>(key) * words_ + w], 0);
    }
    return 0;
  }
  const uint64_t mixed = detail::MixHash(key);
  Shard& shard = shards_[mixed & shard_mask_];
  SpinLockGuard lock(shard.mu);
  HashTable* table = shard.table.load(std::memory_order_relaxed);
  Slot* slot = FindLive(table, key, SlotHash(mixed));
  if (slot == nullptr) {
    return 1;
  }
  // Tombstone the slot, then recycle the block. A reader that loaded the
  // value pointer just before the state flip keeps a dereferenceable (but
  // recyclable) block — the SLAB_TYPESAFE_BY_RCU contract from the file
  // comment, unchanged.
  slot->state.store(kTombstone, std::memory_order_release);
  shard.free_list.push_back(slot->value.load(std::memory_order_relaxed));
  size_.fetch_sub(1, std::memory_order_relaxed);
  return 0;
}

uint64_t IrMap::Size() const {
  if (decl_.kind == IrMapKind::kArray) {
    return decl_.max_entries;
  }
  return size_.load(std::memory_order_relaxed);
}

void IrMap::ForEach(
    const std::function<void(uint64_t key, const uint64_t* words)>& fn)
    const {
  if (decl_.kind == IrMapKind::kArray) {
    for (uint64_t key = 0; key < decl_.max_entries; ++key) {
      fn(key, &array_[static_cast<size_t>(key) * words_]);
    }
    return;
  }
  for (const Shard& shard : shards_) {
    SpinLockGuard lock(shard.mu);
    const HashTable* table = shard.table.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i <= table->mask; ++i) {
      const Slot& slot = table->slots[i];
      if (slot.state.load(std::memory_order_relaxed) == kFull) {
        fn(slot.key.load(std::memory_order_relaxed),
           slot.value.load(std::memory_order_relaxed));
      }
    }
  }
}

}  // namespace cache_ext::bpf::ir
