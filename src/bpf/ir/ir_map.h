// Sharded map storage for IR policies: u64 keys, fixed-size values of
// value_size bytes accessed as u64 words. This replaces the runtime-wide
// interpreter mutex with the same concurrency story as the hand-written
// policies' bpf::HashMap/ArrayMap (src/bpf/map.h):
//
//  - Array maps are dense, preallocated, and lock-free; value words are
//    accessed through std::atomic_ref (relaxed), matching ArrayMap.
//  - Hash maps are sharded (detail::ShardCountFor shards, MixHash
//    distribution) with a global atomic size enforcing max_entries
//    exactly via the reserve/rollback idiom. Lookups are LOCK-FREE: each
//    shard's index is an open-addressed slot table published through an
//    atomic table pointer (grown by rehash under the writer lock, old
//    tables retained so racing readers never touch freed memory — the
//    same type-stability story as the value blocks). Only writers
//    (Update/Delete/rehash) take the shard's bpf::SpinLock, mirroring the
//    kernel htab: htab_map_lookup_elem walks the bucket locklessly under
//    RCU while updates serialize on the per-bucket raw_spin_lock.
//  - Value blocks are recycled through a per-shard free list and never
//    returned to the allocator while the runtime lives — the userspace
//    analogue of SLAB_TYPESAFE_BY_RCU. A program that loaded a value
//    pointer into a register races with a concurrent Delete of that key
//    exactly like a BPF program races with htab_map_delete_elem: the
//    pointer stays dereferenceable (it may observe recycled contents),
//    so the lock-free kLoad/kStore paths are memory-safe without EBR.
//
// An insert beyond capacity fails with "full", which is how the
// verifier's occupancy bound is *enforced* rather than assumed. Hash-map
// Lookup and Update consult the bpf.map.lookup / bpf.map.update fault
// points, as bpf::HashMap does; array maps stay fault-free, like
// bpf::ArrayMap.

#ifndef SRC_BPF_IR_IR_MAP_H_
#define SRC_BPF_IR_IR_MAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/bpf/ir/ir.h"
#include "src/bpf/spinlock.h"

namespace cache_ext::bpf::ir {

class IrMap {
 public:
  explicit IrMap(const MapDecl& decl);

  // Pointer to the value words, or nullptr when absent/out-of-range.
  // Array pointers stay valid for the runtime's lifetime; hash pointers
  // stay dereferenceable (type-safe recycling, see file comment) but may
  // be recycled by a concurrent Delete+Update.
  uint64_t* Lookup(uint64_t key);
  // Create-zeroed-if-absent, then store `value` in word 0. Returns 0 on
  // success, 1 when a hash map is at capacity.
  uint64_t Update(uint64_t key, uint64_t value);
  // Returns 0 when an entry was deleted (array: zeroed), 1 when absent.
  uint64_t Delete(uint64_t key);

  // Total probes. Hash probes land in per-shard counters incremented with
  // a plain load+store (the percpu-counter idiom: no RMW on the hot path;
  // concurrent probes of one shard may drop a count). Array and fast-path
  // probes land in the atomic counter. Single-threaded the sum is exact,
  // which the differential test relies on.
  uint64_t lookups() const;
  // For backend fast paths (e.g. a const-folded array access) that skip
  // Lookup() but must keep the probe accounting identical.
  void CountLookup() { lookups_.fetch_add(1, std::memory_order_relaxed); }

  const MapDecl& decl() const { return decl_; }
  size_t words() const { return words_; }

  // kArray only: base of the dense backing store. Lets a backend fold a
  // verifier-proven constant key to a direct pointer at compile time (the
  // analogue of the kernel's array-map map_gen_lookup inlining).
  uint64_t* ArrayBase() { return array_.data(); }

  // Live entries (hash) or max_entries (array).
  uint64_t Size() const;
  // Snapshot iteration for tests/introspection; takes each shard lock in
  // turn, so concurrent mutation in other shards may be missed or seen.
  void ForEach(
      const std::function<void(uint64_t key, const uint64_t* words)>& fn)
      const;

 private:
  // One open-addressed slot. `state` gates visibility: a reader may act
  // on `key`/`value` only after an acquire load of state returns kFull
  // (the writer publishes them before the release store of state).
  struct Slot {
    std::atomic<uint8_t> state{0};  // kEmpty / kFull / kTombstone
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t*> value{nullptr};
  };

  struct HashTable {
    explicit HashTable(uint64_t capacity)
        : mask(capacity - 1), slots(capacity) {}
    const uint64_t mask;  // capacity - 1 (capacity is a power of two)
    uint64_t used = 0;    // full + tombstone slots; writer-only
    std::vector<Slot> slots;
  };

  // `mu` serializes writers (Update/Delete/rehash); lock-free readers see
  // the index through the atomic `table` pointer. The owning containers
  // (`tables`, `blocks`, `free_list`) are writer-only, guarded by `mu` by
  // convention (SpinLock carries no capability annotations, as in
  // FolioRegistry::Bucket). Retired tables and value blocks are never
  // freed while the map lives, so a stale reader is always memory-safe.
  struct Shard {
    mutable SpinLock mu;
    std::atomic<uint64_t> lookups{0};
    std::atomic<HashTable*> table{nullptr};
    std::vector<std::unique_ptr<HashTable>> tables;
    std::vector<std::unique_ptr<uint64_t[]>> blocks;
    std::vector<uint64_t*> free_list;
  };

  // Probe-sequence helpers; writer-side, called with the shard lock held.
  Slot* FindLive(HashTable* table, uint64_t key, uint64_t hash);
  void Rehash(Shard& shard);

  const MapDecl decl_;
  const size_t words_;  // value_size / 8
  std::vector<uint64_t> array_;  // kArray: max_entries * words_
  std::vector<Shard> shards_;    // kHash
  const uint64_t shard_mask_ = 0;
  std::atomic<uint64_t> size_{0};  // kHash live entries (exact bound)
  std::atomic<uint64_t> lookups_{0};
};

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_IR_MAP_H_
