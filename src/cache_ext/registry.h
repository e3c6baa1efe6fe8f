// The valid-folio registry (§4.4) and eviction-list node storage (§4.2.2).
//
// Policies return raw folio pointers as eviction candidates; a buggy or
// malicious policy could return garbage. Before the kernel dereferences a
// candidate it checks membership in this registry: folios are inserted on
// admission and removed on eviction, so any pointer not present is rejected.
//
// The registry doubles as the per-policy folio -> list-node index: each
// entry embeds the node linking the folio into (at most) one eviction list,
// which is what makes list_del() and list_move() O(1) given only a folio
// pointer. Layout matches the paper's accounting (§6.3.1): a bucket costs 16
// bytes (head pointer + lock word) and a filled entry 32 bytes more.
//
// Two lookups, by who supplies the pointer:
//  - a pointer from policy code (an eviction candidate, a list kfunc's
//    argument) is untrusted: Contains/Find hash it and compare addresses,
//    never dereferencing it. Buckets are individually locked so these
//    checks scale.
//  - a folio the page cache itself passes in, pinned (hook dispatch,
//    removal cleanup), is trusted by type, as the kernel trusts the objects
//    it hands a BPF program: FindTrusted reads the folio's owner slot
//    (Folio::ext_registry_id/_node), which Insert tags with this registry's
//    never-reused id. No hash, no lock.
//
// Entries come from per-registry slab chunks with a free list, the way the
// kernel's kmem_cache serves list nodes: admission and eviction allocate
// nothing once the slab is warm, and the nodes a scoring walk chases sit
// in a few compact chunks.

#ifndef SRC_CACHE_EXT_REGISTRY_H_
#define SRC_CACHE_EXT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/bpf/spinlock.h"
#include "src/mm/folio.h"

namespace cache_ext {

// Node linking a folio into one eviction list. prev/next point at other
// entries' nodes (or the list sentinel). list_id == 0 means "not on a list".
struct ExtListNode {
  ExtListNode* prev = nullptr;
  ExtListNode* next = nullptr;
  uint64_t list_id = 0;
  Folio* folio = nullptr;  // back-pointer for iteration

  bool OnList() const { return list_id != 0; }
};

class FolioRegistry {
 public:
  // Entries per slab chunk.
  static constexpr size_t kSlabChunkEntries = 256;

  // nr_buckets is sized to the cgroup's page capacity (§6.3.1).
  explicit FolioRegistry(uint64_t nr_buckets);
  ~FolioRegistry();
  FolioRegistry(const FolioRegistry&) = delete;
  FolioRegistry& operator=(const FolioRegistry&) = delete;

  // Register a live folio (on admission) and tag its owner slot. Returns
  // false if already present.
  bool Insert(Folio* folio);

  // Unregister (on removal). The folio must already be off any list (the
  // framework unlinks before removing). Returns false if absent.
  bool Remove(Folio* folio);

  // Membership check used to validate eviction candidates. Never
  // dereferences `folio`.
  bool Contains(const Folio* folio) const;

  // The list node for a registered folio, or nullptr. Never dereferences
  // `folio`. The caller must hold the policy's list lock for any node
  // mutation.
  ExtListNode* Find(const Folio* folio);

  // The list node of a live folio the page cache has pinned, or nullptr if
  // it is not registered here: one load and a tag compare on the folio's
  // owner slot. A folio has one slot, so this sees only the registry that
  // inserted it last; the page cache registers a folio with at most one
  // registry at a time, its cgroup's attached policy's.
  ExtListNode* FindTrusted(const Folio* folio) const {
    return folio->ext_registry_id.load(std::memory_order_acquire) == id_
               ? folio->ext_registry_node.load(std::memory_order_relaxed)
               : nullptr;
  }

  uint64_t Size() const;
  uint64_t nr_buckets() const { return buckets_.size(); }
  // Slab chunks allocated so far (each kSlabChunkEntries entries).
  uint64_t slab_chunks() const;

  // Approximate memory footprint, for the §6.3.1 accounting.
  uint64_t MemoryBytes() const;

 private:
  struct Entry {
    ExtListNode node;
    Entry* hash_next = nullptr;  // bucket chain, or the slab free list
  };

  struct Bucket {
    mutable bpf::SpinLock lock;
    Entry* head = nullptr;
  };

  size_t BucketFor(const Folio* folio) const;
  Entry* AllocEntry();
  void FreeEntry(Entry* entry);

  const uint64_t id_;
  std::vector<Bucket> buckets_;

  mutable bpf::SpinLock slab_lock_;  // guards chunks_, free_, size_ writes
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* free_ = nullptr;
  std::atomic<uint64_t> size_{0};  // entries handed out
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_REGISTRY_H_
