#include "src/cache_ext/registry.h"

#include <atomic>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cache_ext {

namespace {
// Registry ids tag folio owner slots; 0 means "no owner" and no id is ever
// handed out twice, so a stale tag can never match a later registry.
std::atomic<uint64_t> next_registry_id{1};
}  // namespace

FolioRegistry::FolioRegistry(uint64_t nr_buckets)
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      buckets_(nr_buckets == 0 ? 1 : nr_buckets) {}

// Entries die with their slab chunks. Folios still tagged with this
// registry's id are left alone (they may already be gone): the id is never
// reused, so their stale tags never match again.
FolioRegistry::~FolioRegistry() = default;

size_t FolioRegistry::BucketFor(const Folio* folio) const {
  // Pointer-hash: folios are heap objects, so scramble the address.
  return Mix64(reinterpret_cast<uintptr_t>(folio)) % buckets_.size();
}

// size_ changes only under slab_lock_, so a plain load and store update it.
FolioRegistry::Entry* FolioRegistry::AllocEntry() {
  bpf::SpinLockGuard guard(slab_lock_);
  size_.store(size_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  if (free_ == nullptr) {
    auto chunk = std::make_unique<Entry[]>(kSlabChunkEntries);
    for (size_t i = kSlabChunkEntries; i-- > 0;) {  // hand out in order
      chunk[i].hash_next = free_;
      free_ = &chunk[i];
    }
    chunks_.push_back(std::move(chunk));
  }
  Entry* entry = free_;
  free_ = entry->hash_next;
  *entry = Entry();
  return entry;
}

void FolioRegistry::FreeEntry(Entry* entry) {
  bpf::SpinLockGuard guard(slab_lock_);
  size_.store(size_.load(std::memory_order_relaxed) - 1,
              std::memory_order_relaxed);
  entry->hash_next = free_;
  free_ = entry;
}

bool FolioRegistry::Insert(Folio* folio) {
  Bucket& bucket = buckets_[BucketFor(folio)];
  bpf::SpinLockGuard guard(bucket.lock);
  for (Entry* e = bucket.head; e != nullptr; e = e->hash_next) {
    if (e->node.folio == folio) {
      return false;
    }
  }
  Entry* entry = AllocEntry();
  entry->node.folio = folio;
  entry->hash_next = bucket.head;
  bucket.head = entry;
  folio->ext_registry_node.store(&entry->node, std::memory_order_relaxed);
  folio->ext_registry_id.store(id_, std::memory_order_release);
  return true;
}

bool FolioRegistry::Remove(Folio* folio) {
  Bucket& bucket = buckets_[BucketFor(folio)];
  bpf::SpinLockGuard guard(bucket.lock);
  Entry** link = &bucket.head;
  while (*link != nullptr) {
    Entry* entry = *link;
    if (entry->node.folio == folio) {
      DCHECK(!entry->node.OnList());
      *link = entry->hash_next;
      // Registered, so live: clear the owner slot if it is still ours.
      if (folio->ext_registry_id.load(std::memory_order_relaxed) == id_) {
        folio->ext_registry_id.store(0, std::memory_order_relaxed);
        folio->ext_registry_node.store(nullptr, std::memory_order_relaxed);
      }
      FreeEntry(entry);
      return true;
    }
    link = &entry->hash_next;
  }
  return false;
}

bool FolioRegistry::Contains(const Folio* folio) const {
  const Bucket& bucket = buckets_[BucketFor(folio)];
  bpf::SpinLockGuard guard(bucket.lock);
  for (const Entry* e = bucket.head; e != nullptr; e = e->hash_next) {
    if (e->node.folio == folio) {
      return true;
    }
  }
  return false;
}

ExtListNode* FolioRegistry::Find(const Folio* folio) {
  Bucket& bucket = buckets_[BucketFor(folio)];
  bpf::SpinLockGuard guard(bucket.lock);
  for (Entry* e = bucket.head; e != nullptr; e = e->hash_next) {
    if (e->node.folio == folio) {
      return &e->node;
    }
  }
  return nullptr;
}

uint64_t FolioRegistry::Size() const {
  return size_.load(std::memory_order_relaxed);
}

uint64_t FolioRegistry::slab_chunks() const {
  bpf::SpinLockGuard guard(slab_lock_);
  return chunks_.size();
}

uint64_t FolioRegistry::MemoryBytes() const {
  // 16 bytes per bucket + 32 bytes per filled entry (§6.3.1).
  return buckets_.size() * 16 + Size() * 32;
}

}  // namespace cache_ext
