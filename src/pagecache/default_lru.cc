#include "src/pagecache/default_lru.h"

namespace cache_ext {

void DefaultLruPolicy::FolioAdded(Folio* folio) {
  if (folio->TestFlag(kFolioWorkingset)) {
    // Refaulting within the workingset: insert directly into the active list
    // (§2.1, thrashing mitigation).
    folio->SetFlag(kFolioActive);
    active_.PushBack(folio);
    if (folio->memcg != nullptr) {
      folio->memcg->stat_activations.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  folio->ClearFlag(kFolioActive);
  inactive_.PushBack(folio);
}

void DefaultLruPolicy::Activate(Folio* folio) {
  inactive_.Remove(folio);
  folio->SetFlag(kFolioActive);
  active_.PushBack(folio);
  if (folio->memcg != nullptr) {
    folio->memcg->stat_activations.fetch_add(1, std::memory_order_relaxed);
  }
}

void DefaultLruPolicy::FolioAccessed(Folio* folio) {
  if (folio->TestFlag(kFolioDropBehind)) {
    // FADV_NOREUSE semantics: the access does not contribute to promotion.
    return;
  }
  if (!folio->lru.IsLinked()) {
    // The folio's own FolioAdded notification is still buffered in another
    // lane's dispatch ring: it is already visible in the xarray (so
    // cross-cgroup readers can hit it first), but not yet on any list.
    // Record the reference only; the pending FolioAdded places it. Kernel
    // analogue: folio_mark_accessed() on a folio still sitting in a per-CPU
    // folio batch before lru_add drains it to the real LRU.
    folio->SetFlag(kFolioReferenced);
    return;
  }
  if (!folio->TestFlag(kFolioActive)) {
    if (folio->TestFlag(kFolioReferenced)) {
      // Second access while inactive: promote (folio_mark_accessed()).
      folio->ClearFlag(kFolioReferenced);
      Activate(folio);
    } else {
      folio->SetFlag(kFolioReferenced);
    }
  } else {
    folio->SetFlag(kFolioReferenced);
  }
}

void DefaultLruPolicy::FolioRemoved(Folio* folio) {
  if (!folio->lru.IsLinked()) {
    return;
  }
  if (folio->TestFlag(kFolioActive)) {
    active_.Remove(folio);
    folio->ClearFlag(kFolioActive);
  } else {
    inactive_.Remove(folio);
  }
}

void DefaultLruPolicy::BalanceLists() {
  // inactive_is_low(): keep the inactive list at least ~1/3 of the total so
  // the preliminary filter has room to observe second accesses.
  const uint64_t total = active_.size() + inactive_.size();
  uint64_t demoted = 0;
  while (inactive_.size() < total / 3 && demoted < 2 * kMaxEvictionBatch) {
    Folio* folio = active_.PopFront();
    // The empty-list test lives here, not in the loop guard, so GCC sees
    // that a null folio is never dereferenced (-Wstringop-overflow).
    if (folio == nullptr) {
      break;
    }
    // Note: referenced active folios are demoted rather than given another
    // trip around the active list (§2.1).
    folio->ClearFlag(kFolioActive);
    folio->ClearFlag(kFolioReferenced);
    inactive_.PushBack(folio);
    ++demoted;
  }
}

void DefaultLruPolicy::EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) {
  (void)memcg;
  BalanceLists();

  // Scan the inactive list head. Pinned folios are rotated; everything else
  // is proposed — including referenced folios: like the kernel's
  // folio_check_references(), a single reference on an unmapped file folio
  // does not earn a second trip around the inactive list (promotion happens
  // through mark_accessed at access time instead). Each folio is visited at
  // most once per round: we always take the front and rotate it to the
  // back.
  uint64_t to_scan = inactive_.size();
  const uint64_t scan_limit = 8 * kMaxEvictionBatch;
  if (to_scan > scan_limit) {
    to_scan = scan_limit;
  }
  for (; to_scan > 0 && !ctx->Full(); --to_scan) {
    Folio* folio = inactive_.Front();
    if (folio->pinned()) {
      inactive_.MoveToBack(folio);
    } else {
      folio->TestClearReferenced();
      ctx->Propose(folio);
      // Rotate proposed folios to the tail so a failed eviction (e.g. the
      // folio got pinned concurrently) doesn't stall the next scan.
      inactive_.MoveToBack(folio);
    }
  }

  // If the inactive list couldn't satisfy the request, evict from the head
  // of the active list (shrink_active_list under heavy pressure).
  uint64_t active_scan = active_.size();
  for (; active_scan > 0 && !ctx->Full(); --active_scan) {
    Folio* folio = active_.Front();
    if (folio->pinned()) {
      active_.MoveToBack(folio);
    } else {
      ctx->Propose(folio);
      active_.MoveToBack(folio);
    }
  }
}

}  // namespace cache_ext
