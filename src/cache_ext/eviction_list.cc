#include "src/cache_ext/eviction_list.h"

#include <algorithm>
#include <new>
#include <vector>

#include "src/bpf/prog.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/current_task.h"
#include "src/util/logging.h"

namespace cache_ext {

CacheExtApi::CacheExtApi(FolioRegistry* registry) : registry_(registry) {
  CHECK_NOTNULL(registry_);
}

CacheExtApi::~CacheExtApi() {
  // Unlink every node so registry entries can be destroyed cleanly.
  MutexLock lock(mu_);
  for (auto& [id, list] : lists_) {
    ExtListNode* node = list->head.next;
    while (node != &list->head) {
      ExtListNode* next = node->next;
      node->prev = nullptr;
      node->next = nullptr;
      node->list_id = 0;
      node = next;
    }
  }
}

void CacheExtApi::Notify(bpf::verifier::Kfunc kfunc, ErrorCode code,
                         uint64_t list_id, uint64_t iterations) const {
  if (observer_ != nullptr) {
    observer_->OnKfunc(KfuncEvent{kfunc, code, list_id, iterations});
  }
}

CacheExtApi::ExtList* CacheExtApi::FindList(uint64_t list_id) {
  auto it = lists_.find(list_id);
  return it == lists_.end() ? nullptr : it->second.get();
}

const CacheExtApi::ExtList* CacheExtApi::FindList(uint64_t list_id) const {
  auto it = lists_.find(list_id);
  return it == lists_.end() ? nullptr : it->second.get();
}

void CacheExtApi::LinkNode(ExtList* list, uint64_t list_id, ExtListNode* node,
                           bool tail) {
  DCHECK(!node->OnList());
  if (tail) {
    node->prev = list->head.prev;
    node->next = &list->head;
    list->head.prev->next = node;
    list->head.prev = node;
  } else {
    node->next = list->head.next;
    node->prev = &list->head;
    list->head.next->prev = node;
    list->head.next = node;
  }
  node->list_id = list_id;
  ++list->size;
}

void CacheExtApi::UnlinkNode(ExtList* list, ExtListNode* node) {
  DCHECK(node->OnList());
  node->prev->next = node->next;
  node->next->prev = node->prev;
  node->prev = nullptr;
  node->next = nullptr;
  node->list_id = 0;
  DCHECK(list->size > 0);
  --list->size;
}

Expected<uint64_t> CacheExtApi::ListCreate() {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListCreate, ErrorCode::kResourceExhausted,
           0);
    return ResourceExhausted("program helper budget exhausted");
  }
  MutexLock lock(mu_);
  const uint64_t id = next_list_id_++;
  lists_[id] = std::make_unique<ExtList>();
  Notify(bpf::verifier::Kfunc::kListCreate, ErrorCode::kOk, id);
  return id;
}

Status CacheExtApi::ListAdd(uint64_t list_id, Folio* folio, bool tail) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    // Injected list misuse: the kfunc refuses the operation, as if the
    // policy passed a bad list id or an unregistered folio. The folio ends
    // up on no list — it must still be evictable via the fallback path.
    if (fault::InjectFault(fault::points::kListOp)) {
      return InvalidArgument("injected eviction-list misuse");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }
    if (node->OnList()) {
      return FailedPrecondition("folio already on a list (use list_move)");
    }
    LinkNode(list, list_id, node, tail);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListAdd, st.code(), list_id);
  return st;
}

Status CacheExtApi::ListMove(uint64_t list_id, Folio* folio, bool tail) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    if (fault::InjectFault(fault::points::kListOp)) {
      return InvalidArgument("injected eviction-list misuse");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    ExtList* dst = FindList(list_id);
    if (dst == nullptr) {
      return NotFound("bad list id");
    }
    if (node->OnList()) {
      ExtList* src = FindList(node->list_id);
      CHECK_NOTNULL(src);
      UnlinkNode(src, node);
    }
    LinkNode(dst, list_id, node, tail);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListMove, st.code(), list_id);
  return st;
}

Status CacheExtApi::ListDel(Folio* folio) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    if (!node->OnList()) {
      return FailedPrecondition("folio not on a list");
    }
    ExtList* list = FindList(node->list_id);
    CHECK_NOTNULL(list);
    UnlinkNode(list, node);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListDel, st.code(), 0);
  return st;
}

Expected<uint64_t> CacheExtApi::ListSize(uint64_t list_id) const {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kResourceExhausted,
           list_id);
    return ResourceExhausted("program helper budget exhausted");
  }
  MutexLock lock(mu_);
  const ExtList* list = FindList(list_id);
  if (list == nullptr) {
    Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kNotFound, list_id);
    return NotFound("bad list id");
  }
  Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kOk, list_id);
  return list->size;
}

Expected<uint64_t> CacheExtApi::ListIdOf(const Folio* folio) const {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kResourceExhausted, 0);
    return ResourceExhausted("program helper budget exhausted");
  }
  ExtListNode* node = registry_->Find(folio);
  if (node == nullptr) {
    Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kInvalidArgument, 0);
    return InvalidArgument("folio not registered");
  }
  MutexLock lock(mu_);
  Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kOk, node->list_id);
  return node->list_id;
}

TaskContext CacheExtApi::CurrentTask() const {
  bpf::ChargeHelperCall();
  Notify(bpf::verifier::Kfunc::kCurrentTask, ErrorCode::kOk, 0);
  return GetCurrentTask();
}

void CacheExtApi::UnlinkForRemoval(Folio* folio) {
  ExtListNode* node = registry_->FindTrusted(folio);
  if (node == nullptr) {
    return;
  }
  MutexLock lock(mu_);
  if (node->OnList()) {
    ExtList* list = FindList(node->list_id);
    CHECK_NOTNULL(list);
    UnlinkNode(list, node);
  }
}

uint64_t CacheExtApi::nr_lists() const {
  MutexLock lock(mu_);
  return lists_.size();
}

void CacheExtApi::Place(ExtList* list, uint64_t list_id, ExtListNode* node,
                        IterPlacement placement, uint64_t dst_list_id) {
  switch (placement) {
    case IterPlacement::kKeepInPlace:
      return;
    case IterPlacement::kMoveToTail:
      UnlinkNode(list, node);
      LinkNode(list, list_id, node, /*tail=*/true);
      return;
    case IterPlacement::kMoveToList: {
      ExtList* dst = FindList(dst_list_id);
      if (dst == nullptr) {
        return;  // bad destination: leave in place (bounds-checked kfunc)
      }
      UnlinkNode(list, node);
      LinkNode(dst, dst_list_id, node, /*tail=*/true);
      return;
    }
  }
}

Status CacheExtApi::ListIterate(uint64_t list_id, const IterOpts& opts,
                                EvictionCtx* ctx, const IterateFn& fn) {
  uint64_t examined = 0;
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }
    // Examine at most min(nr_scan, initial size) folios: every examined node
    // is either left behind the cursor, rotated to the tail, or moved to
    // another list, so no node is seen twice in one call.
    uint64_t bound = std::min<uint64_t>(opts.nr_scan, list->size);
    ExtListNode* node = list->head.next;
    while (bound-- > 0 && node != &list->head) {
      ExtListNode* next = node->next;
      // Each callback invocation charges the program budget (enforced loop
      // termination, §4.4).
      if (!bpf::ChargeHelperCall()) {
        return ResourceExhausted("program helper budget exhausted");
      }
      ++examined;
      const IterVerdict verdict = fn(node->folio);
      if (verdict == IterVerdict::kStop) {
        break;
      }
      if (verdict == IterVerdict::kEvict) {
        if (ctx != nullptr) {
          ctx->Propose(node->folio);
        }
        Place(list, list_id, node, opts.on_evict, opts.dst_list_evict);
        if (ctx != nullptr && ctx->Full()) {
          break;
        }
      } else {
        Place(list, list_id, node, opts.on_skip, opts.dst_list_skip);
      }
      node = next;
    }
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListIterate, st.code(), list_id, examined);
  return st;
}

Status CacheExtApi::ListIterateScore(uint64_t list_id, const IterOpts& opts,
                                     EvictionCtx* ctx, const ScoreFn& fn) {
  uint64_t examined = 0;
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    if (ctx == nullptr) {
      return InvalidArgument("batch scoring requires an eviction ctx");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }

    // Phase 1: score the first N folios. The batch lives in the
    // per-policy arena (not a fresh std::vector), so steady-state
    // reclaim performs zero heap allocations once the arena has grown
    // to the policy's batch size.
    struct Scored {
      int64_t score;
      ExtListNode* node;
    };
    const uint64_t bound = std::min<uint64_t>(opts.nr_scan, list->size);
    Scored* scored =
        static_cast<Scored*>(arena_.Reserve(bound * sizeof(Scored)));
    uint64_t nr_scored = 0;
    ExtListNode* node = list->head.next;
    for (uint64_t i = 0; i < bound && node != &list->head; ++i) {
      if (!bpf::ChargeHelperCall()) {
        return ResourceExhausted("program helper budget exhausted");
      }
      ++examined;
      new (&scored[nr_scored++]) Scored{fn(node->folio), node};
      node = node->next;
    }

    // Phase 2: select the C lowest-scored folios (§4.2.3).
    const uint64_t remaining =
        ctx->nr_candidates_requested > ctx->nr_candidates_proposed
            ? ctx->nr_candidates_requested - ctx->nr_candidates_proposed
            : 0;
    const uint64_t c = std::min<uint64_t>(remaining, nr_scored);
    if (c > 0 && c < nr_scored) {
      std::nth_element(scored, scored + (c - 1), scored + nr_scored,
                       [](const Scored& a, const Scored& b) {
                         return a.score < b.score;
                       });
    }

    // Phase 3: propose the selected, apply placements. The first c entries
    // of `scored` are the selected ones after nth_element.
    for (uint64_t i = 0; i < nr_scored; ++i) {
      ExtListNode* n = scored[i].node;
      if (i < c) {
        ctx->Propose(n->folio);
        Place(list, list_id, n, opts.on_evict, opts.dst_list_evict);
      } else {
        Place(list, list_id, n, opts.on_skip, opts.dst_list_skip);
      }
    }
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListIterateScore, st.code(), list_id,
         examined);
  return st;
}

}  // namespace cache_ext
