// The eviction-list kfunc API (Table 2, §4.2.2-§4.2.3).
//
// Policies organize folios into variable-sized linked lists of folio
// *pointers* (the folios themselves stay in the page cache). Lists are
// created at init time and manipulated from the policy-function hooks; the
// eviction hook walks them with list_iterate() to propose candidates.
//
// Everything here is concurrency-safe with locking "under the hood"
// (§4.2.4) and bounds-checked (§4.4): list ids are validated, folios must be
// registered, iteration is capped, and every call charges the running
// program's helper budget — an aborted program's calls fail.

#ifndef SRC_CACHE_EXT_EVICTION_LIST_H_
#define SRC_CACHE_EXT_EVICTION_LIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/bpf/verifier/spec.h"
#include "src/cache_ext/registry.h"
#include "src/pagecache/eviction.h"
#include "src/sim/lane.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace cache_ext {

// Recorded outcome of one kfunc invocation. The load-time verifier attaches
// an observer during its dry run to capture the helper trace (which kfuncs a
// hook actually called, against which lists, with what result) — the
// userspace analogue of the kernel verifier walking every instruction.
struct KfuncEvent {
  bpf::verifier::Kfunc kfunc;
  ErrorCode code = ErrorCode::kOk;
  uint64_t list_id = 0;    // 0 when the kfunc takes no list id
  uint64_t iterations = 0; // folios examined (iterate kfuncs only)
};

class ApiObserver {
 public:
  virtual ~ApiObserver() = default;
  virtual void OnKfunc(const KfuncEvent& event) = 0;
};

// What list_iterate() does with an examined folio (§4.2.3: "they can be
// left in place, moved to the tail of the list, or moved to a different
// list").
enum class IterPlacement {
  kKeepInPlace,
  kMoveToTail,
  kMoveToList,
};

struct IterOpts {
  // Examine at most this many folios (N in the paper's batch-scoring mode).
  uint64_t nr_scan = 512;
  // Placement for folios the callback did NOT select for eviction.
  IterPlacement on_skip = IterPlacement::kKeepInPlace;
  uint64_t dst_list_skip = 0;  // target when on_skip == kMoveToList
  // Placement for folios selected as eviction candidates (e.g. S3-FIFO
  // rotates them to the small list's tail so they aren't re-examined).
  IterPlacement on_evict = IterPlacement::kKeepInPlace;
  uint64_t dst_list_evict = 0;
};

// Simple mode: callback verdict per folio.
enum class IterVerdict {
  kSkip,
  kEvict,
  kStop,
};
using IterateFn = std::function<IterVerdict(Folio*)>;

// Batch-scoring mode: callback returns a score; the C lowest-scored of the
// first N folios are selected (§4.2.3).
using ScoreFn = std::function<int64_t(Folio*)>;

// Observability snapshot of an EvictionArena (CgroupCacheStats
// ext_evict_alloc_bytes / ext_evict_arena_reuses).
struct EvictionArenaStats {
  uint64_t alloc_bytes = 0;  // cumulative heap bytes the arena allocated
  uint64_t reuses = 0;       // Reserve() calls served without allocating
  uint64_t capacity = 0;     // current buffer size
};

// Per-cgroup scratch buffer for evict_folios score batches. Before the
// arena, every ListIterateScore call allocated (and freed) a
// std::vector for the batch — a heap round-trip on the reclaim hot
// path, per pass. The arena keeps one grow-only buffer per attached
// policy: after the first reclaim at a given batch size, steady-state
// eviction allocates nothing (asserted by the alloc_bytes counter in
// tests and reported per-op by the benches).
class EvictionArena {
 public:
  // Scratch of at least `bytes` bytes, valid until the next Reserve.
  // Callers serialize through the owning CacheExtApi's lock; the
  // counters are atomic only so stats snapshots need no lock.
  void* Reserve(size_t bytes) {
    if (bytes <= cap_) {
      reuses_.fetch_add(1, std::memory_order_relaxed);
      return buf_.get();
    }
    size_t cap = cap_ < 2048 ? 2048 : cap_;
    while (cap < bytes) {
      cap *= 2;
    }
    buf_ = std::make_unique<std::byte[]>(cap);
    cap_ = cap;
    alloc_bytes_.fetch_add(cap, std::memory_order_relaxed);
    return buf_.get();
  }

  EvictionArenaStats Stats() const {
    EvictionArenaStats s;
    s.alloc_bytes = alloc_bytes_.load(std::memory_order_relaxed);
    s.reuses = reuses_.load(std::memory_order_relaxed);
    s.capacity = cap_;
    return s;
  }

 private:
  std::unique_ptr<std::byte[]> buf_;
  size_t cap_ = 0;
  std::atomic<uint64_t> alloc_bytes_{0};
  std::atomic<uint64_t> reuses_{0};
};

// The kfunc surface handed to policy programs. One instance per loaded
// policy (lists are per-policy, §4.2.2's "registry" of lists).
class CacheExtApi {
 public:
  explicit CacheExtApi(FolioRegistry* registry);
  ~CacheExtApi();
  CacheExtApi(const CacheExtApi&) = delete;
  CacheExtApi& operator=(const CacheExtApi&) = delete;

  // cache_ext_list_create(): returns the new list's id (ids start at 1).
  Expected<uint64_t> ListCreate();

  // cache_ext_list_add{,_tail}(): link an unlinked, registered folio.
  Status ListAdd(uint64_t list_id, Folio* folio, bool tail);
  // cache_ext_list_move{,_tail}(): relink (possibly across lists).
  Status ListMove(uint64_t list_id, Folio* folio, bool tail);
  // cache_ext_list_del(): unlink from whatever list holds it.
  Status ListDel(Folio* folio);

  Expected<uint64_t> ListSize(uint64_t list_id) const;

  // cache_ext_list_id_of(): the id of the list currently holding `folio`,
  // or 0 if the folio is not on any list. Lets policies distinguish which
  // queue a folio was in when it is removed (S3-FIFO's ghost insertion).
  Expected<uint64_t> ListIdOf(const Folio* folio) const;

  // bpf_get_current_pid_tgid() analogue (see src/pagecache/current_task.h):
  // the acting task's pid and tid for one helper call.
  TaskContext CurrentTask() const;

  // cache_ext_list_iterate(), simple mode.
  Status ListIterate(uint64_t list_id, const IterOpts& opts, EvictionCtx* ctx,
                     const IterateFn& fn);
  // cache_ext_list_iterate(), batch-scoring mode.
  Status ListIterateScore(uint64_t list_id, const IterOpts& opts,
                          EvictionCtx* ctx, const ScoreFn& fn);

  // Framework-internal (not a kfunc): unlink a folio during removal cleanup
  // without charging any program budget. Not observed. `folio` comes from
  // the page cache, live, so it is resolved with FolioRegistry::FindTrusted.
  void UnlinkForRemoval(Folio* folio);

  uint64_t nr_lists() const;

  // Scratch-arena counters for this policy's eviction path.
  EvictionArenaStats ArenaStats() const {
    MutexLock lock(mu_);
    return arena_.Stats();
  }

  // Instrument every kfunc with `observer` (nullptr to detach). Used by the
  // load-time verifier's dry run; production attachments run unobserved.
  void set_observer(ApiObserver* observer) { observer_ = observer; }

 private:
  struct ExtList {
    ExtListNode head;  // sentinel: folio == nullptr
    uint64_t size = 0;

    ExtList() {
      head.prev = &head;
      head.next = &head;
    }
  };

  ExtList* FindList(uint64_t list_id) CACHE_EXT_REQUIRES(mu_);
  const ExtList* FindList(uint64_t list_id) const CACHE_EXT_REQUIRES(mu_);

  // Linking helpers; mu_ must be held (static, so the requirement is by
  // convention — every caller is an annotated member).
  static void LinkNode(ExtList* list, uint64_t list_id, ExtListNode* node,
                       bool tail);
  static void UnlinkNode(ExtList* list, ExtListNode* node);
  void Place(ExtList* list, uint64_t list_id, ExtListNode* node,
             IterPlacement placement, uint64_t dst_list_id)
      CACHE_EXT_REQUIRES(mu_);

  // Report a kfunc outcome to the attached observer, if any.
  void Notify(bpf::verifier::Kfunc kfunc, ErrorCode code, uint64_t list_id,
              uint64_t iterations = 0) const;

  FolioRegistry* registry_;
  ApiObserver* observer_ = nullptr;
  mutable Mutex mu_;  // guards lists_, all node linkage, and arena_
  uint64_t next_list_id_ CACHE_EXT_GUARDED_BY(mu_) = 1;
  std::unordered_map<uint64_t, std::unique_ptr<ExtList>> lists_
      CACHE_EXT_GUARDED_BY(mu_);
  // Score-batch scratch, reused across reclaim passes. Reserve() runs under
  // mu_; Stats() reads only the atomics.
  EvictionArena arena_ CACHE_EXT_GUARDED_BY(mu_);
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_EVICTION_LIST_H_
