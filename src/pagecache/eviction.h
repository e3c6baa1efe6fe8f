// Reclaim-policy interface between the page cache and eviction policies.
//
// EvictionCtx mirrors the paper's struct (Fig. 3): the kernel asks a policy
// for up to nr_candidates_requested folios (max 32 per batch); the policy
// fills `candidates` and sets nr_candidates_proposed. Policies only
// *propose* — the page cache validates each candidate (still resident, not
// pinned, right cgroup, and for cache_ext policies: present in the
// valid-folio registry) before actually evicting (§4.2.3).

#ifndef SRC_PAGECACHE_EVICTION_H_
#define SRC_PAGECACHE_EVICTION_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "src/cgroup/memcg_stat.h"
#include "src/mm/folio.h"

namespace cache_ext {

class MemCgroup;
class AddressSpace;

inline constexpr uint64_t kMaxEvictionBatch = 32;

// The dispatchable hooks of a loaded policy, as failure domains: the
// cache_ext framework tracks violations per hook so a policy with one
// broken program degrades only that hook to default behaviour while the
// rest keep running (§4.4 hardening).
enum class PolicyHook : uint32_t {
  kEvict = 0,
  kAdmit,
  kAccess,
  kAdded,
  kRemoved,
  kRefault,
  kReadahead,
  kOrder,
  kShouldWriteback,
  kWritebackOrder,
};
inline constexpr uint32_t kNumPolicyHooks = 10;

constexpr std::string_view PolicyHookName(PolicyHook hook) {
  switch (hook) {
    case PolicyHook::kEvict:     return "evict";
    case PolicyHook::kAdmit:     return "admit";
    case PolicyHook::kAccess:    return "access";
    case PolicyHook::kAdded:     return "added";
    case PolicyHook::kRemoved:   return "removed";
    case PolicyHook::kRefault:   return "refault";
    case PolicyHook::kReadahead: return "readahead";
    case PolicyHook::kOrder:     return "order";
    case PolicyHook::kShouldWriteback: return "should_writeback";
    case PolicyHook::kWritebackOrder:  return "writeback_order";
  }
  return "?";
}

constexpr uint32_t PolicyHookBit(PolicyHook hook) {
  return 1u << static_cast<uint32_t>(hook);
}

// Per-hook health snapshot surfaced through CgroupCacheStats. `trips[i]` is
// how many times hook i tripped its circuit breaker (0/1 per attachment),
// `degraded_mask` the currently-degraded hooks as PolicyHookBit()s.
struct PolicyHookHealth {
  uint32_t degraded_mask = 0;
  std::array<uint64_t, kNumPolicyHooks> trips{};
  std::array<uint64_t, kNumPolicyHooks> violations{};
  std::array<uint64_t, kNumPolicyHooks> invocations{};
  bool escalate_detach = false;
};

// Who is asking for eviction candidates: an allocating task doing direct
// reclaim on its own clock, or the cgroup's background reclaimer lane (the
// kswapd analogue, src/reclaim). Policies may not care; the page cache
// counts the work per source (reclaim_direct_* / reclaim_background_*).
enum class ReclaimSource : uint8_t {
  kDirect = 0,
  kBackground = 1,
};

struct EvictionCtx {
  uint64_t nr_candidates_requested = 0;  // input
  uint64_t nr_candidates_proposed = 0;   // output
  ReclaimSource source = ReclaimSource::kDirect;  // input
  std::array<Folio*, kMaxEvictionBatch> candidates = {};

  // Append a candidate; returns false when the batch is full.
  bool Propose(Folio* folio) {
    if (nr_candidates_proposed >= kMaxEvictionBatch ||
        nr_candidates_proposed >= nr_candidates_requested) {
      return false;
    }
    candidates[nr_candidates_proposed++] = folio;
    return true;
  }

  bool Full() const {
    return nr_candidates_proposed >= nr_candidates_requested ||
           nr_candidates_proposed >= kMaxEvictionBatch;
  }
};

// Never passed by the page cache; kept only for perfbench's TracingPolicy.
struct PrefetchCtx {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;           // the missing page
  uint64_t prev_index = 0;      // the mapping's previous read position
  uint32_t default_window = 0;  // what the kernel's heuristic would do
  int32_t pid = 0;
  int32_t tid = 0;
};

// Context handed to admission filters (§5.6): a folio is about to be faulted
// into the page cache; the filter may reject it, in which case the I/O is
// serviced like direct I/O (no caching).
struct AdmissionCtx {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;
  MemCgroup* memcg = nullptr;
  int32_t pid = 0;
  int32_t tid = 0;
  bool is_write = false;
};

// Context handed to the readahead hook (the ondemand_readahead decision
// point, and the FetchBPF-style prefetch extension the paper sketches in
// §7): a miss happened at `index`; the policy returns the window of pages
// to read ahead (0 suppresses readahead entirely, negative defers to the
// kernel heuristic). It fires once per miss *run* and owns the whole
// window decision, so streaming policies pay one dispatch per stream step.
struct ReadaheadCtx {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;            // the missing page
  uint64_t prev_index = 0;       // the mapping's previous read position
  uint32_t default_window = 0;   // what the kernel's heuristic would do
  uint32_t nr_requested = 0;     // pages the current read call still wants
  int32_t pid = 0;
  int32_t tid = 0;
};

// Folio allocation orders a policy may request: 1, 4, or 16 pages. Order
// values outside this set are a policy violation (breaker-counted); the
// page cache additionally falls back to order 0 on misalignment or memcg
// pressure, like __filemap_get_folio dropping to smaller orders when
// allocation fails.
inline constexpr uint32_t kMaxFolioOrder = 4;
constexpr bool ValidFolioOrder(uint32_t order) {
  return order == 0 || order == 2 || order == 4;
}

// Context handed to the admit_order hook: an admission at `index` is about
// to allocate a folio; the policy picks the allocation order (0 | 2 | 4).
struct AdmitOrderCtx {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;
  MemCgroup* memcg = nullptr;
  uint32_t nr_requested = 0;  // contiguous pages the current miss run wants
  int32_t pid = 0;
  int32_t tid = 0;
  bool is_write = false;
};

// Context handed to the writeback hooks: the flusher harvested a dirty
// folio at `index` and asks the policy (a) whether to write it back this
// tick at all (`should_writeback` — false defers the folio to a later
// tick, e.g. an LSM policy holding back a half-built SSTable block) and
// (b) what key to sort the flush batch by (`writeback_order` — smaller
// keys flush first; the default is file offset order, which maximizes
// extent coalescing).
struct WritebackCtx {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;          // folio's first page index
  uint32_t nr_pages = 0;       // folio span (2^order)
  uint64_t nr_dirty = 0;       // cgroup dirty gauge at harvest time
  MemCgroup* memcg = nullptr;
  bool for_sync = false;       // harvested by fsync, not the background lane
};

// A page-cache eviction policy. The page cache invokes the hooks on cache
// events; EvictFolios is called under memory pressure.
//
// Two kinds of implementations exist:
//  - native/base policies (default two-list LRU, native MGLRU), which link
//    folios through Folio::lru;
//  - the cache_ext adapter, which dispatches to loaded "eBPF" programs and
//    keeps folio linkage in its own registry.
class ReclaimPolicy {
 public:
  virtual ~ReclaimPolicy() = default;

  virtual std::string_view name() const = 0;

  // Folio was inserted into the page cache (after charging).
  virtual void FolioAdded(Folio* folio) = 0;
  // Folio was found in the cache by a read/write.
  virtual void FolioAccessed(Folio* folio) = 0;
  // Folio left the page cache — via eviction *or* in circumvention of the
  // normal eviction path (file deleted, fadvise(DONTNEED), truncation). The
  // policy must drop any metadata it holds for the folio (§4.2.1).
  virtual void FolioRemoved(Folio* folio) = 0;
  // Propose eviction candidates for `memcg` into ctx.
  virtual void EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) = 0;

  // Admission filter hook (§5.6); default admits everything.
  virtual bool AdmitFolio(const AdmissionCtx& ctx) {
    (void)ctx;
    return true;
  }

  // The folio being inserted refaulted (a shadow entry was found). `tier` is
  // the MGLRU tier recorded at eviction time; policies that feed refault
  // statistics into their controller (MGLRU's PID) override this.
  virtual void FolioRefaulted(Folio* folio, uint32_t tier) {
    (void)folio;
    (void)tier;
  }

  // Tier to record in the shadow entry when `folio` is evicted (0 for
  // policies without tiers).
  virtual uint32_t EvictionTier(const Folio* folio) const {
    (void)folio;
    return 0;
  }

  // Never called; kept only for perfbench's TracingPolicy override.
  virtual int64_t RequestPrefetch(const PrefetchCtx& ctx) {
    (void)ctx;
    return -1;
  }

  // Readahead hook: the per-stream window decision (ondemand_readahead
  // analogue). Negative defers to the kernel heuristic; 0 suppresses
  // readahead. The page cache clamps the answer to max_readahead_pages.
  virtual int64_t RequestReadahead(const ReadaheadCtx& ctx) {
    (void)ctx;
    return -1;
  }

  // Folio allocation order for an admission (0 | 2 | 4). The page cache
  // falls back to 0 on misalignment, span conflicts, or memcg pressure.
  virtual uint32_t AdmitOrder(const AdmitOrderCtx& ctx) {
    (void)ctx;
    return 0;
  }

  // Writeback admission: may the flusher write this dirty folio back this
  // tick? Returning false defers it to a later tick; fsync-driven harvests
  // (ctx.for_sync) ignore a veto — durability beats policy intent, and the
  // flusher re-offers deferred folios every tick so a stuck policy cannot
  // pin dirty data forever (the breaker degrades the hook instead).
  virtual bool ShouldWriteback(const WritebackCtx& ctx) {
    (void)ctx;
    return true;
  }

  // Flush-ordering key for a harvested dirty folio: the flusher sorts each
  // batch by ascending key before extent coalescing, so a policy can flush
  // SSTable blocks in key order or group writes by stream. Negative defers
  // to the default (file offset order).
  virtual int64_t WritebackOrder(const WritebackCtx& ctx) {
    (void)ctx;
    return -1;
  }

  // Called by the page cache on every candidate this policy proposed,
  // BEFORE the pointer is dereferenced. The cache_ext adapter overrides this
  // with the valid-folio registry membership check (§4.4); native policies
  // produce trusted pointers from their own lists.
  virtual bool ValidateCandidate(Folio* folio) { return folio != nullptr; }

  // Per-hook circuit-breaker health. Native policies are trusted and report
  // nothing; the cache_ext adapter reports its breaker state.
  virtual PolicyHookHealth HookHealth() const { return {}; }

  // True when the policy's own containment has escalated (multiple hooks
  // tripped, or a persistently high violation rate) and the page cache
  // should stop consulting it entirely — the watchdog finishes the job.
  virtual bool WantsDetach() const { return false; }

  // Hot-path counters (map probes vs local-storage hits, eviction-path
  // allocations). Native policies keep no per-folio maps and report
  // nothing; the cache_ext adapter aggregates its maps and arena.
  virtual PolicyRuntimeCounters RuntimeCounters() const { return {}; }

  // Approximate CPU cost of one hook invocation, charged to the acting
  // lane's virtual clock (see src/sim/cpu_cost.h).
  virtual uint64_t PerEventCostNs() const { return 90; }
};

}  // namespace cache_ext

#endif  // SRC_PAGECACHE_EVICTION_H_
