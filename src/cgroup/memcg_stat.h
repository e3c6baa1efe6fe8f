// Per-cgroup counters, declared once: the analogue of the kernel's
// memory_stats[] table in mm/memcontrol.c, which generates memory.stat.
//
// Every counter of CgroupCacheStats (src/pagecache/page_cache.h) is one line
// in the list of the layer that owns and bumps it:
//
//   X(name, unit, help)
//
// `name` is the CgroupCacheStats field and the atomic its owner bumps;
// `unit` (kCount, kNs or kBytes) says how printers format the value; `help`
// is its meaning. The lists generate the counter fields of
// CgroupCacheStats, each owner's relaxed atomics (CACHE_EXT_STAT_ATOMICS),
// PolicyRuntimeCounters, the snapshot copy, the fold of policy counters at
// detach with its live overlay, and ForEachStat. A new counter takes one
// line here plus its bump site.

#ifndef SRC_CGROUP_MEMCG_STAT_H_
#define SRC_CGROUP_MEMCG_STAT_H_

#include <atomic>
#include <cstdint>
#include <string_view>

namespace cache_ext {

// Page cache: kept in PageCache's per-cgroup state. ext_violations restarts
// at 0 on every attach, because the watchdog limit is per attachment. The
// share of lockless lookups that retry is the health signal of the
// lock-free hit path.
#define CACHE_EXT_PAGE_CACHE_STATS(X) \
  X(fallback_evictions, kCount, "folios evicted by the base-policy fallback (§4.4)") \
  X(ext_violations, kCount, "invalid eviction candidates from the current ext policy") \
  X(direct_reads, kCount, "pages read uncached because admission denied them (§5.6)") \
  X(direct_writes, kCount, "pages written uncached because admission denied them") \
  X(readahead_pages, kCount, "pages admitted by readahead") \
  X(writeback_pages, kCount, "dirty pages written back: fsync, flusher or eviction") \
  X(invalidations, kCount, "folios removed around eviction (DONTNEED, delete)") \
  X(rejected_at_load, kCount, "policies the load-time verifier rejected (§4.4)") \
  X(ext_lockless_lookups, kCount, "hit lookups tried without the mapping stripe") \
  X(ext_lockless_retries, kCount, "lockless lookups that lost a race, retried locked") \
  X(ext_readahead_clamped, kCount, "policy readahead windows cut to max_readahead_pages") \
  X(ext_order_folios, kCount, "multi-order folios admitted") \
  X(ext_order_pages, kCount, "pages covered by admitted multi-order folios") \
  X(ext_order_fallbacks, kCount, "policy-requested folio orders demoted to 0") \
  X(ext_order_splits, kCount, "multi-order folios split by a partial invalidate")

// Attached policy: reported live by ReclaimPolicy::RuntimeCounters(); the
// page cache folds each departing attachment's values into per-cgroup
// atomics, so the totals span attachments. Interpreter fallbacks with no
// JIT compiles mean the interpreter kept a policy attached whose lowering
// failed.
#define CACHE_EXT_POLICY_STATS(X) \
  X(ext_map_lookups, kCount, "folio metadata lookups that paid a hash probe") \
  X(ext_local_storage_hits, kCount, "folio metadata lookups served by a storage slot") \
  X(ext_evict_alloc_bytes, kBytes, "heap bytes the eviction scoring path allocated") \
  X(ext_evict_arena_reuses, kCount, "scoring batches that reused the eviction arena") \
  X(ext_ir_jit_compiles, kCount, "IR hook programs lowered to native closures") \
  X(ext_ir_jit_ns, kNs, "wall time spent lowering IR hook programs") \
  X(ext_ir_interp_fallbacks, kCount, "IR hook runs on the interpreter (lowering failed)")

// Background and direct reclaim: kept in reclaim::CgroupReclaimControl.
// The two ns counters split eviction time between allocating tasks (what
// allocation latency pays) and the reclaimer lane (what it does not).
#define CACHE_EXT_RECLAIM_STATS(X) \
  X(reclaim_wakeups, kCount, "idle->active edges of the reclaimer lane") \
  X(reclaim_background_batches, kCount, "eviction batches run on the reclaimer lane") \
  X(reclaim_background_evicted, kCount, "folios the reclaimer lane evicted") \
  X(ext_background_reclaim_ns, kNs, "reclaimer-lane time spent evicting") \
  X(reclaim_direct_entries, kCount, "direct reclaim entries by allocating tasks") \
  X(reclaim_direct_evicted, kCount, "folios direct reclaim evicted") \
  X(ext_direct_reclaim_ns, kNs, "allocating-task time spent in direct reclaim") \
  X(reclaim_emergency_entries, kCount, "allocations over the limit despite a reclaimer") \
  X(reclaim_watchdog_trips, kCount, "reclaimer lanes declared stalled or dead") \
  X(reclaim_stalled_ticks, kCount, "reclaimer ticks wedged by reclaim.stall") \
  X(reclaim_max_overshoot_pages, kCount, "largest charge seen over the limit, in pages") \
  X(ext_reclaim_failures, kCount, "rounds the ext policy failed and the fallback evicted") \
  X(psi_some_ns, kNs, "PSI some: time allocating tasks stalled in reclaim") \
  X(psi_full_ns, kNs, "PSI full: the part of psi_some_ns that evicted nothing")

// Writeback: kept in writeback::CgroupFlushControl. The ns pair splits the
// same way: writers stalled by throttling vs the flusher lane's own time.
#define CACHE_EXT_WRITEBACK_STATS(X) \
  X(dirty_pages, kCount, "gauge: dirty pages charged to the cgroup right now") \
  X(writeback_wakeups, kCount, "idle->active edges of the flusher lane") \
  X(writeback_flush_ticks, kCount, "flusher ticks that submitted writes") \
  X(writeback_extents, kCount, "contiguous extents the flusher submitted") \
  X(writeback_deferred_pages, kCount, "dirty pages should_writeback deferred") \
  X(writeback_throttle_entries, kCount, "writers stalled above the dirty threshold") \
  X(ext_dirty_throttle_ns, kNs, "writer time stalled above the dirty threshold") \
  X(ext_writeback_ns, kNs, "flusher-lane time spent writing back") \
  X(writeback_sync_entries, kCount, "fsyncs that found dirty pages") \
  X(writeback_stalled_ticks, kCount, "flusher ticks wedged by writeback.stall") \
  X(writeback_lost_wakeups, kCount, "flusher kicks dropped by writeback.lost_wakeup") \
  X(writeback_partial_flushes, kCount, "flush ticks cut short by writeback.partial_flush")

#define CACHE_EXT_MEMCG_STATS(X) \
  CACHE_EXT_PAGE_CACHE_STATS(X)  \
  CACHE_EXT_POLICY_STATS(X)      \
  CACHE_EXT_RECLAIM_STATS(X)     \
  CACHE_EXT_WRITEBACK_STATS(X)

enum class StatUnit : uint8_t { kCount, kNs, kBytes };

struct StatDesc {
  std::string_view name;
  StatUnit unit;
  std::string_view help;
};

// Calls fn(desc, field) for every counter of `stats` (a CgroupCacheStats,
// const or not), in table order.
#define CACHE_EXT_STAT_VISIT_(name, unit, help) \
  fn(StatDesc{#name, StatUnit::unit, help}, stats.name);
template <typename Stats, typename Fn>
constexpr void ForEachStat(Stats& stats, Fn&& fn) {
  CACHE_EXT_MEMCG_STATS(CACHE_EXT_STAT_VISIT_)
}

#define CACHE_EXT_STAT_FIELD(name, unit, help) uint64_t name = 0;

// The body of an owner's counter block: one relaxed atomic per entry of
// LIST, named after it; LoadInto(out) copies each into the same-named field
// of `out`, and Add(in) folds the same-named fields of `in` into them.
#define CACHE_EXT_STAT_ATOMIC_(name, unit, help) std::atomic<uint64_t> name{0};
#define CACHE_EXT_STAT_LOAD_(name, unit, help) \
  out.name = name.load(std::memory_order_relaxed);
#define CACHE_EXT_STAT_FETCH_ADD_(name, unit, help) \
  name.fetch_add(in.name, std::memory_order_relaxed);
#define CACHE_EXT_STAT_ATOMICS(LIST) \
  LIST(CACHE_EXT_STAT_ATOMIC_)       \
  template <typename Out>            \
  void LoadInto(Out& out) const {    \
    LIST(CACHE_EXT_STAT_LOAD_)       \
  }                                  \
  template <typename In>             \
  void Add(const In& in) {           \
    LIST(CACHE_EXT_STAT_FETCH_ADD_)  \
  }

// The attached policy's counters as ReclaimPolicy::RuntimeCounters()
// reports them; AddTo overlays them on the same-named fields of `out`.
#define CACHE_EXT_STAT_ADD_TO_(name, unit, help) out.name += name;
struct PolicyRuntimeCounters {
  CACHE_EXT_POLICY_STATS(CACHE_EXT_STAT_FIELD)
  template <typename Out>
  void AddTo(Out& out) const {
    CACHE_EXT_POLICY_STATS(CACHE_EXT_STAT_ADD_TO_)
  }
};

}  // namespace cache_ext

#endif  // SRC_CGROUP_MEMCG_STAT_H_
