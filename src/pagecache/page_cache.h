// The simulated Linux page cache.
//
// Faithfully reproduces the structure the paper builds on (§2.1):
//  - per-file xarray of folios + shadow entries (mm/filemap.c);
//  - per-cgroup charging and cgroup-local reclaim in batches of up to 32
//    candidates proposed by a pluggable eviction policy;
//  - a *base* (native) policy per cgroup — default two-list LRU or native
//    MGLRU — whose bookkeeping always runs, exactly like the kernel keeps
//    folios on its own LRU lists even when cache_ext is attached ("the
//    actual folios are still stored and maintained by the default kernel
//    page cache implementation", §4.2.2);
//  - an optional *ext* policy per cgroup (the cache_ext adapter) that
//    overrides eviction proposals, with validation, default-policy fallback
//    and a misbehaviour watchdog (§4.4);
//  - workingset shadow entries / refault activation, dirty writeback on
//    eviction, readahead, and fadvise() hints.
//
// Timing: operations charge CPU costs and SSD time to the acting Lane's
// virtual clock (see src/sim/cpu_cost.h and DESIGN.md §4).
//
// Concurrency (DESIGN.md "Concurrency model"): the cache is sharded the way
// the kernel shards, so lanes in different cgroups / on different files run
// in parallel. Three lock levels, always acquired top-down:
//
//   registry_mu_          cgroup/file creation, attach/detach, DeleteFile
//   CgroupState::mu       per-cgroup: policies + reclaim (per-memcg lru_lock)
//   mapping stripes       per-file index: xarray writes + folio lifetime
//                         (i_pages xa_lock; striped, not per-file, to
//                         bound memory)
//
// Invariants: never two cgroup locks at once, never two stripes at once,
// stripe is only ever taken *inside* a cgroup lock (never the reverse),
// and the stripe is never REQUIRED to find a resident folio: Read, Write
// and readahead share one walk (WalkFolios, filemap_get_pages) that looks
// folios up lock-free under an ebr::Guard (filemap_get_folio under
// rcu_read_lock) and pins each with a speculative TryPin, falling back to
// the locked miss path on any race. Writers (insert, truncate, eviction)
// keep the stripe, and so does a write hit's re-point of its pages.
// Folio lifetime: a folio is only freed by its owning cgroup's RemoveFolio,
// which — under the stripe — re-checks "still mapped" and *freezes* the pin
// count (Folio::TryFreeze) so no lockless TryPin can resurrect it, then
// unmaps it and defers the free to EBR (ebr::Retire) so concurrent guarded
// readers never touch freed memory. Any path that uses a folio outside the
// stripe holds a pin (taken under the stripe, or via TryPin + revalidate).

#ifndef SRC_PAGECACHE_PAGE_CACHE_H_
#define SRC_PAGECACHE_PAGE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cgroup/memcg.h"
#include "src/cgroup/memcg_stat.h"
#include "src/mm/address_space.h"
#include "src/mm/folio.h"
#include "src/pagecache/eviction.h"
#include "src/reclaim/reclaimer.h"
#include "src/sim/cpu_cost.h"
#include "src/sim/lane.h"
#include "src/sim/sim_disk.h"
#include "src/sim/ssd_model.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/writeback/dirty.h"
#include "src/writeback/flusher.h"

namespace cache_ext {

enum class BasePolicyKind {
  kDefaultLru,
  kMglru,
};

enum class Fadvise {
  kNormal,
  kWillNeed,
  kDontNeed,
  kSequential,
  kRandom,
  kNoReuse,
};

// Observation hook for page-cache events; used by the Table 1 bench to model
// a userspace-dispatch architecture (every event posted to a ring buffer).
// Called concurrently from all lanes; implementations must be thread-safe.
class PageCacheTracer {
 public:
  virtual ~PageCacheTracer() = default;
  virtual void OnFolioAdded(Lane& lane, const Folio& folio) = 0;
  virtual void OnFolioAccessed(Lane& lane, const Folio& folio) = 0;
  virtual void OnFolioEvicted(Lane& lane, const Folio& folio) = 0;
};

struct PageCacheOptions {
  CpuCostModel costs;
  // An attached ext policy is forcibly unloaded after this many invalid
  // eviction candidates (the watchdog of §4.4).
  uint64_t watchdog_violation_limit = 128;
  // Readahead cap in pages (doubled by FADV_SEQUENTIAL).
  uint32_t max_readahead_pages = 8;
  // Background reclaim (src/reclaim): watermark-paced reclaimer lanes, the
  // allocator-side watchdog, and the `reclaim.background=false` ablation.
  // Off by default — inline-only direct reclaim, the historical behaviour.
  reclaim::ReclaimOptions reclaim;
  // Background writeback (src/writeback): per-cgroup flusher lanes paced by
  // dirty ratios, writer throttling above the dirty threshold, and the
  // `writeback.background=false` ablation. Off by default — dirty folios
  // are only written back by fsync or at eviction time, inline.
  writeback::WritebackOptions writeback;
};

// Per-cgroup snapshot of the page cache's counters (the cgroup's own
// counters — hits, misses, evictions... — live on MemCgroup). The counter
// fields come from the table in src/cgroup/memcg_stat.h; the state after
// them is not a counter.
struct CgroupCacheStats {
  CACHE_EXT_MEMCG_STATS(CACHE_EXT_STAT_FIELD)
  bool ext_detached_by_watchdog = false;
  bool oom_killed = false;
  // Per-hook circuit-breaker state (§4.4 hardening). The mask covers the
  // CURRENT attachment (PolicyHookBit per degraded hook); trip counts
  // accumulate across attachments of this cgroup.
  uint32_t ext_degraded_hook_mask = 0;
  std::array<uint64_t, kNumPolicyHooks> ext_hook_trip_counts{};
  // Quarantine state published by the policy manager: the cgroup's last
  // managed policy was watchdog-reverted and is awaiting (or banned from)
  // backoff re-attach.
  bool ext_quarantined = false;
  bool ext_banned = false;
  uint32_t ext_reattach_attempts = 0;
  reclaim::LaneHealth reclaim_health = reclaim::LaneHealth::kIdle;
};

class PageCache {
 public:
  PageCache(SimDisk* disk, SsdModel* ssd, PageCacheOptions options = {});
  ~PageCache();
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // --- Setup -------------------------------------------------------------

  MemCgroup* CreateCgroup(std::string_view name, uint64_t limit_bytes,
                          BasePolicyKind base = BasePolicyKind::kDefaultLru);

  // Opens `name` on the disk (creating it if absent) and returns its
  // address space. Address spaces are process-global, like the kernel's.
  Expected<AddressSpace*> OpenFile(std::string_view name);

  // Attach / detach a cache_ext policy for a cgroup. Used by the cache_ext
  // loader; `policy` is the framework adapter. Detaching reverts eviction to
  // the base policy. Folios resident at attach time are introduced to the
  // policy via FolioAdded, so it starts with a complete view.
  Status AttachExtPolicy(MemCgroup* cg, std::unique_ptr<ReclaimPolicy> policy);
  Status DetachExtPolicy(MemCgroup* cg);
  ReclaimPolicy* ext_policy(MemCgroup* cg);
  // Count a policy the load-time verifier rejected before attach; shows up
  // as rejected_at_load in StatsFor(cg).
  void RecordLoadRejection(MemCgroup* cg);
  // Published by the policy manager so quarantine/backoff state shows up in
  // StatsFor(cg) next to the watchdog counters it reacts to.
  void SetQuarantineInfo(MemCgroup* cg, bool quarantined, bool banned,
                         uint32_t reattach_attempts);

  void SetTracer(PageCacheTracer* tracer) { tracer_ = tracer; }

  // --- Data path ----------------------------------------------------------
  //
  // Thread-safe: concurrent calls from different lanes proceed in parallel
  // when they touch different cgroups/files. Callers must not race a
  // DeleteFile against other operations on the same AddressSpace (the
  // kernel equivalent: an open fd holds the inode alive).

  // pread()-style read through the cache; out.size() bytes from `offset`.
  // Bytes are copied out of the folios' pages, which share the device's;
  // a hit never touches the device. Fails with IoError when a miss run's
  // device read fails (the `sim.disk.read` fault point), leaving nothing
  // inserted.
  Status Read(Lane& lane, AddressSpace* as, MemCgroup* cg, uint64_t offset,
              std::span<uint8_t> out);
  // pwrite()-style write through the cache (write-back). The bytes are
  // published to the device first (one copy); cached pages in the range
  // are then re-pointed at the device's pages.
  Status Write(Lane& lane, AddressSpace* as, MemCgroup* cg, uint64_t offset,
               std::span<const uint8_t> data);
  // The same write, handing `bytes` to the device without a copy when
  // `offset` is page aligned (SimDisk::WriteAt's gift).
  Status Write(Lane& lane, AddressSpace* as, MemCgroup* cg, uint64_t offset,
               std::string&& bytes);
  // Flush all dirty folios of the file; lane waits for completion (fsync).
  Status SyncFile(Lane& lane, AddressSpace* as);
  Status FadviseRange(Lane& lane, AddressSpace* as, MemCgroup* cg,
                      Fadvise advice, uint64_t offset, uint64_t len);
  // Remove all folios of `as` in circumvention of the eviction path (file
  // deletion / truncation, §4.2.1) and delete the backing file.
  Status DeleteFile(Lane& lane, AddressSpace* as);

  // --- Introspection -------------------------------------------------------

  CgroupCacheStats StatsFor(MemCgroup* cg);
  uint64_t TotalResidentPages() const {
    return total_resident_.load(std::memory_order_relaxed);
  }
  uint64_t FileSize(AddressSpace* as) const { return disk_->SizeOf(as->file()); }
  SimDisk* disk() { return disk_; }
  SsdModel* ssd() { return ssd_; }
  const PageCacheOptions& options() const { return options_; }

 private:
  // The page cache's counters (and the folded policy counters) as relaxed
  // atomics: bumped from whichever lock (cgroup or stripe) the path holds;
  // StatsFor takes the cgroup lock and loads a coherent snapshot.
  struct AtomicCgroupStats {
    CACHE_EXT_STAT_ATOMICS(CACHE_EXT_PAGE_CACHE_STATS)
  };
  struct AtomicPolicyStats {
    CACHE_EXT_STAT_ATOMICS(CACHE_EXT_POLICY_STATS)
  };

  struct CgroupState {
    std::unique_ptr<MemCgroup> cg;
    // Per-cgroup lock: the analogue of the kernel's per-memcg lru_lock.
    // Guards both policies' internal state and serializes this cgroup's
    // reclaim; folio removal always happens under the OWNER's lock.
    Mutex mu;
    std::unique_ptr<ReclaimPolicy> base CACHE_EXT_GUARDED_BY(mu);
    std::unique_ptr<ReclaimPolicy> ext CACHE_EXT_GUARDED_BY(mu);
    AtomicCgroupStats stats;
    // Policy counters of departed attachments, folded in at detach;
    // StatsFor overlays the live attachment's on top.
    AtomicPolicyStats detached_policy_stats;
    std::array<std::atomic<uint64_t>, kNumPolicyHooks> ext_hook_trip_counts{};
    std::atomic<bool> ext_quarantined{false};
    std::atomic<bool> ext_banned{false};
    std::atomic<uint32_t> ext_reattach_attempts{0};
    std::atomic<bool> oom_killed{false};
    std::atomic<bool> watchdog_detached{false};
    // Lock-free hints for the hit path's append-time cost accounting: the
    // authoritative ext state lives behind mu, but charging an event's
    // dispatch cost must not take the owner's lock on every hit.
    std::atomic<bool> ext_active_hint{false};
    std::atomic<uint64_t> ext_event_cost_ns{0};
    uint64_t base_event_cost_ns = 0;  // immutable after CreateCgroup
    // Background-reclaim control block (hysteresis latch, heartbeat,
    // watchdog, the reclaimer's own virtual lane, and all reclaim
    // counters). The lruvec->kswapd link; heavy mutation happens under mu,
    // wake checks are lock-free atomics.
    std::unique_ptr<reclaim::CgroupReclaimControl> reclaim;
    // Background-writeback control block (dirty gauge + file set, wakeup
    // latch, the flusher's own virtual lane, and all writeback counters).
    // The bdi_writeback analogue; the dirty gauge mutates lock-free from
    // hit paths, flush ticks run under mu.
    std::unique_ptr<writeback::CgroupFlushControl> flush;
  };

  // One buffered folio_added/folio_accessed notification. The ring holds a
  // pin on the folio, so it cannot be freed before dispatch.
  enum class HookEvent : uint8_t { kAdded, kAccessed };
  struct PendingHook {
    Folio* folio;
    CgroupState* owner;
    HookEvent event;
  };
  // Operation-local dispatch ring. Capacity leaves slack above the drain
  // threshold (kHookBatchSize in swap.cc) because a locked drain can only
  // retire the locked cgroup's entries and must keep the rest.
  struct DispatchBatch {
    std::array<PendingHook, 2 * kMaxEvictionBatch> entries;
    uint32_t size = 0;
  };

  // O(1), lock-free: CgroupStates are never destroyed before the cache.
  // Null for a null cgroup or one not created by this cache.
  CgroupState* StateFor(MemCgroup* cg) {
    return cg == nullptr ? nullptr : static_cast<CgroupState*>(cg->priv());
  }

  struct alignas(64) Stripe {
    Mutex mu;
  };

  Stripe& StripeFor(const AddressSpace* as) {
    return stripes_[as->id() & (kNumStripes - 1)];
  }

  // True when the cgroup's ext policy should still be consulted. False once
  // the watchdog flagged it — EVERY dispatch site must check this, so a
  // "detached" policy's programs never run and its per-event cost is never
  // charged — and latches the flag when the policy's own circuit breaker
  // escalates (multiple hooks tripped / persistently high violation rate).
  bool ExtActive(CgroupState& st) CACHE_EXT_REQUIRES(st.mu);

  // --- Batched hook dispatch ---------------------------------------------
  //
  // Append charges the per-event policy costs (using the lock-free hints)
  // and runs the tracer inline; the policy calls themselves are deferred.
  // The ring adopts one pin the caller holds on `folio` (a hit hands over
  // its lookup's), and the caller must not touch the folio afterwards: a
  // full ring may drain and unpin it at once. `locked` is the cgroup lock
  // the caller currently holds (nullptr if none): a full ring drains
  // through DrainLocked for that cgroup instead of Drain, which would
  // self-deadlock.
  void Append(Lane& lane, DispatchBatch& batch, CgroupState* owner,
              Folio* folio, HookEvent event, CgroupState* locked);
  // Dispatch every buffered event, taking each owner's lock in turn (the
  // caller must hold no cgroup lock). Charges one amortized dispatch cost
  // per locked run of events.
  void Drain(Lane& lane, DispatchBatch& batch);
  // Dispatch the buffered events owned by `st` (whose lock the caller
  // holds); events for other cgroups are kept. Called at reclaim entry so
  // the policy sees all pending notifications before proposing victims.
  void DrainLocked(Lane& lane, DispatchBatch& batch, CgroupState& st)
      CACHE_EXT_REQUIRES(st.mu);
  void DispatchLocked(Lane& lane, const PendingHook& entry,
                      CgroupState& st) CACHE_EXT_REQUIRES(st.mu);

  void DispatchRemoved(Lane& lane, CgroupState& st, Folio* folio)
      CACHE_EXT_REQUIRES(st.mu);

  // One folio the walk found resident, pinned. It serves the range's pages
  // [index, end): `index` is the page it was looked up at, which a
  // multi-order folio may start below, and `end` stops at the range's end.
  struct WalkHit {
    Folio* folio;
    uint64_t index;
    uint64_t end;
  };
  // Lookups per guarded batch of the walk (the kernel's folio_batch).
  static constexpr size_t kWalkBatch = 16;

  // The one lookup protocol of Read, WriteThrough and Prefetch (the
  // kernel's filemap_get_pages) over pages [first, last]. Lock-free lookups
  // (LocklessLookup, counted against `reader`) fill a batch of pinned
  // folios under one ebr::Guard, and `on_hits(std::span<const WalkHit>)`
  // runs inside that guard and takes over their pins. A page found missing
  // is not looked up again: the rest of its contiguous missing run is
  // gathered under the stripe, and `on_miss(index, run_end)` returns the
  // next page to look up (Expected<uint64_t>), or an error that ends the
  // walk. The walk also ends, with ResourceExhausted, once `reader` is
  // OOM-killed.
  template <typename OnHits, typename OnMiss>
  Status WalkFolios(AddressSpace* as, CgroupState& reader, uint64_t first,
                    uint64_t last, OnHits&& on_hits, OnMiss&& on_miss);

  // Which operation missed (the admission hook's is_write).
  enum class MissKind : uint8_t { kRead, kWrite, kReadahead };

  // Under the stripe: the first resident page of [from, last], or last + 1.
  uint64_t MissingUntil(AddressSpace* as, uint64_t from, uint64_t last);

  // The miss-run loop the three share: inserts a folio at each missing
  // page from `index` up to `wanted_end` in turn (the walk's run
  // [index, run_end] is known missing; past it each further run is
  // gathered again), and hands `on_page(page, folio)` the new folio PINNED
  // (it must unpin it) or nullptr for a page the admission filter denied;
  // each page handed over is a miss for the caller to count. Stops at a
  // resident page, at a page another lane inserted first (the walk then
  // finds it as a hit) and once the cgroup is OOM-killed; returns the page
  // after the last one handled. admit_order hears that the pages up to
  // `wanted_end` are wanted.
  template <typename OnPage>
  uint64_t FillMissRun(Lane& lane, AddressSpace* as, CgroupState& st,
                       DispatchBatch& batch, MissKind kind, uint64_t index,
                       uint64_t run_end, uint64_t wanted_end,
                       OnPage&& on_page) CACHE_EXT_REQUIRES(st.mu);

  // The entry and exit Read and WriteThrough share: argument and OOM
  // checks, the task and syscall charge, then `body(CgroupState&,
  // DispatchBatch&, first, last)` over the pages of [offset, offset + len)
  // and one drain of the ring whatever it returns.
  template <typename Body>
  Status DataOp(Lane& lane, AddressSpace* as, MemCgroup* cg, uint64_t offset,
                size_t len, Body&& body);

  // Insert a folio for (as, index), a page the walk has just found
  // missing, charged to st's cgroup. Returns the folio PINNED (caller
  // unpins), or nullptr when the ext admission filter rejected it (caller
  // services the I/O directly) or when another lane mapped the index first:
  // then it sets *raced, which the caller initialises to false (the
  // re-check under the stripe finds that after the admission hook ran).
  //
  // `nr_wanted` is how many further contiguous pages the caller still
  // wants (>= 1, counting `index`); it seeds the admit_order hook so a
  // policy can match the folio order to the stream. The inserted folio may
  // span [index, index + 2^order) — callers advance by folio->nr_pages(),
  // not by 1.
  Folio* InsertFolio(Lane& lane, AddressSpace* as, CgroupState& st,
                     uint64_t index, MissKind kind, DispatchBatch& batch,
                     bool* raced, uint32_t nr_wanted)
      CACHE_EXT_REQUIRES(st.mu);

  // Order selection for an admission at `index`: dispatch the ext policy's
  // admit_order hook, then fall back to 0 on misalignment, span conflicts
  // (a resident folio already inside the span), EOF overrun, or memcg
  // pressure (the cgroup already over its limit — allocation has outrun
  // reclaim). Counted via ext_order_fallbacks when a nonzero request is
  // demoted.
  uint32_t SelectOrder(Lane& lane, CgroupState& st, AddressSpace* as,
                       uint64_t index, uint32_t nr_wanted)
      CACHE_EXT_REQUIRES(st.mu);

  // Points pages [from, to) of `folio`, a folio of `as`, at the device's
  // current runs for them, taking a reference each. The caller holds the
  // mapping stripe. A replaced reference is retired through EBR, since a
  // lockless reader may still be copying from it.
  void RefDevicePages(AddressSpace* as, Folio& folio, uint64_t from,
                      uint64_t to);

  // Both Writes: publish to the device (adopting `*gift` when non-null),
  // then run the write-back cache over the range.
  Status WriteThrough(Lane& lane, AddressSpace* as, MemCgroup* cg,
                      uint64_t offset, std::span<const uint8_t> data,
                      std::string* gift);

  // Writeback (if dirty) and remove the folio at (as, index), which must be
  // owned by st's cgroup. kEvict stores a shadow entry; kInvalidate does
  // not. Re-checks under the stripe that the index still maps `expected`
  // (when non-null) and that the folio is unpinned; returns false (no
  // removal) otherwise.
  enum class RemovalKind { kEvict, kInvalidate };
  bool RemoveFolio(Lane& lane, CgroupState& st, AddressSpace* as,
                   uint64_t index, Folio* expected, RemovalKind kind,
                   bool skip_writeback = false) CACHE_EXT_REQUIRES(st.mu);

  // FADV_DONTNEED on one victim folio: invalidate it, and when it was a
  // multi-order folio only partially covered by [first, last], split — the
  // kept subpages are re-inserted as order-0 folios (counted via
  // ext_order_splits), like truncate_inode_partial_folio.
  void InvalidateForDontNeed(Lane& lane, CgroupState& st, AddressSpace* as,
                             uint64_t index, uint64_t first, uint64_t last)
      CACHE_EXT_REQUIRES(st.mu);

  // --- Reclaim -------------------------------------------------------------
  //
  // The allocation-side entry point. With background reclaim off (the
  // default / ablation) this is the historical inline loop: over the limit
  // -> DirectReclaim until under. With it on, this becomes the kernel's
  // shape: check watermarks, kick the cgroup's reclaimer lane on the
  // low-watermark crossing, and only pay DirectReclaim (bounded: back under
  // the hard limit, not down to the high watermark) when allocation outran
  // the daemon — or when the daemon is stalled/dead, which the allocator
  // watchdog detects by heartbeat and degrades around. May OOM-kill the
  // cgroup after repeated zero-progress rounds.
  void ReclaimIfNeeded(Lane& lane, CgroupState& st, DispatchBatch& batch)
      CACHE_EXT_REQUIRES(st.mu);

  // One policy dispatch round: charge the batch cost, ask the active policy
  // for up to `requested` candidates, validate + evict them, run the
  // under-proposal fallback and the two watchdogs (violation limit, ext
  // reclaim-failure streak). Returns folios actually evicted. The extracted
  // body of the old inline loop, now shared by direct and background
  // reclaim — `lane` is the allocator's clock for the former, the
  // reclaimer lane for the latter.
  uint64_t RunEvictionBatch(Lane& lane, CgroupState& st, uint64_t requested,
                            ReclaimSource source) CACHE_EXT_REQUIRES(st.mu);

  // Inline reclaim to the hard limit on the allocator's own clock, with
  // PSI some/full stall accounting. Both the inline-only ablation and the
  // emergency path of background mode land here.
  void DirectReclaim(Lane& lane, CgroupState& st, DispatchBatch& batch)
      CACHE_EXT_REQUIRES(st.mu);

  // One reclaimer-lane tick: batches toward the high watermark on the
  // control block's own virtual lane, as the reclaimer task. `batch` (may
  // be null from pool threads) is drained first so the policy sees pending
  // notifications; `now_hint_ns` pins the reclaimer clock forward to the
  // waker's (0 = none).
  void BackgroundTick(CgroupState& st, DispatchBatch* batch,
                      uint64_t now_hint_ns) CACHE_EXT_REQUIRES(st.mu);

  // Wake the cgroup's reclaimer: async condvar kick in threaded mode, a
  // synchronous virtual-lane tick otherwise (whose cost lands on the
  // reclaimer's clock, not the allocator's).
  void KickBackground(Lane& lane, CgroupState& st, DispatchBatch& batch)
      CACHE_EXT_REQUIRES(st.mu);

  // ReclaimerPool callback: pressure-check the cgroup without its lock,
  // then lock and tick.
  void BackgroundTickForToken(void* token);

  // --- Writeback -----------------------------------------------------------
  //
  // The dirtying-side entry points of the flusher subsystem (src/writeback).
  // A clean->dirty transition calls NoteDirtied on the owner's flush control
  // (gauge + dirty-file set), then balances: crossing the background
  // threshold kicks the cgroup's flusher lane; crossing the dirty threshold
  // additionally stalls the writer (balance_dirty_pages), accounted as
  // ext_dirty_throttle_ns.

  // Balance from a path holding no locks (the write hit path; `st` is the
  // dirtied folio's OWNER). Takes st.mu only when the lock-free gauge check
  // says the thresholds demand it.
  void BalanceDirty(Lane& lane, CgroupState& st);
  void BalanceDirtyLocked(Lane& lane, CgroupState& st, DispatchBatch* batch)
      CACHE_EXT_REQUIRES(st.mu);

  // One flusher-lane tick, run synchronously by the dirtying writer that
  // woke it (an always-prompt flusher): harvest dirty folios from the
  // cgroup's dirty files (consulting the policy's should_writeback /
  // writeback_order hooks), coalesce them into contiguous per-file
  // extents, and submit each extent on the flusher's own virtual lane —
  // the cost lands on the flusher's clock, not the writer's. `now_hint_ns`
  // pins the flusher clock forward to the waker's.
  void FlushTick(CgroupState& st, DispatchBatch* batch, uint64_t now_hint_ns)
      CACHE_EXT_REQUIRES(st.mu);

  // Readahead: called on a miss at `index`; returns how many extra pages to
  // prefetch after `last_requested`. Consults the ext policy's readahead
  // hook (ondemand_readahead analogue) when one is attached, then the
  // legacy per-page prefetch hook (§7 extension) for compat; every policy
  // window is clamped to max_readahead_pages (ext_readahead_clamped).
  // `nr_requested` is how many pages the current read call still wants.
  uint32_t ReadaheadWindow(Lane& lane, CgroupState& st, AddressSpace* as,
                           uint64_t index, uint32_t nr_requested)
      CACHE_EXT_REQUIRES(st.mu);
  // Reads ahead the missing pages of [first_index, first_index + nr_pages)
  // (nr_pages > 0) as one asynchronous device read; resident pages and
  // pages the admission filter denies are skipped.
  void Prefetch(Lane& lane, AddressSpace* as, CgroupState& st,
                uint64_t first_index, uint32_t nr_pages, DispatchBatch& batch)
      CACHE_EXT_REQUIRES(st.mu);

  bool CandidateValid(CgroupState& st, Folio* folio, bool from_ext,
                      bool* violation) CACHE_EXT_REQUIRES(st.mu);

  // The lockless hit lookup (filemap_get_folio fast path): walks the
  // xarray under the caller's ebr::Guard, TryPins the folio, then
  // revalidates mapping/index and reloads the slot (folio_try_get + the
  // re-check in filemap_get_entry). Returns the folio PINNED, or nullptr on
  // a miss / shadow entry / lost race — the caller falls back to the locked
  // slow path, which is authoritative. Bumps `reader`'s lockless counters.
  Folio* LocklessLookup(AddressSpace* as, uint64_t index,
                        CgroupState& reader);

  CgroupCacheStats SnapshotStats(CgroupState& st) CACHE_EXT_REQUIRES(st.mu);

  SimDisk* disk_;
  SsdModel* ssd_;
  PageCacheOptions options_;
  std::atomic<PageCacheTracer*> tracer_{nullptr};

  // Striped per-mapping locks (cache-line padded): the analogue of the
  // kernel's per-mapping i_pages xa_lock, striped by mapping id.
  static constexpr uint64_t kNumStripes = 64;
  std::array<Stripe, kNumStripes> stripes_;

  // Registry lock (outermost): cgroup/file creation and lookup, DeleteFile.
  // The data path never takes it — lanes reach their CgroupState through
  // MemCgroup::priv() and carry AddressSpace pointers.
  Mutex registry_mu_;
  uint64_t next_cgroup_id_ CACHE_EXT_GUARDED_BY(registry_mu_) = 1;
  uint64_t next_mapping_id_ CACHE_EXT_GUARDED_BY(registry_mu_) = 1;
  std::vector<std::unique_ptr<CgroupState>> cgroups_
      CACHE_EXT_GUARDED_BY(registry_mu_);
  std::unordered_map<std::string, std::unique_ptr<AddressSpace>> files_
      CACHE_EXT_GUARDED_BY(registry_mu_);
  std::atomic<uint64_t> total_resident_{0};
  // Real reclaimer threads (options_.reclaim.use_threads); null in the
  // single-threaded simulators. Stopped in ~PageCache before
  // ebr::Synchronize() and policy teardown.
  std::unique_ptr<reclaim::ReclaimerPool> reclaimer_pool_;
};

}  // namespace cache_ext

#endif  // SRC_PAGECACHE_PAGE_CACHE_H_
