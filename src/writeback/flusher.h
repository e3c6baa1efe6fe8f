// Per-cgroup background flusher lanes: the bdi-flusher analogue (ISSUE 9).
//
// The kernel keeps writeback off the write() path by letting per-bdi
// flusher threads harvest dirty inodes (wb->b_dirty) once dirty pages cross
// dirty_background_ratio, and only throttles writers in
// balance_dirty_pages once they outrun the device past dirty_ratio. This
// module is that machinery for the simulated page cache:
//
//  - `CgroupFlushControl` is the per-cgroup control block (one per
//    CgroupState, next to its CgroupReclaimControl): the dirty-page gauge,
//    the dirty-file set (the b_dirty inode list analogue), the hysteresis
//    latch that turns dirty-threshold crossings into wakeups, the flusher's
//    own virtual Lane (writeback CPU time is charged here, not to the
//    dirtying writer), and every writeback counter surfaced through
//    CgroupCacheStats — including the PSI-style stall split the issue asks
//    for: `dirty_throttle_ns` (writers stalled in the balance_dirty_pages
//    analogue) vs `writeback_ns` (lane time actually writing).
//
//  - `FlushItem`/`SortAndCoalesce` are the harvest/coalesce step: dirty
//    folios collected under the stripe become sort-keyed items, and
//    SortAndCoalesce() merges contiguous same-file runs into extents so one
//    SubmitWrite covers a whole run (the block layer's request merging).
//    The flush tick and fsync both submit through it.
//
//  - There are no flusher threads: the lane is ticked synchronously at
//    dirtying sites, which models an always-prompt flusher on its own
//    clock.
//
// Fault points `writeback.stall`, `writeback.lost_wakeup` and
// `writeback.partial_flush` (armed by the chaos suite) wedge a lane, drop a
// kick, or truncate a tick; all InjectFault call sites live in flusher.cc.

#ifndef SRC_WRITEBACK_FLUSHER_H_
#define SRC_WRITEBACK_FLUSHER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/cgroup/memcg_stat.h"
#include "src/sim/lane.h"
#include "src/writeback/dirty.h"

namespace cache_ext {
class AddressSpace;
struct Folio;
}  // namespace cache_ext

namespace cache_ext::writeback {

// Master switches and knobs, embedded in PageCacheOptions.
struct WritebackOptions {
  // Enable background writeback. False (the `writeback.background=false`
  // ablation and the default) preserves the historical behaviour: dirty
  // folios are only written back by fsync or at eviction time, inline on
  // the acting lane.
  bool background = false;
  // Rounds a single Write may be throttled before it proceeds anyway —
  // bounds writer latency when the device simply cannot keep up.
  uint32_t max_throttle_rounds = 16;
};

// Outcome of a tick attempt, decided before any harvest work.
enum class FlushTickOutcome : uint8_t {
  kRun,      // proceed with harvest + flush
  kStalled,  // wedged this tick (writeback.stall): no progress
  kIdle,     // nothing dirty enough to flush
};

// One dirty folio harvested for flushing, plus its policy sort key. The
// folio pointer is an opaque cookie for the harvester (it holds a pin on it
// across the submit); the sort/coalesce step never dereferences it.
struct FlushItem {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;
  uint32_t nr_pages = 0;
  int64_t key = -1;  // policy writeback_order key; <0 = file offset order
  Folio* folio = nullptr;
};

// A contiguous per-file run of harvested pages: one device write, covering
// the sorted items [first_item, end_item).
struct FlushExtent {
  AddressSpace* mapping = nullptr;
  uint64_t index = 0;
  uint64_t nr_pages = 0;
  size_t first_item = 0;
  size_t end_item = 0;
};

// Upper bound on one coalesced extent, in pages (device request cap).
inline constexpr uint32_t kMaxExtentPages = 256;

// Sort items by (key, mapping, index): keyed items first in ascending key
// order, then unkeyed ones (key < 0) in file offset order — a policy keying
// only some folios still flushes those first. Ties break by (mapping,
// index) so contiguous runs of the same file end up adjacent and mergeable
// regardless of harvest order.
void SortFlushItems(std::vector<FlushItem>& items);

// SortFlushItems (in place) + merge contiguous same-file runs into extents
// of at most `max_extent_pages` pages each.
std::vector<FlushExtent> SortAndCoalesce(
    std::vector<FlushItem>& items, uint32_t max_extent_pages = kMaxExtentPages);

// Per-cgroup flusher control block. Mutators on the dirty gauge run from
// lockless hit paths, so everything is atomic; the dirty-file set has its
// own small mutex (the kernel's wb->list_lock analogue).
class CgroupFlushControl {
 public:
  explicit CgroupFlushControl(uint32_t cgroup_id)
      : lane_(kLaneIdBase + cgroup_id, TaskContext{0, 0},
              kLaneSeed + cgroup_id) {}
  CgroupFlushControl(const CgroupFlushControl&) = delete;
  CgroupFlushControl& operator=(const CgroupFlushControl&) = delete;

  // The flusher's own virtual clock. Background writeback work is charged
  // here — the point of the subsystem is that this time does NOT appear on
  // any dirtying writer's lane. Guarded by the owning cgroup's lock.
  Lane& lane() { return lane_; }

  // ---- Dirty accounting (writer side) ------------------------------------

  // `nr` pages of `mapping` went clean->dirty: advance the cgroup gauge and
  // the mapping's own dirty count, and put the file on the dirty list.
  // Callable from lockless hit paths.
  void NoteDirtied(AddressSpace* mapping, uint64_t nr);
  // `nr` dirty pages of `mapping` went clean (written back, or removed from
  // the cache with their dirty bit). Counters only — the file drops off the
  // dirty list lazily when a harvest finds it clean.
  void NoteCleaned(AddressSpace* mapping, uint64_t nr);
  uint64_t nr_dirty() const {
    return counters_.dirty_pages.load(std::memory_order_relaxed);
  }

  // Hysteresis latch: returns true while the flusher should be running.
  // Arms when the gauge crosses the background threshold, stays armed until
  // the tick drains back under it, and counts a wakeup only on the
  // idle->active edge. Consults writeback.lost_wakeup: a dropped kick
  // leaves the latch armed but tells the caller not to kick this time.
  bool ShouldWake(const DirtyLimits& dl);
  void NoteTargetReached() { active_.store(false, std::memory_order_relaxed); }

  // Writer throttling above the dirty ratio (balance_dirty_pages).
  void NoteThrottle(uint64_t stall_ns) {
    counters_.writeback_throttle_entries.fetch_add(1,
                                                   std::memory_order_relaxed);
    counters_.ext_dirty_throttle_ns.fetch_add(stall_ns,
                                              std::memory_order_relaxed);
  }

  // ---- Flusher side (flush tick) -----------------------------------------

  // Gate at the top of every tick; consults the chaos fault points.
  // writeback.stall wedges the next `magnitude` ticks (default 8).
  FlushTickOutcome EnterTick(const DirtyLimits& dl);
  // writeback.partial_flush: when armed, the tick stops after its first
  // extent. Checked between extents.
  bool PartialFlushInjected();

  // Snapshot the dirty-file list for one harvest round. Files found clean
  // are dropped; files with remaining dirty pages are re-added by the
  // caller via RequeueDirtyFile.
  std::vector<AddressSpace*> TakeDirtyFiles();
  void RequeueDirtyFile(AddressSpace* mapping);

  void NoteFlush(uint64_t extents) {
    counters_.writeback_flush_ticks.fetch_add(1, std::memory_order_relaxed);
    counters_.writeback_extents.fetch_add(extents, std::memory_order_relaxed);
  }
  void NoteDeferred(uint64_t pages) {
    counters_.writeback_deferred_pages.fetch_add(pages,
                                                 std::memory_order_relaxed);
  }
  void NoteWritebackNs(uint64_t ns) {
    counters_.ext_writeback_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void NoteSyncEntry() {
    counters_.writeback_sync_entries.fetch_add(1, std::memory_order_relaxed);
  }

  // The writeback counters of CgroupCacheStats (src/cgroup/memcg_stat.h),
  // including the dirty_pages gauge.
  struct Counters {
    CACHE_EXT_STAT_ATOMICS(CACHE_EXT_WRITEBACK_STATS)
  };
  const Counters& counters() const { return counters_; }

 private:
  static constexpr uint32_t kLaneIdBase = 0x77000000;  // 'w' for writeback
  static constexpr uint64_t kLaneSeed = 0x7772626b;    // "wrbk"
  static constexpr uint64_t kDefaultStallTicks = 8;

  Lane lane_;

  Counters counters_;
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> stall_ticks_remaining_{0};

  // Dirty-file set (wb->b_dirty): files with at least one dirty folio at
  // the time they were noted. Deduplicated via the in-set flag protocol:
  // NoteDirtied only appends a file whose on_dirty_list CAS it wins.
  std::mutex files_mu_;
  std::vector<AddressSpace*> dirty_files_;
};

}  // namespace cache_ext::writeback

#endif  // SRC_WRITEBACK_FLUSHER_H_
