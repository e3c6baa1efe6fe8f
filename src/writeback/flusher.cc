#include "src/writeback/flusher.h"

#include <algorithm>

#include "src/fault/fault_injector.h"
#include "src/mm/address_space.h"

namespace cache_ext::writeback {

void SortFlushItems(std::vector<FlushItem>& items) {
  std::sort(items.begin(), items.end(),
            [](const FlushItem& a, const FlushItem& b) {
              const bool a_keyed = a.key >= 0;
              const bool b_keyed = b.key >= 0;
              if (a_keyed != b_keyed) {
                return a_keyed;
              }
              if (a_keyed && a.key != b.key) {
                return a.key < b.key;
              }
              if (a.mapping != b.mapping) {
                return a.mapping->id() < b.mapping->id();
              }
              return a.index < b.index;
            });
}

std::vector<FlushExtent> SortAndCoalesce(std::vector<FlushItem>& items,
                                         uint32_t max_extent_pages) {
  SortFlushItems(items);
  std::vector<FlushExtent> extents;
  for (size_t i = 0; i < items.size(); ++i) {
    const FlushItem& item = items[i];
    if (!extents.empty()) {
      FlushExtent& tail = extents.back();
      if (tail.mapping == item.mapping &&
          tail.index + tail.nr_pages == item.index &&
          tail.nr_pages + item.nr_pages <= max_extent_pages) {
        tail.nr_pages += item.nr_pages;
        tail.end_item = i + 1;
        continue;
      }
    }
    extents.push_back(
        FlushExtent{item.mapping, item.index, item.nr_pages, i, i + 1});
  }
  return extents;
}

void CgroupFlushControl::NoteDirtied(AddressSpace* mapping, uint64_t nr) {
  counters_.dirty_pages.fetch_add(nr, std::memory_order_relaxed);
  mapping->nr_dirty.fetch_add(nr, std::memory_order_relaxed);
  bool expected = false;
  if (mapping->wb_on_dirty_list.compare_exchange_strong(
          expected, true, std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(files_mu_);
    dirty_files_.push_back(mapping);
  }
}

void CgroupFlushControl::NoteCleaned(AddressSpace* mapping, uint64_t nr) {
  counters_.dirty_pages.fetch_sub(nr, std::memory_order_relaxed);
  mapping->nr_dirty.fetch_sub(nr, std::memory_order_relaxed);
}

bool CgroupFlushControl::ShouldWake(const DirtyLimits& dl) {
  const uint64_t nr_dirty =
      counters_.dirty_pages.load(std::memory_order_relaxed);
  if (active_.load(std::memory_order_relaxed)) {
    if (dl.TargetReached(nr_dirty)) {
      active_.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  if (!dl.NeedsWake(nr_dirty)) {
    return false;
  }
  // Idle->active edge. A lost wakeup (injected) leaves the latch unarmed so
  // the kick is genuinely dropped — the poll backstop or the next dirtying
  // operation must rediscover the pressure.
  if (fault::InjectFault(fault::points::kWritebackLostWakeup)) {
    counters_.writeback_lost_wakeups.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  active_.store(true, std::memory_order_relaxed);
  counters_.writeback_wakeups.fetch_add(1, std::memory_order_relaxed);
  return true;
}

FlushTickOutcome CgroupFlushControl::EnterTick(const DirtyLimits& dl) {
  // Stall injection wedges the lane for `magnitude` ticks (default 8):
  // decrement the remaining-ticks counter and make no progress. Writers
  // above the dirty ratio keep throttling until the lane heals.
  uint64_t remaining = stall_ticks_remaining_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (stall_ticks_remaining_.compare_exchange_weak(
            remaining, remaining - 1, std::memory_order_relaxed)) {
      counters_.writeback_stalled_ticks.fetch_add(1, std::memory_order_relaxed);
      return FlushTickOutcome::kStalled;
    }
  }
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kWritebackStall, &magnitude)) {
    const uint64_t ticks =
        magnitude != 0 ? magnitude : kDefaultStallTicks;
    stall_ticks_remaining_.store(ticks - 1, std::memory_order_relaxed);
    counters_.writeback_stalled_ticks.fetch_add(1, std::memory_order_relaxed);
    return FlushTickOutcome::kStalled;
  }
  const uint64_t nr_dirty =
      counters_.dirty_pages.load(std::memory_order_relaxed);
  if (nr_dirty == 0) {
    active_.store(false, std::memory_order_relaxed);
    return FlushTickOutcome::kIdle;
  }
  // Run whenever anything is dirty and the latch is armed; when idle, only
  // bother once the background threshold is crossed (an explicit sync still
  // flushes via SyncFile, not the background lane).
  if (!active_.load(std::memory_order_relaxed) && !dl.NeedsWake(nr_dirty)) {
    return FlushTickOutcome::kIdle;
  }
  return FlushTickOutcome::kRun;
}

bool CgroupFlushControl::PartialFlushInjected() {
  if (fault::InjectFault(fault::points::kWritebackPartialFlush)) {
    counters_.writeback_partial_flushes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::vector<AddressSpace*> CgroupFlushControl::TakeDirtyFiles() {
  std::vector<AddressSpace*> files;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    files.swap(dirty_files_);
  }
  for (AddressSpace* mapping : files) {
    mapping->wb_on_dirty_list.store(false, std::memory_order_relaxed);
  }
  return files;
}

void CgroupFlushControl::RequeueDirtyFile(AddressSpace* mapping) {
  bool expected = false;
  if (mapping->wb_on_dirty_list.compare_exchange_strong(
          expected, true, std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(files_mu_);
    dirty_files_.push_back(mapping);
  }
}

}  // namespace cache_ext::writeback
