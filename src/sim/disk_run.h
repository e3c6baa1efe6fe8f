// DiskRun: an immutable, refcounted byte buffer holding a contiguous page
// range of one SimDisk file. The device maps each of a file's 4 KiB pages to
// the run that holds it, and a cached folio holds references to the same
// runs, so a page's bytes live in one place that the device and the page
// cache share (the kernel's folio owning its page, without a copy).
//
// Lifetime rules:
//  - A run is immutable once published: a write never edits one, it
//    publishes a new run and re-points the pages it covers. A reader holding
//    a reference copies without any lock.
//  - The count is one per page reference: the device's, plus each folio's.
//    The last Unref frees the run.
//  - A reference that a lockless reader may still be copying from (a
//    folio's, re-pointed by a write) is dropped through ebr::Retire.

#ifndef SRC_SIM_DISK_RUN_H_
#define SRC_SIM_DISK_RUN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace cache_ext {

inline constexpr uint64_t kDiskPageSize = 4096;

class DiskRun {
 public:
  // A run starting at page `first_page` of its file, holding `bytes` (any
  // length: bytes past its end read as zeroes) and `refs` references.
  DiskRun(std::string bytes, uint64_t first_page, uint64_t refs)
      : refs_(refs), first_page_(first_page), bytes_(std::move(bytes)) {}
  DiskRun(const DiskRun&) = delete;
  DiskRun& operator=(const DiskRun&) = delete;

  void Ref() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  // Drops one reference of `run` (null: none), freeing it on the last.
  static void Unref(const DiskRun* run) {
    if (run != nullptr &&
        run->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete run;
    }
  }
  // ebr::Retire deleter form of Unref.
  static void UnrefErased(void* run) {
    Unref(static_cast<const DiskRun*>(run));
  }

  uint64_t first_page() const { return first_page_; }
  const std::string& bytes() const { return bytes_; }

  // Copies out.size() bytes of page `page`, from `offset` within it.
  // Bytes past the run's end, and every byte of a null run, are zeroes.
  static void CopyOut(const DiskRun* run, uint64_t page, uint64_t offset,
                      std::span<uint8_t> out) {
    uint64_t copied = 0;
    if (run != nullptr) {
      const uint64_t start =
          (page - run->first_page_) * kDiskPageSize + offset;
      if (start < run->bytes_.size()) {
        copied = std::min<uint64_t>(out.size(), run->bytes_.size() - start);
        std::memcpy(out.data(), run->bytes_.data() + start, copied);
      }
    }
    if (copied < out.size()) {
      std::memset(out.data() + copied, 0, out.size() - copied);
    }
  }

 private:
  mutable std::atomic<uint64_t> refs_;
  const uint64_t first_page_;
  const std::string bytes_;
};

}  // namespace cache_ext

#endif  // SRC_SIM_DISK_RUN_H_
