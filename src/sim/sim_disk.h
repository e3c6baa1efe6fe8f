// Simulated block storage: a flat namespace of files holding real bytes.
//
// This is the "device" under the simulated page cache. Timing is handled
// separately by SsdModel — SimDisk is purely the persistent contents plus
// I/O statistics, so tests can assert on data integrity independent of the
// timing model.
//
// Where bytes live: a file is a byte size plus one reference per 4 KiB page
// into an immutable, refcounted DiskRun (src/sim/disk_run.h). A page with no
// run reads as zeroes, which covers gaps, Truncate and reads past EOF. A
// write publishes one new run for the pages it covers and re-points them;
// the page cache's folios take references to the same runs on a miss, so a
// cached page and its device page share one buffer.

#ifndef SRC_SIM_SIM_DISK_H_
#define SRC_SIM_SIM_DISK_H_

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/disk_run.h"
#include "src/util/status.h"

namespace cache_ext {

using FileId = uint64_t;
inline constexpr FileId kInvalidFileId = 0;

class SimDisk {
 public:
  SimDisk() = default;
  ~SimDisk();
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  // Creates an empty file; fails if the name exists.
  Expected<FileId> Create(std::string_view name);
  // Opens an existing file by name.
  Expected<FileId> Open(std::string_view name) const;
  // Removes the file and drops the device's references to its runs; a run
  // that cached folios still reference lives on until they are freed.
  Status Delete(std::string_view name);
  bool Exists(std::string_view name) const;

  // Size in bytes; 0 for unknown ids.
  uint64_t SizeOf(FileId id) const;

  // Raw device I/O. File data is readable even beyond written extents, as
  // zeroes, to simplify page-granular access. ReadAt is where the
  // `sim.disk.read` fault point fires for direct device reads; the page
  // cache checks it once per miss run instead and never on a hit.
  Status ReadAt(FileId id, uint64_t offset, std::span<uint8_t> out) const;
  // Copies `data` once, into one new run for the pages it covers; partial
  // edge pages merge in their old bytes.
  Status WriteAt(FileId id, uint64_t offset, std::span<const uint8_t> data);
  // Adopts `bytes` as the new run without a copy when `offset` is page
  // aligned and no old byte of the last page survives past the write
  // (vmsplice(SPLICE_F_GIFT)); otherwise falls back to the copying WriteAt.
  Status WriteAt(FileId id, uint64_t offset, std::string&& bytes);
  // Extends the file to at least `size` bytes (zero fill).
  Status Truncate(FileId id, uint64_t size);

  // Takes one reference to the run behind each of out.size() pages from
  // `first_page` (null for a page with no run, which reads as zeroes);
  // the caller drops them with DiskRun::Unref. For the page cache's miss
  // and write paths: no fault check.
  void RefPages(FileId id, uint64_t first_page,
                std::span<const DiskRun*> out) const;

  std::vector<std::string> ListFiles() const;
  uint64_t TotalBytes() const;

 private:
  struct File {
    std::string name;
    uint64_t size = 0;
    std::vector<const DiskRun*> pages;  // one device reference per page
  };

  const File* FindFile(FileId id) const;
  File* FindFile(FileId id);
  // Both WriteAts: `bytes` start at page-aligned `start`; under the lock,
  // their first `head` bytes are filled with the first page's old ones and
  // the last page's old bytes past the end are appended, then the pages
  // they cover are pointed at the new run.
  Status Publish(FileId id, uint64_t start, uint64_t head,
                 std::string&& bytes);

  // Reader/writer lock over the file table and each file's page
  // references. Device reads and the page cache's reference takes hold it
  // shared; a write holds it exclusively only to re-point pages. Copies out
  // of a run need no lock (runs are immutable), so a cache hit never takes
  // it.
  mutable std::shared_mutex mu_;
  FileId next_id_ = 1;
  std::unordered_map<FileId, File> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

}  // namespace cache_ext

#endif  // SRC_SIM_SIM_DISK_H_
