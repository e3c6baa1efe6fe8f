// LsmDb: a LevelDB-style LSM-tree key-value store over the simulated page
// cache — the paper's LevelDB/RocksDB stand-in.
//
// Structure: an in-memory skiplist memtable; on overflow it flushes to an L0
// SSTable (L0 files may overlap). Leveled compaction merges L0 into L1 and
// oversized levels into the next one. Point reads consult memtable, then L0
// newest-to-oldest, then one file per deeper level; scans merge iterators
// across all sources. All SSTable I/O flows through the page cache, so
// eviction policies shape performance exactly as they do for LevelDB in the
// paper.
//
// Compaction runs synchronously when triggered, but *on its own lane* with a
// distinct TID — the paper's background compaction threads — so the
// admission-filter policy (§5.6) can identify and reject its page-cache
// admissions. Reads issued like pread(), as the paper's modified LevelDB
// does (§6.1.1).

#ifndef SRC_LSM_DB_H_
#define SRC_LSM_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/pagecache/page_cache.h"

namespace cache_ext::lsm {

struct DbOptions {
  uint64_t memtable_bytes = 4 << 20;       // flush threshold
  uint64_t target_file_bytes = 2 << 20;    // max SSTable size from compaction
  int l0_compaction_trigger = 4;           // L0 files before compacting
  uint64_t level_base_bytes = 16 << 20;    // L1 size budget; x10 per level
  int num_levels = 5;
  // TID assigned to the compaction lane (visible to admission filters).
  int32_t compaction_tid = 9000;
  int32_t compaction_pid = 9000;
  // CPU cost charged per DB operation (key comparison, memtable walk),
  // applied even when the op never reaches the page cache.
  uint64_t op_cpu_ns = 700;
};

class LsmDb {
 public:
  // `cg` is the cgroup all this DB's I/O is charged to; `name` prefixes the
  // SSTable file names.
  LsmDb(PageCache* pc, MemCgroup* cg, std::string name,
        DbOptions options = {});
  ~LsmDb();
  LsmDb(const LsmDb&) = delete;
  LsmDb& operator=(const LsmDb&) = delete;

  Status Put(Lane& lane, std::string_view key, std::string_view value);
  Status Delete(Lane& lane, std::string_view key);
  // Returns the value, or NotFound.
  Expected<std::string> Get(Lane& lane, std::string_view key);
  // Range scan: up to `count` records starting at the first key >= start.
  Expected<std::vector<Record>> Scan(Lane& lane, std::string_view start,
                                     size_t count);

  // Bulk-load sorted unique key/value pairs directly into the bottom level
  // (bypassing the write path); used to set up large databases quickly.
  // Must be called on an empty DB with strictly increasing keys.
  Status BulkLoad(Lane& lane,
                  const std::function<bool(std::string*, std::string*)>& next);

  // Force-flush the memtable (e.g. at the end of a load phase).
  Status Flush(Lane& lane);

  int32_t compaction_tid() const { return options_.compaction_tid; }
  uint64_t compactions_run() const { return compactions_run_; }
  int NumFilesAtLevel(int level) const;
  uint64_t TotalDataBytes() const;

  // The compaction lane's virtual clock (advanced to the triggering lane's
  // time before each compaction).
  const Lane& compaction_lane() const { return compaction_lane_; }

 private:
  struct FileMeta {
    std::string name;
    std::string smallest;
    std::string largest;
    uint64_t size = 0;
    uint64_t number = 0;
    std::unique_ptr<SSTableReader> reader;  // opened lazily
  };

  std::string NewFileName();
  // The file's reader, opened on first use. Owned by `meta`.
  Expected<SSTableReader*> OpenTable(Lane& lane, FileMeta* meta);

  Status FlushMemtable(Lane& lane);
  Status MaybeCompact(Lane& trigger_lane);
  Status CompactLevel(int level);
  // Merge the given inputs into `output_level`, replacing them.
  Status MergeFiles(int input_level, std::vector<size_t> input_indices,
                    int output_level, std::vector<size_t> overlap_indices);

  uint64_t LevelBytes(int level) const;
  uint64_t MaxBytesForLevel(int level) const;

  PageCache* pc_;
  MemCgroup* cg_;
  std::string name_;
  DbOptions options_;
  MemTable memtable_;
  // levels_[0] ordered newest-first; deeper levels sorted by smallest key,
  // non-overlapping.
  std::vector<std::vector<FileMeta>> levels_;
  uint64_t next_file_number_ = 1;
  Lane compaction_lane_;
  uint64_t compactions_run_ = 0;
};

}  // namespace cache_ext::lsm

#endif  // SRC_LSM_DB_H_
