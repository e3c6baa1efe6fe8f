// SSTable: immutable sorted string table, read and written through the
// simulated page cache.
//
// Layout:   [data block]* [index block] [footer]
//   data block : repeated records {varint klen, varint vlen, u8 flags,
//                key bytes, value bytes}, cut at ~target_block_bytes;
//   index block: repeated {varint klen, key=last key of block,
//                fixed64 offset, fixed64 size};
//   footer     : fixed64 index_offset, fixed64 index_size, fixed64 magic.
//
// The reader keeps the parsed index in memory (the role LevelDB's table
// cache plays) but reads every data block through the page cache, which is
// what makes the eviction policy matter. The index's last keys sit back to
// back in one buffer, so a binary search probes one contiguous region
// instead of a heap string per block.

#ifndef SRC_LSM_SSTABLE_H_
#define SRC_LSM_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/pagecache/page_cache.h"

namespace cache_ext::lsm {

struct Record {
  std::string key;
  std::string value;
  bool tombstone = false;
};

// What a point lookup finds for a key present in a table: its value, or a
// tombstone.
struct PointRecord {
  std::string value;
  bool tombstone = false;
};

class SSTableBuilder {
 public:
  // `expected_bytes` is the data size the caller expects to add (0: no
  // hint). The table is built in one buffer, reserved once for that much
  // data plus the overshoot and the index, so a table near its hint is
  // never copied while it grows.
  SSTableBuilder(PageCache* pc, MemCgroup* cg, std::string file_name,
                 uint64_t expected_bytes = 0,
                 uint64_t target_block_bytes = 4096);

  // Keys must be added in strictly increasing order.
  Status Add(std::string_view key, std::string_view value, bool tombstone);

  // Writes the table through the page cache and fsyncs it. The buffer is
  // handed to the device as the table's backing bytes, without a copy, and
  // the builder holds no bytes afterwards. Returns the file size in bytes.
  Expected<uint64_t> Finish(Lane& lane);

  // Data bytes added so far, the open block included.
  uint64_t EstimatedBytes() const { return buffer_.size(); }
  uint64_t num_entries() const { return num_entries_; }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return last_key_; }
  const std::string& file_name() const { return file_name_; }

 private:
  // Ends the open block: appends its index entry.
  void CutBlock();

  PageCache* pc_;
  MemCgroup* cg_;
  std::string file_name_;
  uint64_t target_block_bytes_;

  // The finished blocks, then the open block from block_start_ to the end;
  // Finish appends the index and footer.
  std::string buffer_;
  uint64_t block_start_ = 0;
  std::string index_;
  std::string last_key_;
  std::string smallest_;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

class SSTableReader {
 public:
  // Opens the table: reads the footer and index through the page cache.
  static Expected<std::unique_ptr<SSTableReader>> Open(PageCache* pc,
                                                       MemCgroup* cg,
                                                       std::string_view name,
                                                       Lane& lane);

  // Point lookup. Returns nullopt if the key is not in this table; a present
  // record may be a tombstone. The block is read into a stack buffer when it
  // fits (kStackBlockBytes), else into an uninitialised heap buffer.
  Expected<std::optional<PointRecord>> Get(Lane& lane, std::string_view key);

  // Default blocks are cut once they reach 4096 bytes, so they overshoot
  // 4 KiB by at most one record.
  static constexpr size_t kStackBlockBytes = 8192;

  // Sequential iterator over all records (used by compaction and scans).
  // Reads the file in multi-block segments (64 KiB), the way LevelDB and
  // RocksDB compactions/scans issue large sequential reads
  // (compaction_readahead_size), so sequential consumers behave sanely even
  // when their pages bypass the cache (admission filter).
  class Iterator {
   public:
    static constexpr size_t kSegmentBlocks = 16;

    // Positioned at the first record.
    Iterator(SSTableReader* table, Lane& lane);
    bool Valid() const { return valid_; }
    // The current record. The views point into the segment buffer and stay
    // valid until the next Next() or Seek().
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }
    bool tombstone() const { return tombstone_; }
    // The first error a segment read or a record parse hit, malformed
    // records as Corruption. Sticky: the iterator stays invalid after it.
    const Status& status() const { return status_; }
    Status Next();
    // Position at the first record with key >= target.
    Status Seek(std::string_view target);

   private:
    // Loads the segment of up to kSegmentBlocks blocks starting at
    // block_idx with one read and parses its first record.
    void LoadSegment(size_t block_idx);
    // Parses the record at segment_pos_. False at the end of the segment
    // and on a malformed record, which also sets status_.
    bool ParseNext();

    SSTableReader* table_;
    Lane& lane_;
    size_t segment_first_block_ = 0;
    size_t segment_nr_blocks_ = 0;
    std::vector<uint8_t> segment_data_;
    size_t segment_pos_ = 0;
    std::string_view key_;
    std::string_view value_;
    bool tombstone_ = false;
    bool valid_ = false;
    Status status_;
  };

  uint64_t file_size() const { return file_size_; }
  const std::string& name() const { return name_; }

 private:
  struct BlockHandle {
    uint64_t offset;
    uint64_t size;
  };

  SSTableReader(PageCache* pc, MemCgroup* cg, AddressSpace* as,
                std::string name)
      : pc_(pc), cg_(cg), as_(as), name_(std::move(name)) {}

  // Largest key in block i.
  std::string_view LastKey(size_t i) const {
    return std::string_view(last_keys_.data() + last_key_offsets_[i],
                            last_key_offsets_[i + 1] - last_key_offsets_[i]);
  }
  // Index of the first block whose last key is >= key, or blocks_.size().
  size_t FindBlock(std::string_view key) const;

  Status ReadBlock(Lane& lane, uint64_t offset, uint64_t size,
                   std::vector<uint8_t>* out);

  PageCache* pc_;
  MemCgroup* cg_;
  AddressSpace* as_;
  std::string name_;
  uint64_t file_size_ = 0;
  std::vector<BlockHandle> blocks_;
  // Every block's last key, back to back; block i's key spans
  // [last_key_offsets_[i], last_key_offsets_[i + 1]).
  std::string last_keys_;
  std::vector<uint32_t> last_key_offsets_{0};

  friend class Iterator;
};

}  // namespace cache_ext::lsm

#endif  // SRC_LSM_SSTABLE_H_
