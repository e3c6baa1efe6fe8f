#include "src/lsm/sstable.h"

#include <algorithm>
#include <utility>

#include "src/lsm/format.h"
#include "src/util/logging.h"

namespace cache_ext::lsm {

SSTableBuilder::SSTableBuilder(PageCache* pc, MemCgroup* cg,
                               std::string file_name, uint64_t expected_bytes,
                               uint64_t target_block_bytes)
    : pc_(pc),
      cg_(cg),
      file_name_(std::move(file_name)),
      target_block_bytes_(target_block_bytes) {
  if (expected_bytes > 0) {
    // Past the hint: up to one record of overshoot (two blocks' worth), the
    // index (about 33 bytes per 4 KiB block with 16-byte keys; 1/32 of the
    // data leaves room for longer keys) and the footer.
    buffer_.reserve(expected_bytes + expected_bytes / 32 +
                    2 * target_block_bytes + 24);
  }
}

void SSTableBuilder::CutBlock() {
  const uint64_t block_size = buffer_.size() - block_start_;
  if (block_size == 0) {
    return;
  }
  PutVarint32(&index_, static_cast<uint32_t>(last_key_.size()));
  index_.append(last_key_);
  PutFixed64(&index_, block_start_);
  PutFixed64(&index_, block_size);
  block_start_ = buffer_.size();
}

Status SSTableBuilder::Add(std::string_view key, std::string_view value,
                           bool tombstone) {
  if (finished_) {
    return FailedPrecondition("builder already finished");
  }
  if (num_entries_ > 0 && key <= last_key_) {
    return InvalidArgument("keys must be added in increasing order");
  }
  PutVarint32(&buffer_, static_cast<uint32_t>(key.size()));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.push_back(tombstone ? '\1' : '\0');
  buffer_.append(key);
  buffer_.append(value);
  if (num_entries_ == 0) {
    smallest_.assign(key);
  }
  last_key_.assign(key);
  ++num_entries_;
  if (buffer_.size() - block_start_ >= target_block_bytes_) {
    CutBlock();
  }
  return OkStatus();
}

Expected<uint64_t> SSTableBuilder::Finish(Lane& lane) {
  if (finished_) {
    return FailedPrecondition("builder already finished");
  }
  finished_ = true;
  CutBlock();
  const uint64_t index_offset = buffer_.size();
  const uint64_t index_size = index_.size();
  buffer_.append(index_);
  PutFixed64(&buffer_, index_offset);
  PutFixed64(&buffer_, index_size);
  PutFixed64(&buffer_, kSstMagic);

  auto as = pc_->OpenFile(file_name_);
  CACHE_EXT_RETURN_IF_ERROR(as.status());
  // The finished table is handed to the device as its backing run: no byte
  // is copied, and the builder keeps none.
  const uint64_t size = buffer_.size();
  const Status written =
      pc_->Write(lane, *as, cg_, 0, std::exchange(buffer_, std::string()));
  index_ = std::string();
  CACHE_EXT_RETURN_IF_ERROR(written);
  CACHE_EXT_RETURN_IF_ERROR(pc_->SyncFile(lane, *as));
  return size;
}

Expected<std::unique_ptr<SSTableReader>> SSTableReader::Open(
    PageCache* pc, MemCgroup* cg, std::string_view name, Lane& lane) {
  auto as = pc->OpenFile(name);
  CACHE_EXT_RETURN_IF_ERROR(as.status());
  // LevelDB/RocksDB advise the kernel that table files are accessed
  // randomly (POSIX_FADV_RANDOM), disabling readahead for point lookups;
  // sequential consumers (scans, compactions) do their own large segment
  // reads instead.
  CACHE_EXT_RETURN_IF_ERROR(
      pc->FadviseRange(lane, *as, cg, Fadvise::kRandom, 0, 0));
  auto reader = std::unique_ptr<SSTableReader>(
      new SSTableReader(pc, cg, *as, std::string(name)));

  const uint64_t file_size = pc->FileSize(*as);
  if (file_size < 24) {
    return Corruption("sstable too small: " + std::string(name));
  }
  reader->file_size_ = file_size;

  uint8_t footer[24];
  CACHE_EXT_RETURN_IF_ERROR(
      pc->Read(lane, *as, cg, file_size - 24, std::span<uint8_t>(footer, 24)));
  const uint64_t index_offset = GetFixed64(footer);
  const uint64_t index_size = GetFixed64(footer + 8);
  const uint64_t magic = GetFixed64(footer + 16);
  if (magic != kSstMagic || index_size > file_size - 24 ||
      index_offset != file_size - 24 - index_size) {
    return Corruption("bad sstable footer: " + std::string(name));
  }

  // Block keys are addressed by 32-bit offsets into one buffer.
  if (index_size > UINT32_MAX) {
    return Corruption("sstable index too large: " + std::string(name));
  }

  std::vector<uint8_t> index(index_size);
  CACHE_EXT_RETURN_IF_ERROR(pc->Read(lane, *as, cg, index_offset,
                                     std::span<uint8_t>(index)));
  const uint8_t* p = index.data();
  const uint8_t* limit = p + index.size();
  uint64_t data_end = 0;  // where the next block must start
  while (p < limit) {
    uint32_t klen = 0;
    const size_t n = GetVarint32(p, limit, &klen);
    if (n == 0 || p + n + klen + 16 > limit) {
      return Corruption("bad sstable index: " + std::string(name));
    }
    p += n;
    const char* key = reinterpret_cast<const char*>(p);
    p += klen;
    const BlockHandle block{GetFixed64(p), GetFixed64(p + 8)};
    p += 16;
    // Blocks tile the data region back to back (the iterator reads runs of
    // them as one range). A corrupt offset or size would otherwise reach a
    // read, and an allocation, of arbitrary length.
    if (block.offset != data_end || block.size > index_offset - block.offset) {
      return Corruption("sstable block out of range: " + std::string(name));
    }
    data_end = block.offset + block.size;
    reader->blocks_.push_back(block);
    reader->last_keys_.append(key, klen);
    reader->last_key_offsets_.push_back(
        static_cast<uint32_t>(reader->last_keys_.size()));
  }
  return reader;
}

Status SSTableReader::ReadBlock(Lane& lane, uint64_t offset, uint64_t size,
                                std::vector<uint8_t>* out) {
  out->resize(size);
  return pc_->Read(lane, as_, cg_, offset, std::span<uint8_t>(*out));
}

size_t SSTableReader::FindBlock(std::string_view key) const {
  size_t lo = 0;
  size_t hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (LastKey(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Expected<std::optional<PointRecord>> SSTableReader::Get(Lane& lane,
                                                        std::string_view key) {
  const size_t b = FindBlock(key);
  if (b == blocks_.size()) {
    return std::optional<PointRecord>();
  }
  const BlockHandle& block = blocks_[b];
  uint8_t stack_buf[kStackBlockBytes];
  std::unique_ptr<uint8_t[]> heap_buf;
  uint8_t* buf = stack_buf;
  if (block.size > sizeof(stack_buf)) {
    heap_buf = std::make_unique_for_overwrite<uint8_t[]>(block.size);
    buf = heap_buf.get();
  }
  CACHE_EXT_RETURN_IF_ERROR(pc_->Read(lane, as_, cg_, block.offset,
                                      std::span<uint8_t>(buf, block.size)));
  const uint8_t* p = buf;
  const uint8_t* limit = p + block.size;
  while (p < limit) {
    uint32_t klen = 0;
    uint32_t vlen = 0;
    size_t n = GetVarint32(p, limit, &klen);
    if (n == 0) {
      return Corruption("bad record in " + name_);
    }
    p += n;
    n = GetVarint32(p, limit, &vlen);
    if (n == 0 || p + n + 1 + klen + vlen > limit) {
      return Corruption("bad record in " + name_);
    }
    p += n;
    const bool tombstone = *p++ != 0;
    std::string_view rec_key(reinterpret_cast<const char*>(p), klen);
    if (rec_key == key) {
      return std::optional<PointRecord>(PointRecord{
          std::string(reinterpret_cast<const char*>(p + klen), vlen),
          tombstone});
    }
    if (rec_key > key) {
      return std::optional<PointRecord>();
    }
    p += klen + vlen;
  }
  return std::optional<PointRecord>();
}

SSTableReader::Iterator::Iterator(SSTableReader* table, Lane& lane)
    : table_(table), lane_(lane) {
  if (!table_->blocks_.empty()) {
    LoadSegment(0);
  }
}

void SSTableReader::Iterator::LoadSegment(size_t block_idx) {
  segment_first_block_ = block_idx;
  segment_nr_blocks_ =
      std::min(kSegmentBlocks, table_->blocks_.size() - block_idx);
  segment_pos_ = 0;
  // Blocks are laid out back to back, so the segment is one contiguous
  // byte range — one large sequential read.
  const BlockHandle& first = table_->blocks_[block_idx];
  const BlockHandle& last = table_->blocks_[block_idx + segment_nr_blocks_ - 1];
  const uint64_t bytes = last.offset + last.size - first.offset;
  status_ = table_->ReadBlock(lane_, first.offset, bytes, &segment_data_);
  valid_ = status_.ok() && ParseNext();
}

bool SSTableReader::Iterator::ParseNext() {
  // Records are contiguous within and across the blocks of a segment, so
  // parsing runs linearly through the whole segment; a record never spans
  // two segments.
  const uint8_t* base = segment_data_.data();
  const uint8_t* limit = base + segment_data_.size();
  const uint8_t* p = base + segment_pos_;
  if (p >= limit) {
    return false;
  }
  uint32_t klen = 0;
  uint32_t vlen = 0;
  size_t n = GetVarint32(p, limit, &klen);
  if (n != 0) {
    p += n;
    n = GetVarint32(p, limit, &vlen);
  }
  if (n == 0 || p + n + 1 + klen + vlen > limit) {
    status_ = Corruption("bad record in " + table_->name_);
    return false;
  }
  p += n;
  tombstone_ = *p++ != 0;
  const char* key = reinterpret_cast<const char*>(p);
  key_ = std::string_view(key, klen);
  value_ = std::string_view(key + klen, vlen);
  segment_pos_ = static_cast<size_t>(p + klen + vlen - base);
  return true;
}

Status SSTableReader::Iterator::Next() {
  if (!valid_) {
    return FailedPrecondition("iterator exhausted");
  }
  if (ParseNext()) {
    return OkStatus();
  }
  // Advance to the next segment.
  const size_t next_block = segment_first_block_ + segment_nr_blocks_;
  if (status_.ok() && next_block < table_->blocks_.size()) {
    LoadSegment(next_block);
  } else {
    valid_ = false;
  }
  return status_;
}

Status SSTableReader::Iterator::Seek(std::string_view target) {
  if (!status_.ok()) {
    return status_;
  }
  const size_t b = table_->FindBlock(target);
  if (b == table_->blocks_.size()) {
    valid_ = false;
    return OkStatus();
  }
  LoadSegment(b);
  while (valid_ && key_ < target) {
    CACHE_EXT_RETURN_IF_ERROR(Next());
  }
  return status_;
}

}  // namespace cache_ext::lsm
