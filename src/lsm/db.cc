#include "src/lsm/db.h"

#include <algorithm>
#include <cstdio>

#include "src/pagecache/current_task.h"

#include "src/util/logging.h"

namespace cache_ext::lsm {

namespace {

// A merge source: a stream of records in key order with a recency priority
// (lower = newer, wins on duplicate keys). key() and value() are views that
// stay valid until the source's next Next().
class Source {
 public:
  virtual ~Source() = default;
  virtual bool Valid() const = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
  virtual bool tombstone() const = 0;
  // Why the source stopped early: a read or parse error, which ends it.
  virtual Status status() const = 0;
  virtual Status Next() = 0;
};

class MemSource : public Source {
 public:
  MemSource(const SkipList* list, std::string_view start) : iter_(list) {
    iter_.Seek(list, start);
  }
  bool Valid() const override { return iter_.Valid(); }
  std::string_view key() const override { return iter_.key(); }
  std::string_view value() const override { return iter_.entry().value; }
  bool tombstone() const override { return iter_.entry().tombstone; }
  Status status() const override { return OkStatus(); }
  Status Next() override {
    iter_.Next();
    return OkStatus();
  }

 private:
  SkipList::Iterator iter_;
};

class TableSource : public Source {
 public:
  // A failed Seek leaves the iterator invalid with its status set.
  TableSource(SSTableReader* table, Lane& lane, std::string_view start)
      : iter_(table, lane) {
    (void)iter_.Seek(start);
  }
  bool Valid() const override { return iter_.Valid(); }
  std::string_view key() const override { return iter_.key(); }
  std::string_view value() const override { return iter_.value(); }
  bool tombstone() const override { return iter_.tombstone(); }
  Status status() const override { return iter_.status(); }
  Status Next() override { return iter_.Next(); }

 private:
  SSTableReader::Iterator iter_;
};

// Merges sources by (key, priority-index): index order in `sources` is the
// recency order, newest first. Emits the newest version of each key,
// including tombstones (the caller filters). A source that fails stops:
// Next() returns the error, and status() reports one hit while the sources
// were positioned, which callers check before using the first record.
class MergingIterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<Source>> sources)
      : sources_(std::move(sources)) {
    Advance();
  }

  bool Valid() const { return current_ != nullptr; }
  std::string_view key() const { return current_->key(); }
  std::string_view value() const { return current_->value(); }
  bool tombstone() const { return current_->tombstone(); }

  // The first source error, or OK.
  Status status() const {
    for (const auto& src : sources_) {
      CACHE_EXT_RETURN_IF_ERROR(src->status());
    }
    return OkStatus();
  }

  Status Next() {
    // Advancing the emitting source may reload its segment under the view,
    // so compare against a copy (its capacity is reused across records).
    current_key_.assign(key());
    // Pop the emitted key from every source that carries it.
    for (auto& src : sources_) {
      while (src->Valid() && src->key() == current_key_) {
        CACHE_EXT_RETURN_IF_ERROR(src->Next());
      }
    }
    Advance();
    return OkStatus();
  }

 private:
  void Advance() {
    current_ = nullptr;
    for (auto& src : sources_) {
      if (!src->Valid()) {
        continue;
      }
      if (current_ == nullptr || src->key() < current_->key()) {
        current_ = src.get();
      }
      // Ties: the earlier (newer) source wins because we scan in order and
      // only replace on strictly-smaller keys.
    }
  }

  std::vector<std::unique_ptr<Source>> sources_;
  Source* current_ = nullptr;
  std::string current_key_;
};

}  // namespace

LsmDb::LsmDb(PageCache* pc, MemCgroup* cg, std::string name, DbOptions options)
    : pc_(pc),
      cg_(cg),
      name_(std::move(name)),
      options_(options),
      levels_(static_cast<size_t>(options.num_levels)),
      compaction_lane_(/*id=*/0xC0117AC7,
                       TaskContext{options.compaction_pid,
                                   options.compaction_tid},
                       /*seed=*/0x5eed) {}

LsmDb::~LsmDb() = default;

std::string LsmDb::NewFileName() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%s/sst_%08llu", name_.c_str(),
                static_cast<unsigned long long>(next_file_number_++));
  return std::string(buf);
}

Expected<SSTableReader*> LsmDb::OpenTable(Lane& lane, FileMeta* meta) {
  if (meta->reader == nullptr) {
    auto reader = SSTableReader::Open(pc_, cg_, meta->name, lane);
    CACHE_EXT_RETURN_IF_ERROR(reader.status());
    meta->reader = std::move(*reader);
  }
  return meta->reader.get();
}

Status LsmDb::Put(Lane& lane, std::string_view key, std::string_view value) {
  lane.Charge(options_.op_cpu_ns);
  memtable_.Put(key, value);
  if (memtable_.ApproximateBytes() >= options_.memtable_bytes) {
    CACHE_EXT_RETURN_IF_ERROR(FlushMemtable(lane));
    CACHE_EXT_RETURN_IF_ERROR(MaybeCompact(lane));
  }
  return OkStatus();
}

Status LsmDb::Delete(Lane& lane, std::string_view key) {
  lane.Charge(options_.op_cpu_ns);
  memtable_.Delete(key);
  if (memtable_.ApproximateBytes() >= options_.memtable_bytes) {
    CACHE_EXT_RETURN_IF_ERROR(FlushMemtable(lane));
    CACHE_EXT_RETURN_IF_ERROR(MaybeCompact(lane));
  }
  return OkStatus();
}

Expected<std::string> LsmDb::Get(Lane& lane, std::string_view key) {
  lane.Charge(options_.op_cpu_ns);
  // 1. Memtable.
  if (const MemEntry* entry = memtable_.Get(key); entry != nullptr) {
    if (entry->tombstone) {
      return NotFound("deleted");
    }
    return std::string(entry->value);
  }
  // 2. L0, newest to oldest (files may overlap).
  for (auto& meta : levels_[0]) {
    if (key < meta.smallest || key > meta.largest) {
      continue;
    }
    auto table = OpenTable(lane, &meta);
    CACHE_EXT_RETURN_IF_ERROR(table.status());
    auto rec = (*table)->Get(lane, key);
    CACHE_EXT_RETURN_IF_ERROR(rec.status());
    if (rec->has_value()) {
      if ((*rec)->tombstone) {
        return NotFound("deleted");
      }
      return std::move((*rec)->value);
    }
  }
  // 3. Deeper levels: at most one candidate file per level.
  for (size_t level = 1; level < levels_.size(); ++level) {
    auto& files = levels_[level];
    auto it = std::lower_bound(
        files.begin(), files.end(), key,
        [](const FileMeta& f, std::string_view k) { return f.largest < k; });
    if (it == files.end() || key < it->smallest) {
      continue;
    }
    auto table = OpenTable(lane, &*it);
    CACHE_EXT_RETURN_IF_ERROR(table.status());
    auto rec = (*table)->Get(lane, key);
    CACHE_EXT_RETURN_IF_ERROR(rec.status());
    if (rec->has_value()) {
      if ((*rec)->tombstone) {
        return NotFound("deleted");
      }
      return std::move((*rec)->value);
    }
  }
  return NotFound("no such key");
}

Expected<std::vector<Record>> LsmDb::Scan(Lane& lane, std::string_view start,
                                          size_t count) {
  lane.Charge(options_.op_cpu_ns);
  std::vector<std::unique_ptr<Source>> sources;
  sources.push_back(std::make_unique<MemSource>(memtable_.list(), start));
  for (auto& meta : levels_[0]) {
    if (meta.largest < start) {
      continue;
    }
    auto table = OpenTable(lane, &meta);
    CACHE_EXT_RETURN_IF_ERROR(table.status());
    sources.push_back(
        std::make_unique<TableSource>(*table, lane, start));
  }
  for (size_t level = 1; level < levels_.size(); ++level) {
    // Non-overlapping files: open from the first file that can contain
    // `start` onward. (A LevelDB concatenating iterator would lazily open
    // them; for our scan lengths opening the overlapping suffix is fine
    // because Seek() only touches one block per file actually consulted.)
    auto& files = levels_[level];
    auto it = std::lower_bound(
        files.begin(), files.end(), start,
        [](const FileMeta& f, std::string_view k) { return f.largest < k; });
    for (; it != files.end(); ++it) {
      // Stop opening files that start far beyond what `count` can reach;
      // conservatively open at most 4 files per level.
      if (it - std::lower_bound(files.begin(), files.end(), start,
                                [](const FileMeta& f, std::string_view k) {
                                  return f.largest < k;
                                }) >=
          4) {
        break;
      }
      auto table = OpenTable(lane, &*it);
      CACHE_EXT_RETURN_IF_ERROR(table.status());
      sources.push_back(
          std::make_unique<TableSource>(*table, lane, start));
    }
  }

  MergingIterator merge(std::move(sources));
  CACHE_EXT_RETURN_IF_ERROR(merge.status());
  std::vector<Record> out;
  out.reserve(count);
  while (merge.Valid() && out.size() < count) {
    if (!merge.tombstone()) {
      out.push_back(Record{std::string(merge.key()),
                           std::string(merge.value()), false});
    }
    CACHE_EXT_RETURN_IF_ERROR(merge.Next());
  }
  return out;
}

Status LsmDb::Flush(Lane& lane) {
  CACHE_EXT_RETURN_IF_ERROR(FlushMemtable(lane));
  return MaybeCompact(lane);
}

Status LsmDb::FlushMemtable(Lane& lane) {
  if (memtable_.empty()) {
    return OkStatus();
  }
  FileMeta meta;
  meta.number = next_file_number_;
  meta.name = NewFileName();
  SSTableBuilder builder(pc_, cg_, meta.name, memtable_.ApproximateBytes());
  for (auto iter = memtable_.NewIterator(); iter.Valid(); iter.Next()) {
    CACHE_EXT_RETURN_IF_ERROR(
        builder.Add(iter.key(), iter.entry().value, iter.entry().tombstone));
  }
  auto size = builder.Finish(lane);
  CACHE_EXT_RETURN_IF_ERROR(size.status());
  meta.size = *size;
  meta.smallest = builder.smallest_key();
  meta.largest = builder.largest_key();
  // L0 is newest-first.
  levels_[0].insert(levels_[0].begin(), std::move(meta));
  memtable_.Reset();
  return OkStatus();
}

uint64_t LsmDb::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& meta : levels_[static_cast<size_t>(level)]) {
    total += meta.size;
  }
  return total;
}

uint64_t LsmDb::MaxBytesForLevel(int level) const {
  uint64_t budget = options_.level_base_bytes;
  for (int l = 1; l < level; ++l) {
    budget *= 10;
  }
  return budget;
}

int LsmDb::NumFilesAtLevel(int level) const {
  return static_cast<int>(levels_[static_cast<size_t>(level)].size());
}

uint64_t LsmDb::TotalDataBytes() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& meta : level) {
      total += meta.size;
    }
  }
  return total;
}

Status LsmDb::MaybeCompact(Lane& trigger_lane) {
  // Background compaction: runs on the compaction lane, whose clock is
  // synced forward to the trigger point (the thread was idle until now).
  compaction_lane_.AdvanceTo(trigger_lane.now_ns());

  int rounds = 0;
  while (rounds++ < 8) {
    if (NumFilesAtLevel(0) >= options_.l0_compaction_trigger) {
      CACHE_EXT_RETURN_IF_ERROR(CompactLevel(0));
      continue;
    }
    bool compacted = false;
    for (int level = 1; level < options_.num_levels - 1; ++level) {
      if (LevelBytes(level) > MaxBytesForLevel(level)) {
        CACHE_EXT_RETURN_IF_ERROR(CompactLevel(level));
        compacted = true;
        break;
      }
    }
    if (!compacted) {
      break;
    }
  }
  return OkStatus();
}

Status LsmDb::CompactLevel(int level) {
  ++compactions_run_;
  auto& inputs = levels_[static_cast<size_t>(level)];
  std::vector<size_t> input_indices;
  std::string smallest;
  std::string largest;
  if (level == 0) {
    // Compact all of L0 (files overlap).
    for (size_t i = 0; i < inputs.size(); ++i) {
      input_indices.push_back(i);
    }
  } else {
    // Pick the oldest (first) file.
    input_indices.push_back(0);
  }
  if (input_indices.empty()) {
    return OkStatus();
  }
  smallest = inputs[input_indices[0]].smallest;
  largest = inputs[input_indices[0]].largest;
  for (const size_t i : input_indices) {
    smallest = std::min(smallest, inputs[i].smallest);
    largest = std::max(largest, inputs[i].largest);
  }

  // Overlapping files in the output level.
  const int output_level = level + 1;
  std::vector<size_t> overlaps;
  auto& outputs = levels_[static_cast<size_t>(output_level)];
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].largest >= smallest && outputs[i].smallest <= largest) {
      overlaps.push_back(i);
    }
  }
  return MergeFiles(level, std::move(input_indices), output_level,
                    std::move(overlaps));
}

Status LsmDb::MergeFiles(int input_level, std::vector<size_t> input_indices,
                         int output_level,
                         std::vector<size_t> overlap_indices) {
  Lane& lane = compaction_lane_;
  ScopedCurrentTask task(lane.task());

  // Sources, newest first: input level files (L0 already newest-first),
  // then the output level's overlapping (older) files.
  std::vector<std::unique_ptr<Source>> sources;
  auto& inputs = levels_[static_cast<size_t>(input_level)];
  auto& outputs = levels_[static_cast<size_t>(output_level)];
  for (const size_t i : input_indices) {
    auto table = OpenTable(lane, &inputs[i]);
    CACHE_EXT_RETURN_IF_ERROR(table.status());
    sources.push_back(std::make_unique<TableSource>(*table, lane, ""));
  }
  for (const size_t i : overlap_indices) {
    auto table = OpenTable(lane, &outputs[i]);
    CACHE_EXT_RETURN_IF_ERROR(table.status());
    sources.push_back(std::make_unique<TableSource>(*table, lane, ""));
  }

  const bool bottom_level = output_level == options_.num_levels - 1;
  MergingIterator merge(std::move(sources));
  std::vector<FileMeta> new_files;
  std::unique_ptr<SSTableBuilder> builder;
  FileMeta current;

  const auto finish_current = [&]() -> Status {
    if (builder == nullptr) {
      return OkStatus();
    }
    auto size = builder->Finish(lane);
    CACHE_EXT_RETURN_IF_ERROR(size.status());
    current.size = *size;
    current.smallest = builder->smallest_key();
    current.largest = builder->largest_key();
    new_files.push_back(std::move(current));
    builder.reset();
    return OkStatus();
  };

  const auto write_outputs = [&]() -> Status {
    CACHE_EXT_RETURN_IF_ERROR(merge.status());
    while (merge.Valid()) {
      // Drop tombstones when merging into the bottom level.
      if (!(bottom_level && merge.tombstone())) {
        if (builder == nullptr) {
          current = FileMeta();
          current.number = next_file_number_;
          current.name = NewFileName();
          builder = std::make_unique<SSTableBuilder>(
              pc_, cg_, current.name, options_.target_file_bytes);
        }
        CACHE_EXT_RETURN_IF_ERROR(
            builder->Add(merge.key(), merge.value(), merge.tombstone()));
        if (builder->EstimatedBytes() >= options_.target_file_bytes) {
          CACHE_EXT_RETURN_IF_ERROR(finish_current());
        }
      }
      CACHE_EXT_RETURN_IF_ERROR(merge.Next());
    }
    return finish_current();
  };

  if (Status status = write_outputs(); !status.ok()) {
    // A source that failed would silently drop its records from the
    // outputs: keep the inputs in place and delete what was written,
    // including a table whose Finish failed part way.
    if (builder != nullptr) {
      new_files.push_back(std::move(current));
    }
    for (const FileMeta& meta : new_files) {
      if (auto as = pc_->OpenFile(meta.name); as.ok()) {
        (void)pc_->DeleteFile(lane, *as);
      }
    }
    return status;
  }

  // Delete the merged inputs (folio removal in circumvention of eviction).
  std::vector<std::string> doomed;
  for (const size_t i : input_indices) {
    doomed.push_back(inputs[i].name);
  }
  for (const size_t i : overlap_indices) {
    doomed.push_back(outputs[i].name);
  }

  // Rebuild the level file lists.
  std::vector<FileMeta> remaining_inputs;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (std::find(input_indices.begin(), input_indices.end(), i) ==
        input_indices.end()) {
      remaining_inputs.push_back(std::move(inputs[i]));
    }
  }
  inputs = std::move(remaining_inputs);

  std::vector<FileMeta> remaining_outputs;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (std::find(overlap_indices.begin(), overlap_indices.end(), i) ==
        overlap_indices.end()) {
      remaining_outputs.push_back(std::move(outputs[i]));
    }
  }
  for (auto& meta : new_files) {
    remaining_outputs.push_back(std::move(meta));
  }
  std::sort(remaining_outputs.begin(), remaining_outputs.end(),
            [](const FileMeta& a, const FileMeta& b) {
              return a.smallest < b.smallest;
            });
  outputs = std::move(remaining_outputs);

  for (const std::string& name : doomed) {
    auto as = pc_->OpenFile(name);
    CACHE_EXT_RETURN_IF_ERROR(as.status());
    CACHE_EXT_RETURN_IF_ERROR(pc_->DeleteFile(lane, *as));
  }
  return OkStatus();
}

Status LsmDb::BulkLoad(
    Lane& lane,
    const std::function<bool(std::string*, std::string*)>& next) {
  if (TotalDataBytes() != 0 || !memtable_.empty()) {
    return FailedPrecondition("BulkLoad requires an empty DB");
  }
  const int bottom = options_.num_levels - 1;
  auto& level = levels_[static_cast<size_t>(bottom)];
  std::unique_ptr<SSTableBuilder> builder;
  FileMeta current;
  std::string key;
  std::string value;
  std::string prev_key;

  const auto finish_current = [&]() -> Status {
    if (builder == nullptr) {
      return OkStatus();
    }
    auto size = builder->Finish(lane);
    CACHE_EXT_RETURN_IF_ERROR(size.status());
    current.size = *size;
    current.smallest = builder->smallest_key();
    current.largest = builder->largest_key();
    level.push_back(std::move(current));
    builder.reset();
    return OkStatus();
  };

  while (next(&key, &value)) {
    if (!prev_key.empty() && key <= prev_key) {
      return InvalidArgument("BulkLoad keys must be strictly increasing");
    }
    prev_key = key;
    if (builder == nullptr) {
      current = FileMeta();
      current.number = next_file_number_;
      current.name = NewFileName();
      builder = std::make_unique<SSTableBuilder>(pc_, cg_, current.name,
                                                 options_.target_file_bytes);
    }
    CACHE_EXT_RETURN_IF_ERROR(builder->Add(key, value, /*tombstone=*/false));
    if (builder->EstimatedBytes() >= options_.target_file_bytes) {
      CACHE_EXT_RETURN_IF_ERROR(finish_current());
    }
  }
  return finish_current();
}

}  // namespace cache_ext::lsm
