// Tests for the LSM substrate: skiplist, SSTable round trips, the DB's
// put/get/delete/scan paths, flush, compaction, bulk load, and a property
// test against std::map.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/lsm/arena.h"
#include "src/lsm/db.h"
#include "src/lsm/format.h"
#include "src/lsm/skiplist.h"
#include "src/lsm/sstable.h"
#include "src/util/rng.h"

namespace cache_ext::lsm {
namespace {

// --- SkipList ------------------------------------------------------------

TEST(SkipListTest, PutGetOverwrite) {
  SkipList list;
  list.Put("b", "2", false);
  list.Put("a", "1", false);
  ASSERT_NE(list.Get("a"), nullptr);
  EXPECT_EQ(list.Get("a")->value, "1");
  list.Put("a", "updated", false);
  EXPECT_EQ(list.Get("a")->value, "updated");
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Get("c"), nullptr);
}

TEST(SkipListTest, TombstoneStored) {
  SkipList list;
  list.Put("a", "", true);
  ASSERT_NE(list.Get("a"), nullptr);
  EXPECT_TRUE(list.Get("a")->tombstone);
}

TEST(SkipListTest, OrderedIteration) {
  SkipList list;
  const char* keys[] = {"delta", "alpha", "echo", "bravo", "charlie"};
  for (const char* key : keys) {
    list.Put(key, key, false);
  }
  std::vector<std::string> seen;
  for (auto it = list.NewIterator(); it.Valid(); it.Next()) {
    seen.emplace_back(it.key());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "bravo", "charlie",
                                            "delta", "echo"}));
}

TEST(SkipListTest, SeekPositionsAtLowerBound) {
  SkipList list;
  list.Put("b", "", false);
  list.Put("d", "", false);
  auto it = list.NewIterator();
  it.Seek(&list, "c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek(&list, "e");
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, LargePopulationStaysSorted) {
  SkipList list;
  Rng rng(3);
  std::map<std::string, std::string> reference;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.NextU64Below(2000));
    // Mixed sizes: mostly small, some 2 KiB, a few past a quarter block.
    const uint64_t kind = rng.NextU64Below(16);
    const size_t len = kind == 0   ? 20000 + rng.NextU64Below(10000)
                       : kind < 6 ? 2048
                                  : rng.NextU64Below(64);
    std::string value = std::to_string(i);
    value.resize(len, static_cast<char>('a' + i % 26));
    list.Put(key, value, false);
    reference[key] = value;
  }
  EXPECT_EQ(list.size(), reference.size());
  auto ref_it = reference.begin();
  for (auto it = list.NewIterator(); it.Valid(); it.Next(), ++ref_it) {
    EXPECT_EQ(it.key(), ref_it->first);
    EXPECT_EQ(it.entry().value, ref_it->second);
  }
}

TEST(SkipListTest, OverwriteWithLongerThenShorterValue) {
  SkipList list;
  list.Put("a", "before", false);
  list.Put("k", "short", false);
  list.Put("z", "after", false);
  const std::string longer(300, 'L');
  list.Put("k", longer, false);
  EXPECT_EQ(list.Get("k")->value, longer);
  list.Put("k", "tiny", false);
  EXPECT_EQ(list.Get("k")->value, "tiny");
  list.Put("k", std::string(300, 'M'), false);
  EXPECT_EQ(list.Get("k")->value, std::string(300, 'M'));
  // Neighbours are untouched and overwrites add no key.
  EXPECT_EQ(list.Get("a")->value, "before");
  EXPECT_EQ(list.Get("z")->value, "after");
  EXPECT_EQ(list.size(), 3u);
}

TEST(SkipListTest, OverwriteToTombstoneAndBack) {
  SkipList list;
  list.Put("k", "value", false);
  list.Put("k", "", true);
  ASSERT_NE(list.Get("k"), nullptr);
  EXPECT_TRUE(list.Get("k")->tombstone);
  EXPECT_TRUE(list.Get("k")->value.empty());
  list.Put("k", "revived", false);
  EXPECT_FALSE(list.Get("k")->tombstone);
  EXPECT_EQ(list.Get("k")->value, "revived");
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipListTest, ValuesLargerThanAQuarterBlock) {
  SkipList list;
  std::map<std::string, std::string> reference;
  const size_t sizes[] = {Arena::kBlockBytes / 4 + 1, 10, Arena::kBlockBytes,
                          3, Arena::kBlockBytes * 3, 100};
  for (size_t i = 0; i < std::size(sizes); ++i) {
    const std::string key = "k" + std::to_string(i);
    std::string value(sizes[i], static_cast<char>('a' + i));
    value.front() = 'F';
    value.back() = 'B';
    list.Put(key, value, false);
    reference[key] = value;
  }
  for (const auto& [key, value] : reference) {
    ASSERT_NE(list.Get(key), nullptr) << key;
    EXPECT_EQ(list.Get(key)->value, value) << key;
  }
}

TEST(SkipListTest, EntryViewStaysValidWhileOtherKeysAreInserted) {
  SkipList list;
  const std::string value(2048, 'v');
  list.Put("m", value, false);
  const std::string_view view = list.Get("m")->value;
  auto it = list.NewIterator();
  const std::string_view key = it.key();
  // Enough inserts to fill many arena blocks, some of them large values.
  for (int i = 0; i < 4000; ++i) {
    list.Put("k" + std::to_string(i),
             std::string(i % 100 == 0 ? 20000 : 100, 'x'), false);
  }
  EXPECT_EQ(view, value);
  EXPECT_EQ(key, "m");
  EXPECT_EQ(list.Get("m")->value.data(), view.data());
}

TEST(SkipListTest, FixedSizeOverwritesDoNotGrowTheArena) {
  SkipList list;
  for (int i = 0; i < 500; ++i) {
    list.Put("k" + std::to_string(i), std::string(2048, 'a'), false);
  }
  const size_t arena = list.MemoryUsage();
  const uint64_t bytes = list.ApproximateBytes();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      list.Put("k" + std::to_string(i),
               std::string(2048, static_cast<char>('b' + round)), false);
    }
  }
  EXPECT_EQ(list.MemoryUsage(), arena);
  EXPECT_EQ(list.ApproximateBytes(), bytes);
  EXPECT_EQ(list.Get("k7")->value, std::string(2048, 'k'));
}

// --- SSTable ------------------------------------------------------------

class SstableTest : public ::testing::Test {
 protected:
  SstableTest() {
    ssd_ = std::make_unique<SsdModel>();
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), PageCacheOptions{});
    cg_ = pc_->CreateCgroup("/sst", 1024 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 1}, 1); }

  // Drops a file's cached pages, so that readers see a corruption written
  // to the device underneath the cache.
  void DropCachedPages(const char* name) {
    auto as = pc_->OpenFile(name);
    ASSERT_TRUE(as.ok());
    Lane lane = MakeLane();
    ASSERT_TRUE(
        pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  MemCgroup* cg_;
};

TEST_F(SstableTest, BuildAndGetRoundTrip) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/t1");
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(builder.Add(key, "value" + std::to_string(i), false).ok());
  }
  auto size = builder.Finish(lane);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 0u);
  EXPECT_EQ(builder.smallest_key(), "key000000");
  EXPECT_EQ(builder.largest_key(), "key000999");

  auto reader = SSTableReader::Open(pc_.get(), cg_, "/t1", lane);
  ASSERT_TRUE(reader.ok());
  auto rec = (*reader)->Get(lane, "key000500");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->value, "value500");
  // Missing keys.
  auto missing = (*reader)->Get(lane, "key9999999");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  auto between = (*reader)->Get(lane, "key000500x");
  ASSERT_TRUE(between.ok());
  EXPECT_FALSE(between->has_value());
}

TEST_F(SstableTest, OutOfOrderAddRejected) {
  SSTableBuilder builder(pc_.get(), cg_, "/t2");
  ASSERT_TRUE(builder.Add("b", "1", false).ok());
  EXPECT_FALSE(builder.Add("a", "2", false).ok());
  EXPECT_FALSE(builder.Add("b", "3", false).ok());  // duplicates rejected too
}

TEST_F(SstableTest, TombstonesSurviveRoundTrip) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/t3");
  ASSERT_TRUE(builder.Add("dead", "", true).ok());
  ASSERT_TRUE(builder.Finish(lane).ok());
  auto reader = SSTableReader::Open(pc_.get(), cg_, "/t3", lane);
  ASSERT_TRUE(reader.ok());
  auto rec = (*reader)->Get(lane, "dead");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_TRUE((*rec)->tombstone);
}

TEST_F(SstableTest, IteratorWalksAllRecordsInOrder) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/t4");
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(key, std::to_string(i), false).ok());
  }
  ASSERT_TRUE(builder.Finish(lane).ok());
  auto reader = SSTableReader::Open(pc_.get(), cg_, "/t4", lane);
  ASSERT_TRUE(reader.ok());
  SSTableReader::Iterator it(reader->get(), lane);
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    EXPECT_GT(it.key(), prev);
    prev = it.key();
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 500);
}

TEST_F(SstableTest, IteratorSeek) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/t5");
  for (int i = 0; i < 500; i += 2) {  // even keys only
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(key, "v", false).ok());
  }
  ASSERT_TRUE(builder.Finish(lane).ok());
  auto reader = SSTableReader::Open(pc_.get(), cg_, "/t5", lane);
  ASSERT_TRUE(reader.ok());
  SSTableReader::Iterator it(reader->get(), lane);
  ASSERT_TRUE(it.Seek("k00101").ok());  // odd: lands on next even
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k00102");
  ASSERT_TRUE(it.Seek("k00999").ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(SstableTest, IteratorReportsMalformedRecordAsCorruption) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/malformed");
  for (int i = 0; i < 50; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(key, "v", false).ok());
  }
  ASSERT_TRUE(builder.Finish(lane).ok());
  // Record 0 is 10 bytes (two one-byte lengths, the flag, "k00000", "v");
  // record 1's key length becomes a varint that never ends.
  auto id = disk_.Open("/malformed");
  ASSERT_TRUE(id.ok());
  const uint8_t endless[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(disk_.WriteAt(*id, 10, std::span<const uint8_t>(endless)).ok());
  DropCachedPages("/malformed");

  auto reader = SSTableReader::Open(pc_.get(), cg_, "/malformed", lane);
  ASSERT_TRUE(reader.ok());
  SSTableReader::Iterator it(reader->get(), lane);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k00000");
  const Status next = it.Next();
  EXPECT_EQ(next.code(), ErrorCode::kCorruption);
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(it.status().code(), ErrorCode::kCorruption);
  // The error is sticky: a later Seek does not hide it.
  EXPECT_EQ(it.Seek("k00000").code(), ErrorCode::kCorruption);
  EXPECT_FALSE(it.Valid());
}

TEST_F(SstableTest, OpenRejectsCorruptFile) {
  Lane lane = MakeLane();
  auto id = disk_.Create("/garbage");
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> junk(100, 0xAB);
  ASSERT_TRUE(disk_.WriteAt(*id, 0, std::span<const uint8_t>(junk)).ok());
  EXPECT_FALSE(SSTableReader::Open(pc_.get(), cg_, "/garbage", lane).ok());
  EXPECT_FALSE(SSTableReader::Open(pc_.get(), cg_, "/tiny", lane).ok());
}

// Rewrites the block handle of index entry `entry` in the table at `name`
// through `edit`. Keys must be shorter than 128 bytes (one-byte length
// varints).
void EditIndexEntry(SimDisk& disk, PageCache& pc, const char* name, int entry,
                    const std::function<void(uint64_t* offset,
                                             uint64_t* size)>& edit) {
  auto as = pc.OpenFile(name);
  ASSERT_TRUE(as.ok());
  const FileId id = (*as)->file();
  const uint64_t file_size = pc.FileSize(*as);
  uint8_t footer[24];
  ASSERT_TRUE(disk.ReadAt(id, file_size - 24, std::span<uint8_t>(footer, 24))
                  .ok());
  uint64_t pos = GetFixed64(footer);  // index offset
  for (int i = 0;; ++i) {
    uint8_t klen = 0;
    ASSERT_TRUE(disk.ReadAt(id, pos, std::span<uint8_t>(&klen, 1)).ok());
    ASSERT_LT(klen, 0x80);
    pos += 1 + klen;
    if (i == entry) {
      break;
    }
    pos += 16;
  }
  uint8_t handle[16];
  ASSERT_TRUE(disk.ReadAt(id, pos, std::span<uint8_t>(handle, 16)).ok());
  uint64_t offset = GetFixed64(handle);
  uint64_t size = GetFixed64(handle + 8);
  edit(&offset, &size);
  std::string encoded;
  PutFixed64(&encoded, offset);
  PutFixed64(&encoded, size);
  ASSERT_TRUE(disk.WriteAt(id, pos,
                           std::span<const uint8_t>(
                               reinterpret_cast<const uint8_t*>(
                                   encoded.data()),
                               encoded.size()))
                  .ok());
  // The edit is underneath the cache: drop the file's pages so that the
  // next Open reads it.
  Lane lane(0, TaskContext{1, 1}, 1);
  ASSERT_TRUE(
      pc.FadviseRange(lane, *as, nullptr, Fadvise::kDontNeed, 0, 0).ok());
}

TEST_F(SstableTest, OpenRejectsIndexEntryOutsideDataRegion) {
  Lane lane = MakeLane();
  const char* names[] = {"/huge_size", "/wrapping_range", "/past_index",
                         "/gap"};
  for (const char* name : names) {
    SSTableBuilder builder(pc_.get(), cg_, name);
    for (int i = 0; i < 200; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      ASSERT_TRUE(builder.Add(key, std::string(100, 'v'), false).ok());
    }
    ASSERT_TRUE(builder.Finish(lane).ok());
    ASSERT_TRUE(SSTableReader::Open(pc_.get(), cg_, name, lane).ok());
  }
  // A size that would reach Get as a 2^50-byte read.
  EditIndexEntry(disk_, *pc_, "/huge_size", 0,
                 [](uint64_t*, uint64_t* size) { *size = uint64_t{1} << 50; });
  // The second block starts where it should, but offset + size wraps
  // around to 95, inside the data region.
  EditIndexEntry(disk_, *pc_, "/wrapping_range", 1,
                 [](uint64_t* offset, uint64_t* size) {
                   *size = ~uint64_t{0} - *offset + 96;
                 });
  // A block that runs into the index.
  EditIndexEntry(disk_, *pc_, "/past_index", 0,
                 [](uint64_t*, uint64_t* size) { *size = 64 << 10; });
  // A block that does not start where the previous one ends.
  EditIndexEntry(disk_, *pc_, "/gap", 1,
                 [](uint64_t* offset, uint64_t*) { *offset += 1; });
  for (const char* name : names) {
    auto reader = SSTableReader::Open(pc_.get(), cg_, name, lane);
    ASSERT_FALSE(reader.ok()) << name;
    EXPECT_EQ(reader.status().code(), ErrorCode::kCorruption) << name;
  }
}

TEST_F(SstableTest, GetReadsBlocksLargerThanTheStackBuffer) {
  Lane lane = MakeLane();
  SSTableBuilder builder(pc_.get(), cg_, "/big");
  // Every other record carries a 16 KiB value, so those blocks are twice
  // the stack buffer; the rest are small and share blocks.
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 40; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i * 2);
    std::string value;
    if (i % 2 == 0) {
      value.resize(16 << 10);
      for (size_t b = 0; b < value.size(); ++b) {
        value[b] = static_cast<char>((b * 131 + static_cast<size_t>(i)) & 0xFF);
      }
    } else {
      value = "small" + std::to_string(i);
    }
    const bool tombstone = i == 7;
    ASSERT_TRUE(builder.Add(key, tombstone ? "" : value, tombstone).ok());
    if (!tombstone) {
      expected[key] = value;
    }
  }
  ASSERT_TRUE(builder.Finish(lane).ok());
  auto reader = SSTableReader::Open(pc_.get(), cg_, "/big", lane);
  ASSERT_TRUE(reader.ok());
  static_assert((16 << 10) > SSTableReader::kStackBlockBytes);

  for (const auto& [key, value] : expected) {
    auto rec = (*reader)->Get(lane, key);
    ASSERT_TRUE(rec.ok()) << key;
    ASSERT_TRUE(rec->has_value()) << key;
    EXPECT_FALSE((*rec)->tombstone) << key;
    EXPECT_EQ((*rec)->value, value) << key;
  }
  auto dead = (*reader)->Get(lane, "key000014");
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(dead->has_value());
  EXPECT_TRUE((*dead)->tombstone);
  // Missing keys: before the first, between two (odd numbers), past the
  // last.
  for (const char* missing : {"a", "key000001", "key000041", "key000079",
                              "zzz"}) {
    auto rec = (*reader)->Get(lane, missing);
    ASSERT_TRUE(rec.ok()) << missing;
    EXPECT_FALSE(rec->has_value()) << missing;
  }
}

// FNV-1a over every file on `disk`, in name order: its name, its size and
// its bytes, folded into `hash`.
uint64_t HashDisk(const SimDisk& disk, uint64_t hash) {
  const auto mix = [&hash](const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ULL;
    }
  };
  for (const std::string& name : disk.ListFiles()) {
    auto id = disk.Open(name);
    EXPECT_TRUE(id.ok()) << name;
    const uint64_t size = disk.SizeOf(*id);
    std::vector<uint8_t> bytes(size);
    EXPECT_TRUE(disk.ReadAt(*id, 0, std::span<uint8_t>(bytes)).ok()) << name;
    mix(name.data(), name.size());
    mix(&size, sizeof(size));
    mix(bytes.data(), bytes.size());
  }
  return hash;
}

// A value of `len` bytes whose content depends on `seed` and on position.
std::string PatternValue(size_t len, uint64_t seed) {
  std::string value(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    value[i] = static_cast<char>('a' + (seed * 7 + i * 13) % 26);
  }
  return value;
}

// Pins the bytes flushes, compactions and the builder write: every file on
// the device is hashed at checkpoints of a fixed Put/Delete sequence (so
// compaction inputs are hashed before they are deleted), and after a set of
// builders covering a record larger than a block, tombstones, no size hint
// and a hint the output overshoots. The expected hash was taken from the
// staging-buffer builder this one replaced.
TEST_F(SstableTest, FlushAndCompactionWriteGoldenBytes) {
  Lane lane = MakeLane();
  uint64_t hash = 0xcbf29ce484222325ULL;
  {
    DbOptions options;
    options.memtable_bytes = 16 * 1024;
    options.target_file_bytes = 24 * 1024;
    options.level_base_bytes = 96 * 1024;
    LsmDb db(pc_.get(), cg_, "golden", options);
    Rng rng(2024);
    for (int step = 0; step < 3000; ++step) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05llu",
                    static_cast<unsigned long long>(rng.NextU64Below(600)));
      if (rng.NextU64Below(5) == 0) {
        ASSERT_TRUE(db.Delete(lane, key).ok());
      } else {
        // 100 B to 2.5 KiB, and now and then a record larger than a block.
        const size_t len =
            step % 397 == 0 ? 10000 : 100 + rng.NextU64Below(2461);
        ASSERT_TRUE(db.Put(lane, key, PatternValue(len, step)).ok());
      }
      if (step % 250 == 249) {
        hash = HashDisk(disk_, hash);
      }
    }
    ASSERT_TRUE(db.Flush(lane).ok());
    EXPECT_GT(db.compactions_run(), 20u);
    hash = HashDisk(disk_, hash);
  }
  {
    // No size hint: small records, tombstones and one oversized record.
    SSTableBuilder builder(pc_.get(), cg_, "/golden_nohint");
    for (int i = 0; i < 300; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "n%06d", i);
      const bool tombstone = i % 7 == 3;
      const size_t len = i == 150 ? 10000 : static_cast<size_t>(i % 50) * 9;
      ASSERT_TRUE(
          builder.Add(key, tombstone ? "" : PatternValue(len, i), tombstone)
              .ok());
    }
    ASSERT_TRUE(builder.Finish(lane).ok());
  }
  {
    // A hint far below the output: the buffer grows past its reservation.
    SSTableBuilder builder(pc_.get(), cg_, "/golden_overshoot",
                           /*expected_bytes=*/4096);
    for (int i = 0; i < 200; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "o%06d", i);
      ASSERT_TRUE(builder.Add(key, PatternValue(300 + i, i), false).ok());
    }
    ASSERT_TRUE(builder.Finish(lane).ok());
  }
  {
    // A record larger than a block as the first and the last record, under
    // a hint that fits.
    SSTableBuilder builder(pc_.get(), cg_, "/golden_hint",
                           /*expected_bytes=*/64 * 1024);
    ASSERT_TRUE(builder.Add("h0", PatternValue(9000, 1), false).ok());
    ASSERT_TRUE(builder.Add("h1", "", true).ok());
    ASSERT_TRUE(builder.Add("h2", PatternValue(5, 2), false).ok());
    ASSERT_TRUE(builder.Add("h3", PatternValue(12000, 3), false).ok());
    ASSERT_TRUE(builder.Finish(lane).ok());
  }
  hash = HashDisk(disk_, hash);
  EXPECT_EQ(hash, 0x22679689df4a4e06ULL);
}

// --- LsmDb ----------------------------------------------------------------

class LsmDbTest : public ::testing::Test {
 protected:
  LsmDbTest() {
    ssd_ = std::make_unique<SsdModel>();
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), PageCacheOptions{});
    cg_ = pc_->CreateCgroup("/db", 2048 * kPageSize);
    DbOptions options;
    options.memtable_bytes = 16 * 1024;  // small, to exercise flushes
    options.target_file_bytes = 32 * 1024;
    options.level_base_bytes = 128 * 1024;
    db_ = std::make_unique<LsmDb>(pc_.get(), cg_, "testdb", options);
    lane_ = std::make_unique<Lane>(0, TaskContext{1, 1}, 1);
  }

  std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  MemCgroup* cg_;
  std::unique_ptr<LsmDb> db_;
  std::unique_ptr<Lane> lane_;
};

TEST_F(LsmDbTest, PutGetFromMemtable) {
  ASSERT_TRUE(db_->Put(*lane_, "a", "1").ok());
  auto v = db_->Get(*lane_, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_EQ(db_->Get(*lane_, "b").status().code(), ErrorCode::kNotFound);
}

TEST_F(LsmDbTest, GetAfterFlush) {
  ASSERT_TRUE(db_->Put(*lane_, "a", "1").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  auto v = db_->Get(*lane_, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
}

TEST_F(LsmDbTest, DeleteShadowsFlushedValue) {
  ASSERT_TRUE(db_->Put(*lane_, "a", "1").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  ASSERT_TRUE(db_->Delete(*lane_, "a").ok());
  EXPECT_EQ(db_->Get(*lane_, "a").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  EXPECT_EQ(db_->Get(*lane_, "a").status().code(), ErrorCode::kNotFound);
}

TEST_F(LsmDbTest, NewerVersionWinsAcrossLevels) {
  ASSERT_TRUE(db_->Put(*lane_, "k", "old").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  ASSERT_TRUE(db_->Put(*lane_, "k", "new").ok());
  auto v = db_->Get(*lane_, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new");
  ASSERT_TRUE(db_->Flush(*lane_).ok());  // both versions now in L0
  v = db_->Get(*lane_, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new");
}

TEST_F(LsmDbTest, ScanMergesSources) {
  // Some keys flushed, some in the memtable, one deleted.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put(*lane_, Key(i), "flushed" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(db_->Put(*lane_, Key(i), "mem" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Put(*lane_, Key(3), "updated").ok());
  ASSERT_TRUE(db_->Delete(*lane_, Key(5)).ok());

  auto records = db_->Scan(*lane_, Key(0), 100);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 14u);  // 15 keys - 1 deleted
  EXPECT_EQ((*records)[0].key, Key(0));
  EXPECT_EQ((*records)[3].value, "updated");
  for (const auto& rec : *records) {
    EXPECT_NE(rec.key, Key(5));
  }
}

TEST_F(LsmDbTest, ScanRespectsCountAndStart) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(*lane_, Key(i), "v").ok());
  }
  auto records = db_->Scan(*lane_, Key(10), 5);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ((*records)[0].key, Key(10));
  EXPECT_EQ((*records)[4].key, Key(14));
}

TEST_F(LsmDbTest, CompactionTriggersAndPreservesData) {
  // Write enough to force several flushes and at least one compaction.
  Rng rng(9);
  std::map<std::string, std::string> reference;
  for (int i = 0; i < 4000; ++i) {
    const std::string key = Key(static_cast<int>(rng.NextU64Below(1000)));
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(*lane_, key, value).ok());
    reference[key] = value;
  }
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  EXPECT_GT(db_->compactions_run(), 0u);
  EXPECT_LT(db_->NumFilesAtLevel(0), 4);
  // Every key readable with the latest value.
  for (const auto& [key, value] : reference) {
    auto v = db_->Get(*lane_, key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
}

TEST_F(LsmDbTest, CompactionRunsOnDistinctTid) {
  EXPECT_NE(db_->compaction_tid(), lane_->task().tid);
  EXPECT_EQ(db_->compaction_lane().task().tid, db_->compaction_tid());
}

TEST_F(LsmDbTest, BulkLoadThenRead) {
  int cursor = 0;
  ASSERT_TRUE(db_->BulkLoad(*lane_,
                            [&](std::string* key, std::string* value) {
                              if (cursor >= 1000) {
                                return false;
                              }
                              *key = Key(cursor);
                              *value = "bulk" + std::to_string(cursor);
                              ++cursor;
                              return true;
                            })
                  .ok());
  EXPECT_GT(db_->TotalDataBytes(), 0u);
  auto v = db_->Get(*lane_, Key(500));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "bulk500");
  // Bulk-loaded data scans correctly.
  auto records = db_->Scan(*lane_, Key(998), 10);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST_F(LsmDbTest, BulkLoadRejectsNonEmptyDb) {
  ASSERT_TRUE(db_->Put(*lane_, "a", "1").ok());
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  EXPECT_FALSE(db_->BulkLoad(*lane_, [](std::string*, std::string*) {
                     return false;
                   })
                   .ok());
}

TEST_F(LsmDbTest, BulkLoadRejectsUnsortedKeys) {
  int cursor = 0;
  const char* keys[] = {"b", "a"};
  EXPECT_FALSE(db_->BulkLoad(*lane_,
                             [&](std::string* key, std::string* value) {
                               if (cursor >= 2) {
                                 return false;
                               }
                               *key = keys[cursor++];
                               *value = "v";
                               return true;
                             })
                   .ok());
}

// A device-read error while compaction reads its inputs must fail the
// compaction, not merge without the table it could not read and then delete
// it. One read fault is armed halfway through a load of distinct keys and
// fires on the 4th, 8th, ... 32nd disk read after that; a Put may fail, but
// every key must read back once the fault is gone. Cached pages are served
// without a device read, so from then on the tables' pages are dropped
// before every Put and compaction reads its inputs from the device; 16 KiB
// memtables give the second half of the load about 64 such reads.
TEST_F(LsmDbTest, CompactionReadFaultLosesNoData) {
  const auto value_of = [](int i) {
    return "value" + std::to_string(i) + std::string(400, 'x');
  };
  for (uint64_t nth = 4; nth <= 32; nth += 4) {
    SCOPED_TRACE("fault on disk read " + std::to_string(nth));
    SimDisk disk;
    SsdModel ssd;
    PageCache pc(&disk, &ssd, PageCacheOptions{});
    MemCgroup* cg = pc.CreateCgroup("/fault", 2048 * kPageSize);
    DbOptions options;
    options.memtable_bytes = 16 * 1024;
    LsmDb db(&pc, cg, "faultdb", options);
    Lane lane(0, TaskContext{1, 1}, 1);
    const auto drop_tables = [&] {
      for (const std::string& name : disk.ListFiles()) {
        auto as = pc.OpenFile(name);
        ASSERT_TRUE(as.ok());
        ASSERT_TRUE(
            pc.FadviseRange(lane, *as, cg, Fadvise::kDontNeed, 0, 0).ok());
      }
    };
    uint64_t fires = 0;
    {
      std::optional<fault::ScopedFault> fault;
      for (int i = 0; i < 3000; ++i) {
        if (i >= 1500) {
          drop_tables();
        }
        if (i == 1500) {
          fault.emplace(fault::points::kDiskRead,
                        fault::FaultSchedule{.on_nth = nth, .max_fires = 1});
        }
        (void)db.Put(lane, Key(i), value_of(i));
      }
      fires = fault::FaultInjector::Global().fires(fault::points::kDiskRead);
    }
    EXPECT_EQ(fires, 1u);
    EXPECT_GT(db.compactions_run(), 0u);
    int lost = 0;
    for (int i = 0; i < 3000; ++i) {
      auto v = db.Get(lane, Key(i));
      lost += !v.ok() || *v != value_of(i);
    }
    EXPECT_EQ(lost, 0);
  }
}

// Scan must not return a partial result when one of its tables cannot be
// read.
TEST_F(LsmDbTest, ScanReportsSourceReadError) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(*lane_, Key(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->Flush(*lane_).ok());
  ASSERT_TRUE(db_->Put(*lane_, Key(1000), "in the memtable").ok());
  ASSERT_TRUE(db_->Scan(*lane_, Key(0), 10).ok());  // opens every table
  // Drop the tables' pages so the next scan reads the device.
  for (const std::string& name : disk_.ListFiles()) {
    auto as = pc_->OpenFile(name);
    ASSERT_TRUE(as.ok());
    ASSERT_TRUE(pc_->FadviseRange(*lane_, *as, cg_, Fadvise::kDontNeed, 0, 0)
                    .ok());
  }
  fault::ScopedFault fault(fault::points::kDiskRead,
                           fault::FaultSchedule{.on_nth = 1, .max_fires = 1});
  auto records = db_->Scan(*lane_, Key(0), 10);
  EXPECT_EQ(fault::FaultInjector::Global().fires(fault::points::kDiskRead), 1u);
  EXPECT_FALSE(records.ok());
}

// Two L0 tables hold the same keys with the same record sizes, so key 159
// is the last record of the first segment (kSegmentBlocks blocks of ten
// 413-byte records) in both. When the merge emits it from the newer table,
// popping it reloads that table's next, larger segment under the emitted
// key's view; the older table's copy must still be recognised and dropped.
TEST_F(LsmDbTest, MergeOfKeyAtSegmentBoundary) {
  SimDisk disk;
  SsdModel ssd;
  PageCache pc(&disk, &ssd, PageCacheOptions{});
  MemCgroup* cg = pc.CreateCgroup("/boundary", 2048 * kPageSize);
  DbOptions options;
  options.memtable_bytes = 1 << 20;  // flushed by hand
  options.l0_compaction_trigger = 2;
  LsmDb db(&pc, cg, "boundarydb", options);
  Lane lane(0, TaskContext{1, 1}, 1);
  static_assert(SSTableReader::Iterator::kSegmentBlocks == 16);

  std::map<std::string, std::string> reference;
  for (int version = 0; version < 2; ++version) {
    for (int i = 0; i < 320; ++i) {
      // Keys 0..159 fill the first segment exactly; the rest are larger.
      const size_t len = i < 160 ? 400 : 3000;
      const std::string value = PatternValue(len, version * 1000 + i);
      ASSERT_TRUE(db.Put(lane, Key(i), value).ok());
      reference[Key(i)] = value;
    }
    ASSERT_TRUE(db.Flush(lane).ok());
  }
  EXPECT_EQ(db.compactions_run(), 1u);
  EXPECT_EQ(db.NumFilesAtLevel(0), 0);

  auto records = db.Scan(lane, "", 1000);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), reference.size());
  auto ref_it = reference.begin();
  for (const auto& rec : *records) {
    EXPECT_EQ(rec.key, ref_it->first);
    EXPECT_EQ(rec.value, ref_it->second) << rec.key;
    ++ref_it;
  }
}

// Property test: random ops vs std::map, across flush/compaction cycles.
class LsmDbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmDbPropertyTest, MatchesReferenceModel) {
  SimDisk disk;
  SsdModel ssd;
  PageCache pc(&disk, &ssd, PageCacheOptions{});
  MemCgroup* cg = pc.CreateCgroup("/prop", 2048 * kPageSize);
  DbOptions options;
  options.memtable_bytes = 8 * 1024;
  options.target_file_bytes = 16 * 1024;
  options.level_base_bytes = 64 * 1024;
  LsmDb db(&pc, cg, "propdb", options);
  Lane lane(0, TaskContext{1, 1}, GetParam());

  std::map<std::string, std::string> reference;
  Rng rng(GetParam());
  for (int step = 0; step < 3000; ++step) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04llu",
                  static_cast<unsigned long long>(rng.NextU64Below(400)));
    switch (rng.NextU64Below(4)) {
      case 0:
      case 1: {  // put
        const std::string value = "v" + std::to_string(step);
        ASSERT_TRUE(db.Put(lane, key, value).ok());
        reference[key] = value;
        break;
      }
      case 2: {  // delete
        ASSERT_TRUE(db.Delete(lane, key).ok());
        reference.erase(key);
        break;
      }
      case 3: {  // get
        auto v = db.Get(lane, key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(v.status().code(), ErrorCode::kNotFound) << key;
        } else {
          ASSERT_TRUE(v.ok()) << key;
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
  }
  // Full scan equals the reference map.
  auto records = db.Scan(lane, "", 100000);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), reference.size());
  auto ref_it = reference.begin();
  for (const auto& rec : *records) {
    EXPECT_EQ(rec.key, ref_it->first);
    EXPECT_EQ(rec.value, ref_it->second);
    ++ref_it;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmDbPropertyTest,
                         ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace cache_ext::lsm
