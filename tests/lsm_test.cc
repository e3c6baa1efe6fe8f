// Tests for the LSM substrate: skiplist, SSTable round trips, the DB's
// put/get/delete/scan paths, flush, compaction, bulk load, and a property
// test against std::map.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

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
    seen.push_back(it.key());
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
    std::string value = std::to_string(i);
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

// --- SSTable ------------------------------------------------------------

class SstableTest : public ::testing::Test {
 protected:
  SstableTest() {
    ssd_ = std::make_unique<SsdModel>();
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), PageCacheOptions{});
    cg_ = pc_->CreateCgroup("/sst", 1024 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 1}, 1); }

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
    EXPECT_GT(it.record().key, prev);
    prev = it.record().key;
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
  EXPECT_EQ(it.record().key, "k00102");
  ASSERT_TRUE(it.Seek("k00999").ok());
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
