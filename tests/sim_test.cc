// Unit tests for src/sim: SSD timing model, simulated disk, lanes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "src/sim/disk_run.h"
#include "src/sim/lane.h"
#include "src/sim/sim_disk.h"
#include "src/sim/ssd_model.h"

namespace {

// Allocations of at least g_counted_min bytes while it is non-zero: shows
// that a gifted buffer is adopted rather than copied. g_watched_freed says
// whether g_watched, a run's buffer, has been freed.
std::atomic<size_t> g_counted_min{0};
std::atomic<uint64_t> g_counted_allocs{0};
std::atomic<const void*> g_watched{nullptr};
std::atomic<bool> g_watched_freed{false};

void NoteFree(void* p) {
  if (p != nullptr && p == g_watched.load(std::memory_order_relaxed)) {
    g_watched_freed.store(true, std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// The replacements pair malloc with free; GCC cannot see that through the
// inlined std::allocator calls and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  const size_t min = g_counted_min.load(std::memory_order_relaxed);
  if (min != 0 && size >= min) {
    g_counted_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { NoteFree(p); }
void operator delete(void* p, std::size_t) noexcept { NoteFree(p); }

namespace cache_ext {
namespace {

// --- SsdModel ----------------------------------------------------------------

SsdModelOptions OneChannel() {
  SsdModelOptions o;
  o.channels = 1;
  o.read_latency_ns = 1000;
  o.write_latency_ns = 2000;
  o.bytes_per_us = 1000;  // 1 byte per ns
  return o;
}

TEST(SsdModelTest, SingleReadLatency) {
  SsdModel ssd(OneChannel());
  // 1000 base + 500 transfer.
  EXPECT_EQ(ssd.SubmitRead(0, 500), 1500u);
}

TEST(SsdModelTest, QueueingOnBusyChannel) {
  SsdModel ssd(OneChannel());
  EXPECT_EQ(ssd.SubmitRead(0, 0), 1000u);
  // Second request at t=0 queues behind the first.
  EXPECT_EQ(ssd.SubmitRead(0, 0), 2000u);
  // A request arriving after the channel is free starts immediately.
  EXPECT_EQ(ssd.SubmitRead(10000, 0), 11000u);
}

TEST(SsdModelTest, MultipleChannelsServeInParallel) {
  SsdModelOptions o = OneChannel();
  o.channels = 4;
  SsdModel ssd(o);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ssd.SubmitRead(0, 0), 1000u) << "request " << i;
  }
  // Fifth request queues.
  EXPECT_EQ(ssd.SubmitRead(0, 0), 2000u);
}

TEST(SsdModelTest, WriteLatencyDiffersFromRead) {
  SsdModel ssd(OneChannel());
  EXPECT_EQ(ssd.SubmitWrite(0, 0), 2000u);
}

TEST(SsdModelTest, StatsAccumulate) {
  SsdModel ssd(OneChannel());
  ssd.SubmitRead(0, 100);
  ssd.SubmitRead(0, 200);
  ssd.SubmitWrite(0, 300);
  EXPECT_EQ(ssd.total_reads(), 2u);
  EXPECT_EQ(ssd.total_writes(), 1u);
  EXPECT_EQ(ssd.total_read_bytes(), 300u);
  EXPECT_EQ(ssd.total_write_bytes(), 300u);
  EXPECT_EQ(ssd.total_io_bytes(), 600u);
  ssd.ResetStats();
  EXPECT_EQ(ssd.total_io_bytes(), 0u);
}

TEST(SsdModelTest, FrontierTracksLatestCompletion) {
  SsdModel ssd(OneChannel());
  EXPECT_EQ(ssd.FrontierNs(), 0u);
  ssd.SubmitRead(0, 0);
  EXPECT_EQ(ssd.FrontierNs(), 1000u);
  ssd.SubmitWrite(5000, 0);
  EXPECT_EQ(ssd.FrontierNs(), 7000u);
}

TEST(SsdModelTest, ContentionRaisesLatency) {
  // The property Fig. 11 depends on: more concurrent traffic, later
  // completions.
  SsdModelOptions o = OneChannel();
  o.channels = 2;
  SsdModel ssd(o);
  uint64_t last = 0;
  for (int i = 0; i < 16; ++i) {
    last = ssd.SubmitRead(0, 0);
  }
  EXPECT_EQ(last, 8000u);  // 16 requests over 2 channels, 1000ns each
}

// --- SimDisk -----------------------------------------------------------------

TEST(SimDiskTest, CreateOpenDelete) {
  SimDisk disk;
  auto id = disk.Create("/a");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(disk.Exists("/a"));
  auto reopened = disk.Open("/a");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened, *id);
  EXPECT_TRUE(disk.Delete("/a").ok());
  EXPECT_FALSE(disk.Exists("/a"));
  EXPECT_FALSE(disk.Open("/a").ok());
}

TEST(SimDiskTest, DuplicateCreateFails) {
  SimDisk disk;
  ASSERT_TRUE(disk.Create("/a").ok());
  EXPECT_EQ(disk.Create("/a").status().code(), ErrorCode::kAlreadyExists);
}

TEST(SimDiskTest, WriteReadRoundTrip) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  const std::string payload = "hello world";
  ASSERT_TRUE(disk.WriteAt(*id, 100,
                           std::span<const uint8_t>(
                               reinterpret_cast<const uint8_t*>(payload.data()),
                               payload.size()))
                  .ok());
  EXPECT_EQ(disk.SizeOf(*id), 111u);

  std::vector<uint8_t> out(payload.size());
  ASSERT_TRUE(disk.ReadAt(*id, 100, std::span<uint8_t>(out)).ok());
  EXPECT_EQ(std::string(out.begin(), out.end()), payload);
}

TEST(SimDiskTest, ReadsPastEofSeeZeroes) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> out(16, 0xFF);
  ASSERT_TRUE(disk.ReadAt(*id, 1000, std::span<uint8_t>(out)).ok());
  for (const uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(SimDiskTest, HoleBetweenWritesIsZeroFilled) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  const uint8_t one = 1;
  ASSERT_TRUE(disk.WriteAt(*id, 0, std::span<const uint8_t>(&one, 1)).ok());
  ASSERT_TRUE(disk.WriteAt(*id, 100, std::span<const uint8_t>(&one, 1)).ok());
  std::vector<uint8_t> out(99);
  ASSERT_TRUE(disk.ReadAt(*id, 1, std::span<uint8_t>(out)).ok());
  for (const uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(SimDiskTest, TruncateExtends) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(disk.Truncate(*id, 4096).ok());
  EXPECT_EQ(disk.SizeOf(*id), 4096u);
  // Truncate never shrinks (extend-only semantics).
  ASSERT_TRUE(disk.Truncate(*id, 100).ok());
  EXPECT_EQ(disk.SizeOf(*id), 4096u);
}

TEST(SimDiskTest, BadFileIdErrors) {
  SimDisk disk;
  std::vector<uint8_t> buf(8);
  EXPECT_FALSE(disk.ReadAt(999, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_FALSE(disk.WriteAt(999, 0, std::span<const uint8_t>(buf)).ok());
  EXPECT_EQ(disk.SizeOf(999), 0u);
}

TEST(SimDiskTest, ListFilesSorted) {
  SimDisk disk;
  ASSERT_TRUE(disk.Create("/b").ok());
  ASSERT_TRUE(disk.Create("/a").ok());
  ASSERT_TRUE(disk.Create("/c").ok());
  EXPECT_EQ(disk.ListFiles(), (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(SimDiskTest, TotalBytes) {
  SimDisk disk;
  auto a = disk.Create("/a");
  auto b = disk.Create("/b");
  ASSERT_TRUE(disk.Truncate(*a, 100).ok());
  ASSERT_TRUE(disk.Truncate(*b, 50).ok());
  EXPECT_EQ(disk.TotalBytes(), 150u);
}

// The first byte of the run that page `page` of `id` lives in (null for a
// page with no run).
const char* RunData(SimDisk& disk, FileId id, uint64_t page) {
  const DiskRun* run = nullptr;
  disk.RefPages(id, page, std::span(&run, 1));
  const char* data = run == nullptr ? nullptr : run->bytes().data();
  DiskRun::Unref(run);  // the device keeps its own reference
  return data;
}

std::string ReadString(SimDisk& disk, FileId id, uint64_t offset,
                       size_t len) {
  std::string out(len, '\0');
  EXPECT_TRUE(disk.ReadAt(id, offset,
                          std::span<uint8_t>(
                              reinterpret_cast<uint8_t*>(out.data()), len))
                  .ok());
  return out;
}

std::span<const uint8_t> Bytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()),
                                  s.size());
}

std::string Pattern(size_t len, char seed) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(seed + i % 23);
  }
  return s;
}

TEST(SimDiskTest, PageAlignedGiftKeepsTheCallersBuffer) {
  SimDisk disk;
  auto id = disk.Create("/table");
  ASSERT_TRUE(id.ok());
  // Three pages and a partial fourth: past a new file's end nothing old
  // survives, so the whole buffer is adopted.
  std::string table = Pattern(3 * kDiskPageSize + 100, 'a');
  const std::string expected = table;
  const char* data = table.data();
  g_counted_min.store(table.size());
  g_counted_allocs.store(0);
  ASSERT_TRUE(disk.WriteAt(*id, 0, std::move(table)).ok());
  g_counted_min.store(0);
  EXPECT_EQ(g_counted_allocs.load(), 0u);
  for (uint64_t page = 0; page < 4; ++page) {
    EXPECT_EQ(RunData(disk, *id, page), data) << "page " << page;
  }
  EXPECT_EQ(disk.SizeOf(*id), expected.size());
  EXPECT_EQ(ReadString(disk, *id, 0, expected.size()), expected);
  // An append at the next page boundary is adopted too.
  std::string tail = Pattern(kDiskPageSize, 'k');
  const char* tail_data = tail.data();
  ASSERT_TRUE(disk.WriteAt(*id, 4 * kDiskPageSize, std::move(tail)).ok());
  EXPECT_EQ(RunData(disk, *id, 4), tail_data);
  EXPECT_EQ(RunData(disk, *id, 3), data);
  EXPECT_EQ(ReadString(disk, *id, 3 * kDiskPageSize + 100, kDiskPageSize - 100),
            std::string(kDiskPageSize - 100, '\0'));
}

TEST(SimDiskTest, UnalignedGiftFallsBackToACopy) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  std::string bytes = Pattern(2 * kDiskPageSize, 'q');
  const std::string expected = bytes;
  const char* data = bytes.data();
  ASSERT_TRUE(disk.WriteAt(*id, 100, std::move(bytes)).ok());
  EXPECT_NE(RunData(disk, *id, 0), data);
  EXPECT_NE(RunData(disk, *id, 0), nullptr);
  EXPECT_EQ(disk.SizeOf(*id), 100 + expected.size());
  EXPECT_EQ(ReadString(disk, *id, 0, 100), std::string(100, '\0'));
  EXPECT_EQ(ReadString(disk, *id, 100, expected.size()), expected);
}

TEST(SimDiskTest, PartialPageWritesMergeTheOldBytes) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  std::string model = Pattern(3 * kDiskPageSize, 'a');
  ASSERT_TRUE(disk.WriteAt(*id, 0, Bytes(model)).ok());
  // Across the page 0/1 boundary: both edge pages keep their other bytes.
  const std::string patch = "0123456789";
  ASSERT_TRUE(disk.WriteAt(*id, kDiskPageSize - 4, Bytes(patch)).ok());
  model.replace(kDiskPageSize - 4, patch.size(), patch);
  // A page-aligned gift shorter than the data after it merges the rest of
  // its last page.
  std::string gift(100, 'G');
  ASSERT_TRUE(disk.WriteAt(*id, 2 * kDiskPageSize, std::move(gift)).ok());
  model.replace(2 * kDiskPageSize, 100, std::string(100, 'G'));
  EXPECT_EQ(disk.SizeOf(*id), model.size());
  EXPECT_EQ(ReadString(disk, *id, 0, model.size()), model);
}

TEST(SimDiskTest, GapsAndReadsPastEofAreZeroes) {
  SimDisk disk;
  auto id = disk.Create("/f");
  ASSERT_TRUE(id.ok());
  const std::string page = Pattern(kDiskPageSize, 'z');
  ASSERT_TRUE(disk.WriteAt(*id, 3 * kDiskPageSize, Bytes(page)).ok());
  EXPECT_EQ(disk.SizeOf(*id), 4 * kDiskPageSize);
  const std::string zeroes(3 * kDiskPageSize, '\0');
  EXPECT_EQ(ReadString(disk, *id, 0, zeroes.size()), zeroes);
  EXPECT_EQ(RunData(disk, *id, 1), nullptr);  // a gap has no run
  EXPECT_EQ(ReadString(disk, *id, 3 * kDiskPageSize, kDiskPageSize), page);
  // Past EOF, and the pages Truncate adds.
  EXPECT_EQ(ReadString(disk, *id, 10 * kDiskPageSize, 64),
            std::string(64, '\0'));
  ASSERT_TRUE(disk.Truncate(*id, 8 * kDiskPageSize).ok());
  EXPECT_EQ(ReadString(disk, *id, 4 * kDiskPageSize, 4 * kDiskPageSize),
            std::string(4 * kDiskPageSize, '\0'));
  EXPECT_EQ(RunData(disk, *id, 5), nullptr);
}

// Watches the buffer of the run behind page 0 of `id` for its free.
void WatchRun(SimDisk& disk, FileId id) {
  g_watched_freed.store(false);
  g_watched.store(RunData(disk, id, 0));
}

TEST(SimDiskTest, DeleteFreesRunsNothingElseReferences) {
  SimDisk disk;
  auto a = disk.Create("/a");
  auto b = disk.Create("/b");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string page = Pattern(kDiskPageSize, 'p');
  ASSERT_TRUE(disk.WriteAt(*a, 0, Bytes(page)).ok());
  // Rewriting a whole page frees the run it replaced.
  WatchRun(disk, *a);
  ASSERT_TRUE(disk.WriteAt(*a, 0, Bytes(page)).ok());
  EXPECT_TRUE(g_watched_freed.load());
  WatchRun(disk, *a);
  ASSERT_TRUE(disk.Delete("/a").ok());
  EXPECT_TRUE(g_watched_freed.load());

  // A reference held elsewhere (a cached folio's) outlives the file.
  ASSERT_TRUE(disk.WriteAt(*b, 0, Bytes(page)).ok());
  WatchRun(disk, *b);
  const DiskRun* held = nullptr;
  disk.RefPages(*b, 0, std::span(&held, 1));
  ASSERT_TRUE(disk.Delete("/b").ok());
  EXPECT_FALSE(g_watched_freed.load());
  std::string copy(kDiskPageSize, '\0');
  DiskRun::CopyOut(held, 0, 0,
                   std::span<uint8_t>(reinterpret_cast<uint8_t*>(copy.data()),
                                      copy.size()));
  EXPECT_EQ(copy, page);
  DiskRun::Unref(held);
  EXPECT_TRUE(g_watched_freed.load());
  g_watched.store(nullptr);
}

// --- Lane --------------------------------------------------------------------

TEST(LaneTest, ClockMonotone) {
  Lane lane(1, TaskContext{10, 11}, 7);
  EXPECT_EQ(lane.now_ns(), 0u);
  lane.Charge(100);
  EXPECT_EQ(lane.now_ns(), 100u);
  lane.AdvanceTo(50);  // never goes backward
  EXPECT_EQ(lane.now_ns(), 100u);
  lane.AdvanceTo(500);
  EXPECT_EQ(lane.now_ns(), 500u);
}

TEST(LaneTest, TaskIdentity) {
  Lane lane(1, TaskContext{10, 11}, 7);
  EXPECT_EQ(lane.task().pid, 10);
  EXPECT_EQ(lane.task().tid, 11);
  lane.set_task(TaskContext{20, 21});
  EXPECT_EQ(lane.task().pid, 20);
}

}  // namespace
}  // namespace cache_ext
