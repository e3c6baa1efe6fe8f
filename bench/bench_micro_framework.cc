// Microbenchmarks (google-benchmark) for the framework's hot-path
// primitives, supporting §6.3's overhead analysis and calibrating the
// CpuCostModel defaults in src/sim/cpu_cost.h:
//  - valid-folio registry insert/contains/remove (§4.4);
//  - eviction-list kfuncs: add/move/iterate (§4.2.2);
//  - bpf map update/lookup, LRU-hash update, ring buffer output (§4.1);
//  - xarray load/store (page-cache index);
//  - the end-to-end cached-read path with and without a no-op policy;
//  - the LSM write side: memtable Put, memtable flush, L0 compaction, and
//    the EBR retire every freed folio goes through.

#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/lru_hash_map.h"
#include "src/bpf/map.h"
#include "src/bpf/ringbuf.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/registry.h"
#include "src/harness/env.h"
#include "src/lsm/db.h"
#include "src/lsm/memtable.h"
#include "src/mm/xarray.h"
#include "src/util/ebr.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/workloads/distributions.h"
#include "src/workloads/kv_workload.h"

namespace cache_ext {
namespace {

// --- Registry (per-event overhead: one insert + one remove per residency,
// one contains per eviction candidate) ---------------------------------------

void BM_RegistryInsertRemove(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  Folio folio;
  for (auto _ : state) {
    registry.Insert(&folio);
    registry.Remove(&folio);
  }
}
BENCHMARK(BM_RegistryInsertRemove);

void BM_RegistryContains(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.Contains(folios[i++ % folios.size()].get()));
  }
}
BENCHMARK(BM_RegistryContains);

// What hook dispatch pays instead of BM_RegistryContains: the page cache
// hands hooks a pinned folio, resolved through its registry owner slot.
void BM_RegistryFindTrusted(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.FindTrusted(folios[i++ % folios.size()].get()));
  }
}
BENCHMARK(BM_RegistryFindTrusted);

// --- Eviction-list kfuncs ----------------------------------------------------

void BM_ListAddDel(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  Folio folio;
  registry.Insert(&folio);
  for (auto _ : state) {
    benchmark::DoNotOptimize(api.ListAdd(list, &folio, true).ok());
    benchmark::DoNotOptimize(api.ListDel(&folio).ok());
  }
}
BENCHMARK(BM_ListAddDel);

void BM_ListMoveToHead(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 1024; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
    (void)api.ListAdd(list, folios.back().get(), true);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        api.ListMove(list, folios[i++ % folios.size()].get(), false).ok());
  }
}
BENCHMARK(BM_ListMoveToHead);

// One 512-folio batch-scoring pass (LFU's eviction walk) per iteration over
// a list of `nr_folios`, rotating scanned folios to the tail. `shuffled`
// links the folios in random order rather than allocation order.
void ListIterateScore512(benchmark::State& state, int nr_folios,
                         bool shuffled) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < nr_folios; ++i) {
    folios.push_back(std::make_unique<Folio>());
    folios.back()->index = static_cast<uint64_t>(i);
    registry.Insert(folios.back().get());
  }
  std::vector<Folio*> order;
  for (auto& folio : folios) {
    order.push_back(folio.get());
  }
  if (shuffled) {
    Rng rng(11);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextU64Below(i + 1)]);
    }
  }
  for (Folio* folio : order) {
    (void)api.ListAdd(list, folio, true);
  }
  const auto iterate_once = [&] {
    EvictionCtx ctx;
    ctx.nr_candidates_requested = 32;
    IterOpts opts;
    opts.nr_scan = 512;
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    benchmark::DoNotOptimize(
        api.ListIterateScore(list, opts, &ctx, [](Folio* folio) {
             return static_cast<int64_t>(folio->index);
           })
            .ok());
  };
  // Warm the eviction arena: the first call sizes it for this scan batch.
  iterate_once();
  const uint64_t warm_alloc_bytes = api.ArenaStats().alloc_bytes;
  for (auto _ : state) {
    iterate_once();
  }
  const EvictionArenaStats arena = api.ArenaStats();
  const uint64_t steady_alloc = arena.alloc_bytes - warm_alloc_bytes;
  // The zero-alloc claim, asserted rather than eyeballed: once the arena is
  // warm, score batches must reuse it.
  CHECK(steady_alloc == 0);
  state.counters["alloc_bytes_per_op"] = benchmark::Counter(
      static_cast<double>(steady_alloc),
      benchmark::Counter::kAvgIterations);
  state.counters["arena_capacity_bytes"] =
      static_cast<double>(arena.capacity);
}

// 1024 folios linked in allocation order: the whole list stays in L1/L2.
void BM_ListIterateScore512(benchmark::State& state) {
  ListIterateScore512(state, 1024, /*shuffled=*/false);
}
BENCHMARK(BM_ListIterateScore512);

// 64Ki folios (about 13 MiB of folios and list nodes, more than L2) linked
// in shuffled order: each scanned folio is likely a miss on its node and
// on the folio, as in a workload's eviction batch, where the walk competes
// with the read path for the caches.
void BM_ListIterateScore512Cold(benchmark::State& state) {
  ListIterateScore512(state, 1 << 16, /*shuffled=*/true);
}
BENCHMARK(BM_ListIterateScore512Cold);

// --- bpf primitives ------------------------------------------------------------

void BM_BpfHashMapUpdateLookup(benchmark::State& state) {
  bpf::HashMap<uint64_t, uint64_t> map(1 << 16);
  uint64_t key = 0;
  for (auto _ : state) {
    map.Update(key & 0xFFF, key);
    benchmark::DoNotOptimize(map.Lookup(key & 0xFFF));
    ++key;
  }
}
BENCHMARK(BM_BpfHashMapUpdateLookup);

// The folio-local storage counterpart of BM_BpfHashMapUpdateLookup: the
// same per-event resolution through the folio's storage slot.
void BM_FolioLocalStorageLookup(benchmark::State& state) {
  bpf::FolioLocalStorage<uint64_t> map(8192);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    uint64_t* v = map.GetOrCreate(folios.back().get());
    CHECK(v != nullptr);
    *v = i;
  }
  size_t i = 0;
  for (auto _ : state) {
    uint64_t* v = map.Lookup(folios[i++ % folios.size()].get());
    if (v != nullptr) {
      benchmark::DoNotOptimize(++*v);
    }
  }
  const bpf::FolioLocalStorageStats stats = map.Stats();
  state.counters["slot_hits"] = static_cast<double>(stats.slot_hits);
  state.counters["fallback_lookups"] =
      static_cast<double>(stats.fallback_lookups);
}
BENCHMARK(BM_FolioLocalStorageLookup);

void BM_BpfLruHashUpdate(benchmark::State& state) {
  bpf::LruHashMap<uint64_t, uint64_t> map(4096);
  uint64_t key = 0;
  for (auto _ : state) {
    map.Update(key++, 1);  // wraps: constant eviction pressure
  }
}
BENCHMARK(BM_BpfLruHashUpdate);

void BM_RingBufOutput(benchmark::State& state) {
  bpf::RingBuf ringbuf(1 << 20);
  uint64_t value = 0;
  uint64_t produced = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ringbuf.OutputValue(value++));
    if (++produced % 4096 == 0) {
      ringbuf.Consume([](std::span<const uint8_t>) {});
    }
  }
}
BENCHMARK(BM_RingBufOutput);

// --- xarray ---------------------------------------------------------------------

void BM_XArrayStoreLoad(benchmark::State& state) {
  XArray xa;
  Rng rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t index = (i++ * 2654435761u) % (1 << 20);
    xa.Store(index, XEntry::FromValue(i));
    benchmark::DoNotOptimize(xa.Load(index));
  }
}
BENCHMARK(BM_XArrayStoreLoad);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v = v * 1664525 + 1013904223);
  }
}
BENCHMARK(BM_HistogramRecord);

// --- end-to-end cached read path -------------------------------------------------

// Random 4 KiB hits on 2048 resident pages. The file is sparse (Truncate)
// unless `written`, when every page holds bytes on the device.
void CachedReadPath(benchmark::State& state, bool with_noop,
                    bool written = false) {
  harness::Env env;
  MemCgroup* cg = env.CreateCgroup("/micro", 4096 * kPageSize);
  if (with_noop) {
    auto agent = env.AttachPolicy(cg, "noop", {});
    CHECK(agent.ok());
  }
  auto as = env.cache().OpenFile("/micro_file");
  CHECK(as.ok());
  CHECK(env.disk().Truncate((*as)->file(), 2048 * kPageSize).ok());
  if (written) {
    std::vector<uint8_t> bytes(2048 * kPageSize);
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    CHECK(env.disk().WriteAt((*as)->file(), 0, bytes).ok());
  }
  Lane lane(0, TaskContext{1, 1}, 3);
  std::vector<uint8_t> buf(kPageSize);
  // Populate.
  for (uint64_t i = 0; i < 2048; ++i) {
    CHECK(env.cache()
              .Read(lane, *as, cg, i * kPageSize, std::span<uint8_t>(buf))
              .ok());
  }
  Rng rng(5);
  for (auto _ : state) {
    CHECK(env.cache()
              .Read(lane, *as, cg, rng.NextU64Below(2048) * kPageSize,
                    std::span<uint8_t>(buf))
              .ok());
  }
}

void BM_CachedReadDefault(benchmark::State& state) {
  CachedReadPath(state, false);
}
BENCHMARK(BM_CachedReadDefault);

void BM_CachedReadNoopPolicy(benchmark::State& state) {
  CachedReadPath(state, true);
}
BENCHMARK(BM_CachedReadNoopPolicy);

void BM_CachedReadWrittenPages(benchmark::State& state) {
  CachedReadPath(state, false, /*written=*/true);
}
BENCHMARK(BM_CachedReadWrittenPages);

// --- LSM write side (kv_update_zipf's flushes and compactions) ---------------

constexpr uint64_t kKvKeys = 20000;
constexpr uint32_t kKvValueBytes = 2048;

// `n` keys drawn from the scrambled Zipfian YCSB uses, so the timed loop
// does not pay for the generator.
std::vector<std::string> ZipfKeys(size_t n, uint64_t seed) {
  workloads::ScrambledZipfianGenerator zipf(kKvKeys);
  Rng rng(seed);
  std::vector<std::string> keys(n);
  for (std::string& key : keys) {
    key = workloads::KvGenerator::KeyFor(zipf.Next(rng));
  }
  return keys;
}

// One memtable Put of a 2 KiB value, starting a fresh memtable every 4 MiB
// as a flush does.
void BM_MemtablePut2K(benchmark::State& state) {
  const std::vector<std::string> keys = ZipfKeys(1 << 16, 11);
  const std::string value(kKvValueBytes, 'v');
  lsm::MemTable memtable;
  size_t i = 0;
  for (auto _ : state) {
    memtable.Put(keys[i++ & (keys.size() - 1)], value);
    if (memtable.ApproximateBytes() >= (4 << 20)) {
      memtable.Reset();
    }
  }
}
BENCHMARK(BM_MemtablePut2K);

// One store for every iteration and repetition of a benchmark. Each
// iteration starts an empty DB on it after deleting the tables the last one
// wrote, with the timer paused, so the device does not grow and the
// allocator settles into the steady state a long-running store sees instead
// of faulting in fresh pages for every new store.
class WriteSideStore {
 public:
  WriteSideStore() : cg_(env_.CreateCgroup("/write_side", 64 << 20)) {
    // Keep freed memory in the process. Every iteration frees and regrows
    // MiB-sized table buffers and device files; left to its defaults,
    // glibc hands some of them back to the kernel depending on its
    // allocation history, and the timed flush then pays a page fault per
    // page, which swamps the copies being measured.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  }

  lsm::LsmDb& Reset(const lsm::DbOptions& options) {
    db_.reset();
    for (const std::string& name : env_.disk().ListFiles()) {
      auto as = env_.cache().OpenFile(name);
      CHECK(as.ok());
      CHECK(env_.cache().DeleteFile(lane_, *as).ok());
    }
    db_ = std::make_unique<lsm::LsmDb>(&env_.cache(), cg_, "micro", options);
    return *db_;
  }

  // Puts 2 KiB values under the next `n` keys of `keys`, from `*next` on.
  void Fill(const std::vector<std::string>& keys, size_t* next, size_t n) {
    const std::string value(kKvValueBytes, 'v');
    for (size_t i = 0; i < n; ++i) {
      CHECK(db_->Put(lane_, keys[(*next)++], value).ok());
    }
  }

  // Flushes the DB, timed; call with the timer paused. Adds the minor page
  // faults the flush took to `*faults`, which shows that the timed region
  // is not paying for memory the allocator handed back to the kernel.
  void TimedFlush(benchmark::State& state, int64_t* faults) {
    const int64_t before = MinorFaults();
    state.ResumeTiming();
    CHECK(db_->Flush(lane_).ok());
    state.PauseTiming();
    *faults += MinorFaults() - before;
    state.ResumeTiming();
  }

  Lane& lane() { return lane_; }

 private:
  static int64_t MinorFaults() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  }

  harness::Env env_;
  MemCgroup* cg_;
  Lane lane_{0, TaskContext{1, 1}, 1};
  std::unique_ptr<lsm::LsmDb> db_;
};

// Distinct keys in Zipfian first-touch order: spread over the whole key
// space, so tables filled from consecutive runs of them overlap.
std::vector<std::string> DistinctZipfKeys(size_t n) {
  std::vector<std::string> keys;
  std::vector<bool> seen(kKvKeys, false);
  workloads::ScrambledZipfianGenerator zipf(kKvKeys);
  Rng rng(13);
  while (keys.size() < n) {
    const uint64_t k = zipf.Next(rng);
    if (!seen[k]) {
      seen[k] = true;
      keys.push_back(workloads::KvGenerator::KeyFor(k));
    }
  }
  return keys;
}

// Memtable Puts that make `bytes` as the DB counts them (key + value + 32).
constexpr size_t PutsFor(uint64_t bytes) {
  return bytes / (16 + kKvValueBytes + 32);
}

// One flush of a 4 MiB memtable of 2 KiB values into an L0 table, through
// the page cache and an fsync to the device.
void BM_FlushMemtable4MiB(benchmark::State& state) {
  const std::vector<std::string> keys = DistinctZipfKeys(PutsFor(4 << 20));
  lsm::DbOptions options;
  options.memtable_bytes = 64 << 20;  // flushed by hand
  static WriteSideStore store;
  int64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    store.Reset(options);
    size_t next = 0;
    store.Fill(keys, &next, keys.size());
    store.TimedFlush(state, &faults);
  }
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FlushMemtable4MiB)->Unit(benchmark::kMillisecond);

// Four overlapping 1 MiB L0 tables merged into L1. The timed Flush writes
// the fourth table and runs the compaction it triggers; that flush costs
// about a quarter of BM_FlushMemtable4MiB.
void BM_CompactL0(benchmark::State& state) {
  lsm::DbOptions options;
  options.memtable_bytes = 64 << 20;  // flushed by hand
  const size_t per_table = PutsFor(1 << 20);
  const std::vector<std::string> keys =
      DistinctZipfKeys(per_table * options.l0_compaction_trigger);
  static WriteSideStore store;
  int64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    lsm::LsmDb& db = store.Reset(options);
    size_t next = 0;
    for (int table = 1; table < options.l0_compaction_trigger; ++table) {
      store.Fill(keys, &next, per_table);
      CHECK(db.Flush(store.lane()).ok());
    }
    store.Fill(keys, &next, per_table);
    store.TimedFlush(state, &faults);
    CHECK(db.compactions_run() == 1);
  }
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CompactL0)->Unit(benchmark::kMillisecond);

// ebr::Retire with no reader inside a guard, so the object is freed before
// Retire returns: the path every folio freed by eviction or file deletion
// takes.
void BM_EbrRetireQuiescent(benchmark::State& state) {
  int object = 0;
  for (auto _ : state) {
    ebr::Retire(&object, [](void* p) { benchmark::DoNotOptimize(p); });
  }
}
BENCHMARK(BM_EbrRetireQuiescent);

}  // namespace
}  // namespace cache_ext

BENCHMARK_MAIN();
