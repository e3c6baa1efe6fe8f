// Readahead + multi-order folio admission bench (DESIGN.md §10: the
// readahead and admit_order hooks).
//
// Two workloads, two policy arms, 1 and 8 threads:
//
//   streaming  — cold cache; each thread reads its own disjoint segment of
//                the file sequentially, page by page. Misses dominate, so
//                the win comes from the miss path: the policy's readahead
//                window covers whole order-4 spans, each span is one folio
//                allocation, one charge, and one contiguous device read
//                instead of sixteen.
//   random-KV  — fully-resident file (preloaded through the same policy,
//                so the order-4 arm holds order-4 folios); threads issue
//                random single-page reads. 100% hits — this measures the
//                per-hit cost of sibling resolution on the lockless read
//                path, which must not regress vs order-0.
//
// Arms differ ONLY in the admit_order answer (0 vs 4); both attach the
// same fixed 16-page readahead window, so the folio order is the isolated
// variable. A `locked` ablation re-runs the 8-thread random points with
// `lockless_reads = false` to show multi-order sibling lookups still ride
// the lock-free hit path.
//
// Emits bench-smoke points `<wl>_<arm>_<K>t[_locked]` (aggregate virtual
// ns/op) for tools/check.sh --bench-smoke; `--check` enforces the PR
// acceptance bars: streaming order-4 >= 1.3x order-0 throughput (1t) and
// random-KV order-4 <= 1.05x order-0 ns/op (1t).
//
// Flags: --quick, --check, --out PATH, --baseline PATH, --threshold F.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/sim/sim_disk.h"
#include "src/sim/ssd_model.h"

namespace cache_ext::bench {
namespace {

struct Options {
  bool quick = false;
  bool check = false;
  const char* out = nullptr;
  const char* baseline = nullptr;
  double threshold = 0.15;
};

constexpr uint32_t kWindowPages = 16;  // one order-4 span per dispatch

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 131 + 29) & 0xFF);
}

// Minimal hook set plus the two PR-8 hooks: a fixed-order admit_order and
// a fixed 16-page readahead window. Both arms run the same dispatch work;
// only the order answer differs.
Ops ArmOps(std::string name, uint32_t order) {
  Ops ops;
  ops.name = std::move(name);
  ops.program_cost_ns = 60;
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  // Eviction stays with the kernel default; the cgroup never reclaims here.
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.readahead = [](CacheExtApi&, const ReadaheadCtx&) -> int64_t {
    return kWindowPages;
  };
  ops.admit_order = [order](CacheExtApi&, const AdmitOrderCtx&) -> uint32_t {
    return order;
  };
  return ops;
}

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::unique_ptr<CacheExtLoader> loader;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
  uint64_t file_pages = 0;
  uint64_t base_ns = 0;  // virtual time after preload; lanes start here
};

std::unique_ptr<Rig> MakeRig(uint32_t order, bool lockless,
                             uint64_t file_pages, bool preload) {
  auto rig = std::make_unique<Rig>();
  rig->file_pages = file_pages;
  // A device where fixed per-request latency dominates transfer time
  // (NVMe-class: fast link, fixed flash-read cost): the regime where one
  // 16-page folio read beats sixteen page reads, and where the per-folio
  // CPU setup cost (miss_setup, charge, hook dispatch) is visible at all.
  SsdModelOptions ssd_options;
  ssd_options.read_latency_ns = 20 * 1000;
  ssd_options.write_latency_ns = 20 * 1000;
  ssd_options.bytes_per_us = 8000;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);
  PageCacheOptions options;
  options.lockless_reads = lockless;
  options.max_readahead_pages = 64;  // clamp far above the policy window
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());
  // Limit far above residency: no reclaim in either workload phase.
  rig->cg = rig->pc->CreateCgroup("/bench", 4 * file_pages * kPageSize);
  auto as = rig->pc->OpenFile("/data");
  CHECK(as.ok());
  rig->as = *as;
  CHECK(rig->disk.Truncate(rig->as->file(), file_pages * kPageSize).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < file_pages; ++p) {
    std::fill(page.begin(), page.end(), PatternByte(p));
    CHECK(rig->disk
              .WriteAt(rig->as->file(), p * kPageSize,
                       std::span<const uint8_t>(page))
              .ok());
  }
  CHECK(rig->loader
            ->Attach(rig->cg, ArmOps(order == 0 ? "order0" : "order4", order))
            .ok());
  if (preload) {
    // One sequential pass faults every page in through the attached policy,
    // so the order-4 arm is resident as order-4 folios.
    Lane lane(0, TaskContext{1, 1}, 7);
    std::vector<uint8_t> buf(kPageSize);
    for (uint64_t p = 0; p < file_pages; ++p) {
      CHECK(rig->pc
                ->Read(lane, rig->as, rig->cg, p * kPageSize,
                       std::span<uint8_t>(buf))
                .ok());
    }
    CHECK(rig->as->nr_resident() >= file_pages);
    rig->base_ns = lane.now_ns();
  }
  return rig;
}

struct Point {
  std::string name;                // e.g. "stream_order4_8t"
  double aggregate_ns_per_op = 0;  // makespan / total ops (virtual)
  double virtual_tput = 0;         // total ops / makespan, ops/s (virtual)
  double wall_tput = 0;
  double hit_rate = 0;  // stat_hits / (stat_hits + stat_misses)
  CgroupCacheStats stats;
};

Point Finish(std::string name, Rig& rig, uint64_t total_ops,
             const std::vector<uint64_t>& lane_ns, double wall_s) {
  uint64_t makespan = 0;
  for (uint64_t ns : lane_ns) makespan = std::max(makespan, ns);
  Point point;
  point.name = std::move(name);
  point.aggregate_ns_per_op =
      static_cast<double>(makespan) / static_cast<double>(total_ops);
  point.virtual_tput =
      makespan == 0
          ? 0
          : static_cast<double>(total_ops) /
                (static_cast<double>(makespan) * 1e-9);
  point.wall_tput =
      wall_s == 0 ? 0 : static_cast<double>(total_ops) / wall_s;
  const double hits = static_cast<double>(rig.cg->stat_hits.load());
  const double misses = static_cast<double>(rig.cg->stat_misses.load());
  point.hit_rate = hits + misses == 0 ? 0 : hits / (hits + misses);
  point.stats = rig.pc->StatsFor(rig.cg);
  return point;
}

// Streaming: cold cache, each thread owns a disjoint segment and reads it
// front to back, one page per op.
Point RunStream(uint32_t order, int nr_threads, uint64_t file_pages) {
  auto rig = MakeRig(order, /*lockless=*/true, file_pages, /*preload=*/false);
  const uint64_t seg =
      file_pages / static_cast<uint64_t>(nr_threads);
  std::vector<uint64_t> lane_ns(static_cast<size_t>(nr_threads), 0);
  std::atomic<bool> ok{true};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < nr_threads; ++t) {
    workers.emplace_back([&rig, &lane_ns, &ok, t, seg] {
      Lane lane(static_cast<uint32_t>(t), TaskContext{100 + t, 100 + t},
                17 + static_cast<uint64_t>(t));
      std::vector<uint8_t> buf(kPageSize);
      const uint64_t first = static_cast<uint64_t>(t) * seg;
      for (uint64_t p = first; p < first + seg; ++p) {
        if (!rig->pc
                 ->Read(lane, rig->as, rig->cg, p * kPageSize,
                        std::span<uint8_t>(buf))
                 .ok() ||
            buf[0] != PatternByte(p)) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
      }
      lane_ns[static_cast<size_t>(t)] = lane.now_ns();
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (!ok.load()) {
    std::fprintf(stderr, "bench: streaming read failed or wrong bytes\n");
    std::exit(1);
  }
  return Finish("stream_order" + std::to_string(order) + "_" +
                    std::to_string(nr_threads) + "t",
                *rig, seg * static_cast<uint64_t>(nr_threads), lane_ns,
                wall_s);
}

// Random-KV: fully-resident file, random single-page reads (100% hits).
Point RunRandom(uint32_t order, int nr_threads, uint64_t file_pages,
                uint64_t ops_per_thread, bool lockless) {
  auto rig = MakeRig(order, lockless, file_pages, /*preload=*/true);
  std::vector<uint64_t> lane_ns(static_cast<size_t>(nr_threads), 0);
  std::atomic<bool> ok{true};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < nr_threads; ++t) {
    workers.emplace_back([&rig, &lane_ns, &ok, t, ops_per_thread,
                          file_pages] {
      Lane lane(static_cast<uint32_t>(t), TaskContext{100 + t, 100 + t},
                17 + static_cast<uint64_t>(t));
      lane.AdvanceTo(rig->base_ns);
      std::vector<uint8_t> buf(kPageSize);
      uint64_t state = 0x9e3779b97f4a7c15 + static_cast<uint64_t>(t) * 977;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t page = (state >> 33) % file_pages;
        if (!rig->pc
                 ->Read(lane, rig->as, rig->cg, page * kPageSize,
                        std::span<uint8_t>(buf))
                 .ok() ||
            buf[0] != PatternByte(page)) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
      }
      lane_ns[static_cast<size_t>(t)] = lane.now_ns() - rig->base_ns;
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (!ok.load()) {
    std::fprintf(stderr, "bench: random read failed or wrong bytes\n");
    std::exit(1);
  }
  return Finish("rand_order" + std::to_string(order) + "_" +
                    std::to_string(nr_threads) + "t" +
                    (lockless ? "" : "_locked"),
                *rig,
                ops_per_thread * static_cast<uint64_t>(nr_threads), lane_ns,
                wall_s);
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opts.baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      opts.threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--check] [--out PATH] "
                   "[--baseline PATH] [--threshold F]\n",
                   argv[0]);
      return 2;
    }
  }
  const uint64_t file_pages = opts.quick ? 2048 : 8192;
  const uint64_t rand_ops = opts.quick ? 8000 : 30000;
  const std::vector<int> thread_counts = {1, 8};

  std::vector<Point> points;
  for (uint32_t order : {0u, 4u}) {
    for (int k : thread_counts) {
      points.push_back(RunStream(order, k, file_pages));
    }
  }
  for (uint32_t order : {0u, 4u}) {
    for (int k : thread_counts) {
      points.push_back(
          RunRandom(order, k, file_pages, rand_ops, /*lockless=*/true));
    }
  }
  // Lockless ablation: 8-thread random hits with the locked hit path.
  for (uint32_t order : {0u, 4u}) {
    points.push_back(
        RunRandom(order, 8, file_pages, rand_ops, /*lockless=*/false));
  }

  harness::Table table(
      "Readahead + multi-order admission: streaming (cold misses) and "
      "random-KV (resident hits), order-4 vs order-0",
      {"point", "ns/op", "hit rate", "tput (virtual)", "tput (wall)"});
  for (const Point& p : points) {
    table.AddRow({p.name, harness::FormatDouble(p.aggregate_ns_per_op, 1),
                  harness::FormatDouble(p.hit_rate * 100.0, 1) + "%",
                  harness::FormatOps(p.virtual_tput),
                  harness::FormatOps(p.wall_tput)});
  }
  table.Print();

  std::vector<std::pair<std::string, ArmResult>> counter_rows;
  for (const Point& p : points) {
    ArmResult arm;
    arm.cache_stats = p.stats;
    counter_rows.emplace_back(p.name, arm);
  }
  PrintCounters("Hit-path counters (lockless lookups / retries)",
                counter_rows, kHotPathCounterColumns);

  PrintCounters("Readahead / multi-order counters", counter_rows,
                {"ext_order_folios", "ext_order_pages", "ext_order_fallbacks",
                 "ext_order_splits", "ext_readahead_clamped"});

  std::vector<BenchPoint> bench_points;
  for (const Point& p : points) {
    bench_points.push_back(BenchPoint{p.name, p.aggregate_ns_per_op});
  }

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "readahead_order", bench_points)) {
      return 1;
    }
    std::printf("wrote %zu points to %s\n", bench_points.size(), opts.out);
  }
  if (opts.baseline != nullptr) {
    std::printf("comparing against %s (threshold +%.0f%%):\n", opts.baseline,
                opts.threshold * 100.0);
    const int regressions =
        CompareWithBaseline(opts.baseline, bench_points, opts.threshold);
    if (regressions != 0) {
      std::fprintf(stderr, "bench_readahead_order: %d regression(s)\n",
                   regressions);
      return 1;
    }
  }

  const auto find = [&](const std::string& name) -> const Point& {
    for (const Point& p : points) {
      if (p.name == name) return p;
    }
    std::abort();
  };
  const double stream_1t = find("stream_order4_1t").virtual_tput /
                           find("stream_order0_1t").virtual_tput;
  const double stream_8t = find("stream_order4_8t").virtual_tput /
                           find("stream_order0_8t").virtual_tput;
  const double rand_1t = find("rand_order4_1t").aggregate_ns_per_op /
                         find("rand_order0_1t").aggregate_ns_per_op;
  const double ablation_8t = find("rand_order4_8t").virtual_tput /
                             find("rand_order4_8t_locked").virtual_tput;
  std::printf(
      "order-4 vs order-0 streaming tput: %.2fx @1t, %.2fx @8t; "
      "random-KV 1t ns/op ratio: %.3f; lockless vs locked @8t: %.2fx\n",
      stream_1t, stream_8t, rand_1t, ablation_8t);
  if (opts.check) {
    // PR acceptance: order-4 streaming >= 1.3x order-0, and multi-order
    // hits must not slow the single-threaded random path by > 5%.
    if (stream_1t < 1.3 || rand_1t > 1.05) {
      std::fprintf(stderr,
                   "bench_readahead_order: acceptance check failed "
                   "(need >=1.3x streaming @1t and <=1.05 random @1t)\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) { return cache_ext::bench::Main(argc, argv); }
