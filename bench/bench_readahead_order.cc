// Readahead + multi-order folio admission bench (DESIGN.md §10: the
// readahead and admit_order hooks).
//
// Two workloads, two policy arms, 1 and 8 lanes:
//
//   streaming  — cold cache; each lane reads its own file sequentially,
//                page by page. Misses dominate, so the win comes from the
//                miss path: the policy's readahead window covers whole
//                order-4 spans, each span is one folio allocation, one
//                charge, and one contiguous device read instead of sixteen.
//                A file per lane, not a segment of one shared file, keeps
//                one lane's readahead from faulting in another lane's pages.
//   random-KV  — fully-resident file (preloaded through the same policy,
//                so the order-4 arm holds order-4 folios); one real thread
//                per lane reads random single pages. 100% hits — this
//                measures the per-hit cost of sibling resolution on the
//                lockless read path, which must not regress vs order-0.
//
// Arms differ ONLY in the admit_order answer (0 vs 4); both attach the
// same fixed 16-page readahead window, so the folio order is the isolated
// variable. Every virtual number is deterministic: streaming lanes take
// turns by virtual clock (RunStream), and a hit charges only its own lane.
//
// Emits bench-smoke points `<wl>_<arm>_<K>t` (aggregate virtual ns/op) for
// tools/check.sh --bench-smoke; `--check` enforces the acceptance bars:
// streaming order-4 >= 1.3x order-0 throughput (1t) and random-KV order-4
// <= 1.05x order-0 ns/op (1t).
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
  std::vector<AddressSpace*> files;
  uint64_t base_ns = 0;  // virtual time after preload; lanes start here
};

// `nr_files` files of `file_pages` pages each.
std::unique_ptr<Rig> MakeRig(uint32_t order, int nr_files,
                             uint64_t file_pages, bool preload) {
  auto rig = std::make_unique<Rig>();
  const uint64_t total_pages = file_pages * static_cast<uint64_t>(nr_files);
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
  options.max_readahead_pages = 64;  // clamp far above the policy window
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());
  // Limit far above residency: no reclaim in either workload phase.
  rig->cg = rig->pc->CreateCgroup("/bench", 4 * total_pages * kPageSize);
  std::vector<uint8_t> page(kPageSize);
  for (int f = 0; f < nr_files; ++f) {
    auto as = rig->pc->OpenFile("/data" + std::to_string(f));
    CHECK(as.ok());
    rig->files.push_back(*as);
    CHECK(rig->disk.Truncate((*as)->file(), file_pages * kPageSize).ok());
    for (uint64_t p = 0; p < file_pages; ++p) {
      std::fill(page.begin(), page.end(), PatternByte(p));
      CHECK(rig->disk
                .WriteAt((*as)->file(), p * kPageSize,
                         std::span<const uint8_t>(page))
                .ok());
    }
  }
  CHECK(rig->loader
            ->Attach(rig->cg, ArmOps(order == 0 ? "order0" : "order4", order))
            .ok());
  if (preload) {
    // One sequential pass faults every page in through the attached policy,
    // so the order-4 arm is resident as order-4 folios.
    Lane lane(0, TaskContext{1, 1}, 7);
    std::vector<uint8_t> buf(kPageSize);
    for (AddressSpace* as : rig->files) {
      for (uint64_t p = 0; p < file_pages; ++p) {
        CHECK(rig->pc
                  ->Read(lane, as, rig->cg, p * kPageSize,
                         std::span<uint8_t>(buf))
                  .ok());
      }
      CHECK(as->nr_resident() >= file_pages);
    }
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

// Streaming: cold cache, K lanes each read their own file of
// file_pages / K pages front to back, one page per op. The lanes take turns
// on one OS thread, the lane with the smallest virtual clock first (the
// harness's rule, src/harness/runner.h): the device queues requests in
// arrival order, so lanes on real threads would make the device queueing,
// and with it every virtual number, depend on thread timing.
Point RunStream(uint32_t order, int nr_lanes, uint64_t file_pages) {
  const uint64_t seg = file_pages / static_cast<uint64_t>(nr_lanes);
  auto rig = MakeRig(order, nr_lanes, seg, /*preload=*/false);
  std::vector<Lane> lanes;
  for (int t = 0; t < nr_lanes; ++t) {
    lanes.emplace_back(static_cast<uint32_t>(t),
                       TaskContext{100 + t, 100 + t},
                       17 + static_cast<uint64_t>(t));
  }
  std::vector<uint64_t> next_page(lanes.size(), 0);
  std::vector<uint8_t> buf(kPageSize);
  const auto wall_start = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < seg * lanes.size(); ++op) {
    size_t t = lanes.size();
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (next_page[i] < seg &&
          (t == lanes.size() || lanes[i].now_ns() < lanes[t].now_ns())) {
        t = i;
      }
    }
    const uint64_t p = next_page[t]++;
    if (!rig->pc
             ->Read(lanes[t], rig->files[t], rig->cg, p * kPageSize,
                    std::span<uint8_t>(buf))
             .ok() ||
        buf[0] != PatternByte(p)) {
      std::fprintf(stderr, "bench: streaming read failed or wrong bytes\n");
      std::exit(1);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  std::vector<uint64_t> lane_ns;
  for (const Lane& lane : lanes) {
    lane_ns.push_back(lane.now_ns());
  }
  return Finish("stream_order" + std::to_string(order) + "_" +
                    std::to_string(nr_lanes) + "t",
                *rig, seg * lanes.size(), lane_ns, wall_s);
}

// Random-KV: fully-resident file, random single-page reads (100% hits).
Point RunRandom(uint32_t order, int nr_threads, uint64_t file_pages,
                uint64_t ops_per_thread) {
  auto rig = MakeRig(order, 1, file_pages, /*preload=*/true);
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
                 ->Read(lane, rig->files[0], rig->cg, page * kPageSize,
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
                    std::to_string(nr_threads) + "t",
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
      points.push_back(RunRandom(order, k, file_pages, rand_ops));
    }
  }

  harness::Table table(
      "Readahead + multi-order admission: streaming (cold misses) and "
      "random-KV (resident hits), order-4 vs order-0",
      {"point", "ns/op (virtual)", "hit rate", "tput (virtual)",
       "tput (wall)"});
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
  std::printf(
      "order-4 vs order-0 streaming tput (virtual): %.2fx @1t, %.2fx @8t; "
      "random-KV 1t ns/op ratio (virtual): %.3f\n",
      stream_1t, stream_8t, rand_1t);
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
