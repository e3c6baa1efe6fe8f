// MT read-scaling bench for the lockless read-side page cache (DESIGN.md
// "Concurrency model": EBR + lock-free xarray hit path).
//
// Setup: one fully-resident 512-page file, one cgroup whose limit is far
// above residency (no reclaim — every measured op is a hit). K real
// std::threads (K = 1/2/4/8) issue random single-page reads against the
// shared mapping, so every hit races every other hit on the SAME mapping
// stripe. Hits run under an ebr::Guard with a speculative TryPin and never
// touch the stripe.
//
// Reported per K, each column naming its clock: per-thread hit ns/op and
// aggregate throughput (total ops / makespan) in virtual time, which are
// deterministic; wall-clock throughput as the median and min–max of 5
// trials (3 with --quick), running the K values in alternating order
// between trials; and the lockless hit-path counters. Wall numbers are not
// gated. Emits bench-smoke points `lockless_<K>t` (aggregate virtual
// ns/op) for tools/check.sh --bench-smoke; a trial whose virtual numbers
// differ from the first trial's fails the run.
//
// Flags: --quick, --out PATH, --baseline PATH, --threshold F.

#include <algorithm>
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
#include "src/pagecache/page_cache.h"
#include "src/sim/sim_disk.h"
#include "src/sim/ssd_model.h"

namespace cache_ext::bench {
namespace {

struct Options {
  bool quick = false;
  const char* out = nullptr;
  const char* baseline = nullptr;
  double threshold = 0.15;
};

constexpr uint64_t kFilePages = 512;

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 37 + 11) & 0xFF);
}

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
  uint64_t base_ns = 0;  // virtual time after preload; lanes start here
};

std::unique_ptr<Rig> MakeRig() {
  auto rig = std::make_unique<Rig>();
  SsdModelOptions ssd_options;
  ssd_options.read_latency_ns = 1000;
  ssd_options.write_latency_ns = 1000;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get());
  // Limit far above residency: the cache never reclaims, so the measured
  // phase is 100% hits.
  rig->cg = rig->pc->CreateCgroup("/bench", 4 * kFilePages * kPageSize);
  auto as = rig->pc->OpenFile("/data");
  CHECK(as.ok());
  rig->as = *as;
  CHECK(rig->disk.Truncate(rig->as->file(), kFilePages * kPageSize).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < kFilePages; ++p) {
    std::fill(page.begin(), page.end(), PatternByte(p));
    CHECK(rig->disk
              .WriteAt(rig->as->file(), p * kPageSize,
                       std::span<const uint8_t>(page))
              .ok());
  }
  // Preload: one sequential pass faults every page in; the measured lanes
  // then start from the preload lane's finish time so their clocks never
  // run behind the device frontier.
  Lane preload(0, TaskContext{1, 1}, 7);
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t p = 0; p < kFilePages; ++p) {
    CHECK(rig->pc
              ->Read(preload, rig->as, rig->cg, p * kPageSize,
                     std::span<uint8_t>(buf))
              .ok());
  }
  // Readahead may run past EOF, so residency can exceed the file size; the
  // measured range [0, kFilePages) must be fully resident either way.
  CHECK(rig->as->nr_resident() >= kFilePages);
  rig->base_ns = preload.now_ns();
  return rig;
}

// One trial at one K.
struct Point {
  int threads = 0;
  double hit_ns_per_op = 0;        // per-thread virtual ns per hit op
  double aggregate_ns_per_op = 0;  // makespan / total ops (virtual)
  double virtual_tput = 0;         // total ops / makespan, ops/s (virtual)
  double wall_tput = 0;            // total ops / wall time, ops/s
  CgroupCacheStats stats;
};

Point RunPoint(int nr_threads, uint64_t ops_per_thread) {
  auto rig = MakeRig();
  std::vector<uint64_t> lane_ns(static_cast<size_t>(nr_threads), 0);
  std::atomic<bool> ok{true};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < nr_threads; ++t) {
    workers.emplace_back([&rig, &lane_ns, &ok, t, ops_per_thread] {
      Lane lane(static_cast<uint32_t>(t), TaskContext{100 + t, 100 + t},
                17 + static_cast<uint64_t>(t));
      lane.AdvanceTo(rig->base_ns);
      std::vector<uint8_t> buf(kPageSize);
      uint64_t state = 0xabcdef12345 + static_cast<uint64_t>(t) * 977;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t page = (state >> 33) % kFilePages;
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
    std::fprintf(stderr, "bench: read failed or returned wrong bytes\n");
    std::exit(1);
  }

  uint64_t makespan = 0;
  for (uint64_t ns : lane_ns) {
    makespan = std::max(makespan, ns);
  }
  const double total_ops =
      static_cast<double>(ops_per_thread) * nr_threads;
  Point point;
  point.threads = nr_threads;
  point.hit_ns_per_op =
      static_cast<double>(makespan) / static_cast<double>(ops_per_thread);
  point.aggregate_ns_per_op = static_cast<double>(makespan) / total_ops;
  point.virtual_tput =
      makespan == 0 ? 0 : total_ops / (static_cast<double>(makespan) * 1e-9);
  point.wall_tput = wall_s == 0 ? 0 : total_ops / wall_s;
  point.stats = rig->pc->StatsFor(rig->cg);
  return point;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opts.baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      opts.threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--baseline PATH] "
                   "[--threshold F]\n",
                   argv[0]);
      return 2;
    }
  }
  const uint64_t ops_per_thread = opts.quick ? 10000 : 40000;
  const int trials = opts.quick ? 3 : 5;
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  // points[i] is the first trial at thread_counts[i]; later trials only add
  // wall samples, after checking that the virtual numbers repeat exactly.
  std::vector<Point> points(thread_counts.size());
  std::vector<std::vector<double>> wall(thread_counts.size());
  for (int trial = 0; trial < trials; ++trial) {
    for (size_t n = 0; n < thread_counts.size(); ++n) {
      const size_t i = trial % 2 == 0 ? n : thread_counts.size() - 1 - n;
      const Point p = RunPoint(thread_counts[i], ops_per_thread);
      if (trial == 0) {
        points[i] = p;
      } else if (p.aggregate_ns_per_op != points[i].aggregate_ns_per_op ||
                 p.hit_ns_per_op != points[i].hit_ns_per_op) {
        std::fprintf(stderr,
                     "bench_lockless_reads: virtual ns/op at %dt moved "
                     "between trials (%.3f vs %.3f)\n",
                     p.threads, p.aggregate_ns_per_op,
                     points[i].aggregate_ns_per_op);
        return 1;
      }
      wall[i].push_back(p.wall_tput);
    }
  }

  harness::Table table(
      "Lockless read scaling: K threads, one shared resident file "
      "(100% hits, same mapping stripe), " +
          std::to_string(trials) + " trials",
      {"threads", "hit ns/op (virtual)", "aggregate tput (virtual)",
       "tput (wall, median)", "tput (wall, min-max op/s)"});
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<double>& w = wall[i];
    std::sort(w.begin(), w.end());
    table.AddRow({std::to_string(points[i].threads),
                  harness::FormatDouble(points[i].hit_ns_per_op, 1),
                  harness::FormatOps(points[i].virtual_tput),
                  harness::FormatOps(w[w.size() / 2]),
                  harness::FormatCount(static_cast<uint64_t>(w.front())) +
                      "-" +
                      harness::FormatCount(static_cast<uint64_t>(w.back()))});
  }
  table.Print();

  std::vector<std::pair<std::string, ArmResult>> counter_rows;
  std::vector<BenchPoint> bench_points;
  for (const Point& p : points) {
    const std::string name = "lockless_" + std::to_string(p.threads) + "t";
    ArmResult arm;
    arm.cache_stats = p.stats;
    counter_rows.emplace_back(name, arm);
    bench_points.push_back(BenchPoint{name, p.aggregate_ns_per_op});
  }
  PrintCounters("Hit-path counters (lockless lookups / retries)",
                counter_rows, kHotPathCounterColumns);

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "lockless_reads", bench_points)) {
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
      std::fprintf(stderr, "bench_lockless_reads: %d regression(s)\n",
                   regressions);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) { return cache_ext::bench::Main(argc, argv); }
