// Antagonist bench for background reclaim (src/reclaim): a latency-sensitive
// tenant shares one contended SSD with a scan-heavy antagonist whose
// sequential working set never fits, so both cgroups sit at their limits and
// every miss allocates under memory pressure.
//
// Two arms, same workload:
//   inline      — the `reclaim.background = false` ablation: the allocating
//                 task pays the eviction batch (candidate scoring + folio
//                 removal) before its own miss I/O, kernel direct-reclaim
//                 style.
//   background  — watermark-driven reclaimer lanes keep `high` headroom
//                 ahead of allocations; eviction time lands on the cgroup's
//                 reclaimer lane (ext_background_reclaim_ns), not on the
//                 miss path.
//
// Reported: p99/p999 miss latency of the latency-sensitive tenant per arm,
// plus the reclaim counter split. Emits bench-smoke points
// `lat_miss_p99_{inline,bg}` / `lat_miss_p999_{inline,bg}` for
// tools/check.sh --bench-smoke, and `--check` enforces the acceptance bound
// that background reclaim does not worsen the p99 (it should improve it:
// the eviction batch disappears from the miss path).
//
// Flags: --quick, --out PATH, --baseline PATH, --threshold F, --check.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"
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

// Latency-sensitive tenant: hot set fits the cgroup, the uniform tail does
// not, so it runs a steady miss rate under its own reclaim pressure.
constexpr uint64_t kLatFilePages = 1024;
constexpr uint64_t kLatCgroupPages = 192;
constexpr uint64_t kLatHotPages = 96;
// Antagonist: sequential scan over a file 16x its cgroup — pure reclaim
// churn plus SSD queue pressure.
constexpr uint64_t kScanFilePages = 4096;
constexpr uint64_t kScanCgroupPages = 256;

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 131 + 17) & 0xFF);
}

struct Tenant {
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
};

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::unique_ptr<CacheExtLoader> loader;
  Tenant lat;
  Tenant scan;
};

void LoadFile(Rig& rig, AddressSpace* as, uint64_t pages) {
  CHECK(rig.disk.Truncate(as->file(), pages * kPageSize).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    std::fill(page.begin(), page.end(), PatternByte(p));
    CHECK(rig.disk
              .WriteAt(as->file(), p * kPageSize,
                       std::span<const uint8_t>(page))
              .ok());
  }
}

std::unique_ptr<Rig> MakeRig(bool background) {
  auto rig = std::make_unique<Rig>();
  // One shared device, slow enough that miss queueing matters (scaled-down
  // version of the paper's single SSD under many client threads).
  SsdModelOptions ssd_options;
  ssd_options.channels = 2;
  ssd_options.read_latency_ns = 30 * 1000;
  ssd_options.write_latency_ns = 20 * 1000;
  ssd_options.bytes_per_us = 400;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);

  PageCacheOptions options;
  options.reclaim.background = background;
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);
  rig->loader = std::make_unique<CacheExtLoader>(rig->pc.get());

  rig->lat.cg =
      rig->pc->CreateCgroup("/lat", kLatCgroupPages * kPageSize);
  rig->scan.cg =
      rig->pc->CreateCgroup("/scan", kScanCgroupPages * kPageSize);
  auto lat_as = rig->pc->OpenFile("/lat_data");
  auto scan_as = rig->pc->OpenFile("/scan_data");
  CHECK(lat_as.ok() && scan_as.ok());
  rig->lat.as = *lat_as;
  rig->scan.as = *scan_as;
  LoadFile(*rig, rig->lat.as, kLatFilePages);
  LoadFile(*rig, rig->scan.as, kScanFilePages);

  // The latency tenant runs LFU (the paper's best YCSB policy) through the
  // full ext dispatch path; the antagonist stays on the base policy.
  policies::PolicyParams params;
  params.capacity_pages = rig->lat.cg->limit_pages();
  auto bundle = policies::MakePolicy("lfu", params);
  CHECK(bundle.ok());
  CHECK(rig->loader
            ->Attach(rig->lat.cg, std::move(bundle->ops),
                     rig->pc->options().costs)
            .ok());
  return rig;
}

struct ArmPoint {
  double p99_us = 0;
  double p999_us = 0;
  uint64_t misses = 0;
  double hit_rate = 0;
  CgroupCacheStats lat_stats;
};

double PercentileUs(std::vector<uint64_t>& ns, double pct) {
  if (ns.empty()) {
    return 0;
  }
  std::sort(ns.begin(), ns.end());
  const size_t idx = std::min(
      ns.size() - 1,
      static_cast<size_t>(pct * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]) / 1000.0;
}

ArmPoint RunArm(bool background, uint64_t lat_ops) {
  auto rig = MakeRig(background);
  Lane lat_lane(1, TaskContext{100, 100}, 23);
  Lane scan_lane(2, TaskContext{200, 200}, 29);

  std::vector<uint8_t> buf(kPageSize);
  const auto read_page = [&](Lane& lane, Tenant& tenant, uint64_t page) {
    CHECK(rig->pc
              ->Read(lane, tenant.as, tenant.cg, page * kPageSize,
                     std::span<uint8_t>(buf))
              .ok());
    CHECK(buf[0] == PatternByte(page));
  };

  std::vector<uint64_t> miss_ns;
  miss_ns.reserve(lat_ops / 2);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  uint64_t scan_pos = 0;
  uint64_t done = 0;
  while (done < lat_ops) {
    // Min-virtual-clock interleave: the tenant whose lane clock is behind
    // issues next, so the two streams overlap in virtual time and contend
    // for the same device channels.
    if (scan_lane.now_ns() < lat_lane.now_ns()) {
      read_page(scan_lane, rig->scan, scan_pos);
      scan_pos = (scan_pos + 1) % kScanFilePages;
      continue;
    }
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t roll = (state >> 33) % 100;
    const uint64_t raw = state >> 17;
    const uint64_t page =
        roll < 75 ? raw % kLatHotPages : raw % kLatFilePages;
    const uint64_t misses_before = rig->lat.cg->stat_misses.load();
    const uint64_t t0 = lat_lane.now_ns();
    read_page(lat_lane, rig->lat, page);
    if (rig->lat.cg->stat_misses.load() != misses_before) {
      miss_ns.push_back(lat_lane.now_ns() - t0);
    }
    ++done;
  }

  ArmPoint point;
  point.misses = miss_ns.size();
  point.hit_rate = rig->lat.cg->HitRate();
  point.p999_us = PercentileUs(miss_ns, 0.999);
  point.p99_us = PercentileUs(miss_ns, 0.99);
  point.lat_stats = rig->pc->StatsFor(rig->lat.cg);
  return point;
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
  const uint64_t lat_ops = opts.quick ? 4000 : 12000;

  const ArmPoint inline_arm = RunArm(/*background=*/false, lat_ops);
  const ArmPoint bg_arm = RunArm(/*background=*/true, lat_ops);

  harness::Table table(
      "Background reclaim vs inline under a scan antagonist "
      "(latency tenant miss latency)",
      {"arm", "miss p99", "miss p999", "misses", "hit rate",
       "direct reclaim", "bg reclaim"});
  const auto row = [&](const char* name, const ArmPoint& p) {
    table.AddRow({name, harness::FormatDouble(p.p99_us, 1) + " us",
                  harness::FormatDouble(p.p999_us, 1) + " us",
                  harness::FormatCount(p.misses),
                  harness::FormatPercent(p.hit_rate),
                  harness::FormatNs(p.lat_stats.ext_direct_reclaim_ns),
                  harness::FormatNs(p.lat_stats.ext_background_reclaim_ns)});
  };
  row("inline", inline_arm);
  row("background", bg_arm);
  table.Print();

  std::vector<std::pair<std::string, ArmResult>> counter_rows;
  ArmResult inline_result;
  inline_result.cache_stats = inline_arm.lat_stats;
  ArmResult bg_result;
  bg_result.cache_stats = bg_arm.lat_stats;
  counter_rows.emplace_back("inline", inline_result);
  counter_rows.emplace_back("background", bg_result);
  PrintCounters("Reclaim counters (latency tenant)", counter_rows,
                kReclaimCounterColumns);

  const std::vector<BenchPoint> bench_points = {
      {"lat_miss_p99_inline", inline_arm.p99_us * 1000.0},
      {"lat_miss_p999_inline", inline_arm.p999_us * 1000.0},
      {"lat_miss_p99_bg", bg_arm.p99_us * 1000.0},
      {"lat_miss_p999_bg", bg_arm.p999_us * 1000.0},
  };

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "reclaim", bench_points)) {
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
      std::fprintf(stderr, "bench_reclaim: %d regression(s)\n", regressions);
      return 1;
    }
  }
  if (opts.check) {
    // Acceptance bound (ISSUE 7): moving reclaim off the allocation path
    // must not worsen the latency tenant's p99 miss latency, and with a
    // healthy daemon the background arm must actually run in background
    // (background batches observed, direct stall only via the bounded
    // emergency path).
    const bool p99_ok = bg_arm.p99_us <= inline_arm.p99_us;
    const bool bg_ran = bg_arm.lat_stats.reclaim_background_batches > 0;
    std::printf("check: bg p99 %.1f us vs inline p99 %.1f us (%s), "
                "bg batches %llu (%s)\n",
                bg_arm.p99_us, inline_arm.p99_us,
                p99_ok ? "ok" : "WORSE",
                static_cast<unsigned long long>(
                    bg_arm.lat_stats.reclaim_background_batches),
                bg_ran ? "ok" : "NONE");
    if (!p99_ok || !bg_ran) {
      std::fprintf(stderr, "bench_reclaim: acceptance check failed\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) { return cache_ext::bench::Main(argc, argv); }
