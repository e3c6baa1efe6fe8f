// Writeback ablation bench (ISSUE 9): the async batched flusher pipeline
// vs the inline ablation, on the two workloads where dirty/writeback
// dynamics dominate (arXiv 2101.01335). Each writer owns its own cgroup —
// the kernel's memcg writeback-domain model — so every writer has its own
// flusher lane and writeback parallelism scales with the writers.
//
//   fsync storm — N writer lanes each dirty a contiguous 96-page batch in
//                 their own file (with app compute between page writes),
//                 then fsync, repeatedly. Inline
//                 (`writeback.background = false`): every fsync pays the
//                 full writeback CPU charge for the whole batch plus the
//                 device submission. Async: the cgroup's flusher lane
//                 harvests dirty folios as the batch crosses the
//                 background threshold, coalesces them into extents and
//                 submits them early — the flush CPU and device time
//                 overlap the writer's own compute, and the fsync drains
//                 a mostly-clean file.
//   write-heavy — YCSB-A-style update stream: aligned 16 KiB updates
//                 uniform over a file 4x the cgroup at steady
//                 dirty-eviction pressure, with a commit fsync every 64
//                 ops. Inline: reclaim pays `writeback_page_ns` on the
//                 writer lane for every dirty victim, and each commit
//                 rewrites the whole accumulated dirty set. Async:
//                 victims are pre-cleaned or handed to the flusher lane,
//                 and commits drain a residual bounded by the background
//                 ratio.
//
// Both workloads run at 1 and 8 lanes (min-virtual-clock interleave, same
// scheme as bench_reclaim). Reported: fsync p99 and aggregate write
// ns/op per arm, plus the writeback counter split including the live
// dirty-page gauge. Emits bench-smoke points for tools/check.sh
// --bench-smoke; `--check` enforces the ISSUE 9 acceptance bounds:
// >= 1.3x async-vs-inline on both metrics at 8 lanes, <= 1.05x
// single-lane regression, and the async arm must actually run its
// flusher in the background.
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

// fsync storm: the per-writer cgroup (256 pages -> background threshold 25
// at the default 102/1024 ratio) is crossed early in every 96-page batch,
// so the flusher trails the writer through the batch; the file fits the
// cgroup so the storm isolates the flush path from reclaim. The 1 us of
// app compute between page writes is what the async flusher overlaps.
constexpr uint64_t kStormFilePages = 128;
constexpr uint64_t kStormBatch = 96;
constexpr uint64_t kStormCgroupPages = 256;
constexpr uint64_t kStormThinkNs = 1000;

// write-heavy: aligned 16 KiB (4-page) updates uniform over a file 4x the
// cgroup, so ~3/4 of the touched pages miss, every miss-insert evicts a
// dirty victim unless the flusher cleaned it first, and the commit fsync
// every 64 ops meets either a whole window's dirty set (inline) or the
// background-ratio residual (async).
constexpr uint64_t kWriteFilePages = 1024;
constexpr uint64_t kWriteCgroupPages = 256;
constexpr uint64_t kWriteOpPages = 4;
constexpr uint64_t kWriteCommitEvery = 64;

// One writer = one cgroup + one file: a per-writer writeback domain.
struct Domain {
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
};

struct Rig {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::vector<Domain> domains;
};

std::unique_ptr<Rig> MakeRig(bool background, uint64_t cgroup_pages,
                             int nr_domains, uint64_t file_pages) {
  auto rig = std::make_unique<Rig>();
  // Shared device: a fast NVMe-class SSD (4 channels, 20 GB/s aggregate)
  // so the 8-lane storm stays below device saturation — the arms then
  // differ by where the writeback CPU lands and how much of the device
  // wait overlaps the writers' own compute, not by raw device capacity
  // (which is identical in both arms).
  SsdModelOptions ssd_options;
  ssd_options.channels = 4;
  ssd_options.read_latency_ns = 30 * 1000;
  ssd_options.write_latency_ns = 20 * 1000;
  ssd_options.bytes_per_us = 20000;
  rig->ssd = std::make_unique<SsdModel>(ssd_options);

  PageCacheOptions options;
  options.writeback.background = background;
  rig->pc = std::make_unique<PageCache>(&rig->disk, rig->ssd.get(), options);

  for (int i = 0; i < nr_domains; ++i) {
    Domain d;
    d.cg = rig->pc->CreateCgroup("/wb" + std::to_string(i),
                                 cgroup_pages * kPageSize);
    auto as = rig->pc->OpenFile("/wb_data" + std::to_string(i));
    CHECK(as.ok());
    CHECK(rig->disk.Truncate((*as)->file(), file_pages * kPageSize).ok());
    d.as = *as;
    rig->domains.push_back(d);
  }
  return rig;
}

void WritePages(Rig& rig, Lane& lane, Domain& d, uint64_t page,
                uint64_t nr_pages) {
  uint8_t buf[4 * kPageSize];
  CHECK(nr_pages * kPageSize <= sizeof(buf));
  std::memset(buf, static_cast<int>(0x40 + (page & 0x3F)),
              static_cast<size_t>(nr_pages * kPageSize));
  CHECK(rig.pc
            ->Write(lane, d.as, d.cg, page * kPageSize,
                    std::span<const uint8_t>(buf, nr_pages * kPageSize))
            .ok());
}

struct ArmPoint {
  double fsync_p99_us = 0;
  double write_ns_per_op = 0;
  CgroupCacheStats stats;  // writer 0's domain
};

double PercentileUs(std::vector<uint64_t>& ns, double pct) {
  if (ns.empty()) {
    return 0;
  }
  std::sort(ns.begin(), ns.end());
  const size_t idx = std::min(
      ns.size() - 1, static_cast<size_t>(pct * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]) / 1000.0;
}

// fsync storm at `lanes` writers; returns the p99 over every fsync issued
// by every lane, plus writer 0's writeback counters at the end.
ArmPoint RunStorm(bool background, int lanes, uint64_t rounds) {
  auto rig = MakeRig(background, kStormCgroupPages, lanes, kStormFilePages);

  struct Writer {
    std::unique_ptr<Lane> lane;
    Domain* d = nullptr;
    uint64_t round = 0;
    uint64_t in_batch = 0;
  };
  std::vector<Writer> writers(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    writers[static_cast<size_t>(i)].lane = std::make_unique<Lane>(
        static_cast<uint32_t>(1 + i), TaskContext{100 + i, 100 + i},
        static_cast<uint64_t>(23 + i));
    writers[static_cast<size_t>(i)].d = &rig->domains[static_cast<size_t>(i)];
  }

  std::vector<uint64_t> fsync_ns;
  fsync_ns.reserve(static_cast<size_t>(lanes) * rounds);
  for (;;) {
    // Min-virtual-clock interleave: the writer whose lane clock is behind
    // issues next, so the lanes' batches accumulate concurrently in
    // virtual time and their device traffic shares the same channels.
    Writer* next = nullptr;
    for (auto& w : writers) {
      if (w.round >= rounds) {
        continue;
      }
      if (next == nullptr || w.lane->now_ns() < next->lane->now_ns()) {
        next = &w;
      }
    }
    if (next == nullptr) {
      break;
    }
    if (next->in_batch < kStormBatch) {
      WritePages(*rig, *next->lane, *next->d, next->in_batch, 1);
      next->lane->Charge(kStormThinkNs);  // app compute between writes
      ++next->in_batch;
    } else {
      const uint64_t t0 = next->lane->now_ns();
      CHECK(rig->pc->SyncFile(*next->lane, next->d->as).ok());
      fsync_ns.push_back(next->lane->now_ns() - t0);
      next->in_batch = 0;
      ++next->round;
    }
  }

  ArmPoint point;
  point.fsync_p99_us = PercentileUs(fsync_ns, 0.99);
  point.stats = rig->pc->StatsFor(rig->domains[0].cg);
  return point;
}

// Write-heavy throughput at `lanes` writers, one domain each; returns
// aggregate virtual ns per update op, commits included (makespan / ops).
ArmPoint RunWriteHeavy(bool background, int lanes, uint64_t ops_per_lane) {
  auto rig = MakeRig(background, kWriteCgroupPages, lanes, kWriteFilePages);

  struct Writer {
    std::unique_ptr<Lane> lane;
    Domain* d = nullptr;
    uint64_t state = 0;
    uint64_t done = 0;
  };
  std::vector<Writer> writers(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    writers[static_cast<size_t>(i)].lane = std::make_unique<Lane>(
        static_cast<uint32_t>(1 + i), TaskContext{200 + i, 200 + i},
        static_cast<uint64_t>(41 + i));
    writers[static_cast<size_t>(i)].d = &rig->domains[static_cast<size_t>(i)];
    writers[static_cast<size_t>(i)].state =
        0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
  }

  for (;;) {
    Writer* next = nullptr;
    for (auto& w : writers) {
      if (w.done >= ops_per_lane) {
        continue;
      }
      if (next == nullptr || w.lane->now_ns() < next->lane->now_ns()) {
        next = &w;
      }
    }
    if (next == nullptr) {
      break;
    }
    next->state =
        next->state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t block =
        (next->state >> 17) % (kWriteFilePages / kWriteOpPages);
    WritePages(*rig, *next->lane, *next->d, block * kWriteOpPages,
               kWriteOpPages);
    ++next->done;
    if (next->done % kWriteCommitEvery == 0) {
      CHECK(rig->pc->SyncFile(*next->lane, next->d->as).ok());
    }
  }

  uint64_t makespan = 0;
  for (auto& w : writers) {
    makespan = std::max(makespan, w.lane->now_ns());
  }
  ArmPoint point;
  point.write_ns_per_op =
      static_cast<double>(makespan) /
      static_cast<double>(static_cast<uint64_t>(lanes) * ops_per_lane);
  // Snapshot before any final sync: `dirty_pages` in the counter table is
  // the live mid-window dirty set (a whole commit window inline, bounded
  // by the background ratio when the flusher is on).
  point.stats = rig->pc->StatsFor(rig->domains[0].cg);
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
  const uint64_t storm_rounds = opts.quick ? 6 : 20;
  const uint64_t write_ops = opts.quick ? 2000 : 8000;

  const ArmPoint storm_inline_1 = RunStorm(false, 1, storm_rounds);
  const ArmPoint storm_async_1 = RunStorm(true, 1, storm_rounds);
  const ArmPoint storm_inline_8 = RunStorm(false, 8, storm_rounds);
  const ArmPoint storm_async_8 = RunStorm(true, 8, storm_rounds);
  const ArmPoint write_inline_1 = RunWriteHeavy(false, 1, write_ops);
  const ArmPoint write_async_1 = RunWriteHeavy(true, 1, write_ops);
  const ArmPoint write_inline_8 = RunWriteHeavy(false, 8, write_ops);
  const ArmPoint write_async_8 = RunWriteHeavy(true, 8, write_ops);

  harness::Table table("Async batched writeback vs inline ablation",
                       {"workload", "lanes", "inline", "async", "speedup"});
  const auto speedup = [](double inl, double async_v) {
    return async_v == 0 ? 0.0 : inl / async_v;
  };
  const auto storm_row = [&](const char* lanes, const ArmPoint& inl,
                             const ArmPoint& as) {
    table.AddRow({"fsync storm p99", lanes,
                  harness::FormatDouble(inl.fsync_p99_us, 1) + " us",
                  harness::FormatDouble(as.fsync_p99_us, 1) + " us",
                  harness::FormatDouble(
                      speedup(inl.fsync_p99_us, as.fsync_p99_us), 2) +
                      "x"});
  };
  const auto write_row = [&](const char* lanes, const ArmPoint& inl,
                             const ArmPoint& as) {
    table.AddRow({"write-heavy ns/op", lanes,
                  harness::FormatDouble(inl.write_ns_per_op, 0) + " ns",
                  harness::FormatDouble(as.write_ns_per_op, 0) + " ns",
                  harness::FormatDouble(
                      speedup(inl.write_ns_per_op, as.write_ns_per_op), 2) +
                      "x"});
  };
  storm_row("1", storm_inline_1, storm_async_1);
  storm_row("8", storm_inline_8, storm_async_8);
  write_row("1", write_inline_1, write_async_1);
  write_row("8", write_inline_8, write_async_8);
  table.Print();

  std::vector<std::pair<std::string, ArmResult>> counter_rows;
  const auto add_counters = [&](const char* label, const ArmPoint& p) {
    ArmResult result;
    result.cache_stats = p.stats;
    counter_rows.emplace_back(label, result);
  };
  add_counters("storm inline x8", storm_inline_8);
  add_counters("storm async x8", storm_async_8);
  add_counters("write inline x8", write_inline_8);
  add_counters("write async x8", write_async_8);
  PrintCounters("Writeback counters (8-lane arms, writer 0's domain)",
                counter_rows,
                {"dirty_pages", "writeback_wakeups", "writeback_flush_ticks",
                 "writeback_extents", "writeback_deferred_pages",
                 "writeback_throttle_entries", "ext_dirty_throttle_ns",
                 "ext_writeback_ns", "writeback_sync_entries"});

  const std::vector<BenchPoint> bench_points = {
      {"fsync_p99_inline_1", storm_inline_1.fsync_p99_us * 1000.0},
      {"fsync_p99_async_1", storm_async_1.fsync_p99_us * 1000.0},
      {"fsync_p99_inline_8", storm_inline_8.fsync_p99_us * 1000.0},
      {"fsync_p99_async_8", storm_async_8.fsync_p99_us * 1000.0},
      {"write_op_inline_1", write_inline_1.write_ns_per_op},
      {"write_op_async_1", write_async_1.write_ns_per_op},
      {"write_op_inline_8", write_inline_8.write_ns_per_op},
      {"write_op_async_8", write_async_8.write_ns_per_op},
  };

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "writeback", bench_points)) {
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
      std::fprintf(stderr, "bench_writeback: %d regression(s)\n", regressions);
      return 1;
    }
  }
  if (opts.check) {
    // Acceptance (ISSUE 9): >= 1.3x async-vs-inline at 8 lanes on both
    // the fsync-storm p99 and the write-heavy throughput; at most 5%
    // single-lane regression; and the async arm must actually have run its
    // flusher in the background (ticks observed, writeback CPU accounted
    // to the flusher lane, not a writer).
    const double storm8 =
        speedup(storm_inline_8.fsync_p99_us, storm_async_8.fsync_p99_us);
    const double write8 =
        speedup(write_inline_8.write_ns_per_op, write_async_8.write_ns_per_op);
    const bool storm8_ok = storm8 >= 1.3;
    const bool write8_ok = write8 >= 1.3;
    const bool parity_ok =
        storm_async_1.fsync_p99_us <= storm_inline_1.fsync_p99_us * 1.05 &&
        write_async_1.write_ns_per_op <= write_inline_1.write_ns_per_op * 1.05;
    const bool flusher_ran = storm_async_8.stats.writeback_flush_ticks > 0 &&
                             storm_async_8.stats.ext_writeback_ns > 0 &&
                             write_async_8.stats.writeback_flush_ticks > 0;
    const bool inline_untouched =
        storm_inline_8.stats.writeback_flush_ticks == 0 &&
        storm_inline_8.stats.writeback_wakeups == 0;
    std::printf(
        "check: storm x8 %.2fx (%s), write x8 %.2fx (%s), "
        "single-lane parity (%s), async flusher ran (%s), "
        "inline arm stayed inline (%s)\n",
        storm8, storm8_ok ? "ok" : "BELOW 1.3x", write8,
        write8_ok ? "ok" : "BELOW 1.3x", parity_ok ? "ok" : "REGRESSED",
        flusher_ran ? "ok" : "NO", inline_untouched ? "ok" : "NO");
    if (!storm8_ok || !write8_ok || !parity_ok || !flusher_ran ||
        !inline_untouched) {
      std::fprintf(stderr, "bench_writeback: acceptance check failed\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) { return cache_ext::bench::Main(argc, argv); }
