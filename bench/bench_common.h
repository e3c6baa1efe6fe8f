// Shared configuration and helpers for the paper-reproduction benches.
//
// Every bench regenerates one table or figure from §6 of the paper at a
// scaled-down size (see DESIGN.md: ratios — DB:cgroup, corpus:cgroup — match
// the paper; absolute sizes are ~1/4000th). Numbers are printed in the same
// units and layout as the paper's tables/figures.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/env.h"
#include "src/harness/reporter.h"
#include "src/harness/runner.h"
#include "src/workloads/kv_workload.h"

namespace cache_ext::bench {

// Scaled YCSB setup: the paper uses a 100 GiB database with a 10 GiB cgroup
// (10:1); we keep the ratio. Values are ~half a page so page popularity
// tracks key popularity (the paper's 100M-key/1KB-value regime).
struct YcsbBenchConfig {
  uint64_t record_count = 20000;
  uint32_t value_size = 2048;             // ~42 MiB of data
  uint64_t cgroup_bytes = 4200 * 1024;    // 10:1
  uint64_t ops_per_lane = 5000;
  int lanes = 8;
  // Device sized so that miss traffic contends (the paper's single SSD
  // under 16 client threads): policies with better hit rates see shorter
  // queues, which is where the P99 differences come from.
  SsdModelOptions ssd = ContendedSsd();
  // Ablation knob: when true the cgroup reclaims in the background via the
  // watermark-driven reclaimer lane instead of inline at the allocation
  // site (PageCacheOptions::reclaim.background).
  bool background_reclaim = false;

  static SsdModelOptions ContendedSsd() {
    SsdModelOptions ssd;
    ssd.channels = 4;
    ssd.read_latency_ns = 90 * 1000;
    ssd.write_latency_ns = 40 * 1000;
    ssd.bytes_per_us = 400;
    return ssd;
  }
};

struct ArmResult {
  harness::RunResult run;
  uint64_t disk_read_bytes = 0;
  uint64_t disk_write_bytes = 0;
  CgroupCacheStats cache_stats;
  uint64_t total_ops = 0;
};

// Runs one policy arm of a KV workload in a fresh environment (the paper
// drops caches and restarts between arms).
ArmResult RunYcsbArm(std::string_view policy,
                     workloads::YcsbWorkload workload,
                     const YcsbBenchConfig& config = {});

// Prints one row per arm with the named CgroupCacheStats counters as
// columns (names and units from src/cgroup/memcg_stat.h), each formatted by
// its unit. Exits on a name the table does not have.
void PrintCounters(const std::string& title,
                   const std::vector<std::pair<std::string, ArmResult>>& arms,
                   const std::vector<std::string_view>& names);

// Column sets several benches print.
inline const std::vector<std::string_view> kHotPathCounterColumns = {
    "ext_map_lookups",       "ext_local_storage_hits",
    "ext_evict_alloc_bytes", "ext_evict_arena_reuses",
    "ext_lockless_lookups",  "ext_lockless_retries",
    "ext_ir_jit_compiles",   "ext_ir_jit_ns",
    "ext_ir_interp_fallbacks"};
inline const std::vector<std::string_view> kReclaimCounterColumns = {
    "reclaim_wakeups",            "reclaim_background_batches",
    "reclaim_background_evicted", "ext_background_reclaim_ns",
    "reclaim_direct_entries",     "ext_direct_reclaim_ns",
    "reclaim_emergency_entries",  "reclaim_watchdog_trips",
    "psi_some_ns",                "psi_full_ns"};

// --- bench-smoke baseline plumbing (tools/check.sh --bench-smoke) ---

// One measured scalar, keyed by a stable name ("8192_lfu", "slot_lookup").
struct BenchPoint {
  std::string name;
  double ns_per_op = 0.0;
};

// Writes `{"bench": ..., "points": [{"name": ..., "ns_per_op": ...}]}`.
// Returns false (with a message on stderr) if the file cannot be written.
bool WriteBenchJson(const std::string& path, const std::string& bench,
                    const std::vector<BenchPoint>& points);

// Compares `points` against a baseline previously written by WriteBenchJson.
// A point regresses when ns_per_op exceeds baseline * (1 + threshold).
// Prints one line per point; returns the number of regressions, or -1 if
// the baseline cannot be read or holds no matching points.
int CompareWithBaseline(const std::string& baseline_path,
                        const std::vector<BenchPoint>& points,
                        double threshold);

// The policy sets used across figures.
inline std::vector<std::string_view> Fig6Policies() {
  return {"default", "mglru", "fifo", "mru", "lfu", "s3fifo", "lhd"};
}

inline std::vector<std::string_view> Fig8Policies() {
  return {"default", "mglru", "lfu", "lhd", "s3fifo"};
}

}  // namespace cache_ext::bench

#endif  // BENCH_BENCH_COMMON_H_
