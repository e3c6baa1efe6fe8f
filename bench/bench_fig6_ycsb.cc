// Figure 6: YCSB workload results — throughput and P99 read latency for the
// kernel default, native MGLRU, and the cache_ext policies (FIFO, MRU, LFU,
// S3-FIFO, LHD) across YCSB A-F plus Uniform and Uniform-RW on the LSM
// key-value store.
//
// Paper shape to reproduce: LFU performs best on the Zipfian workloads (up
// to +37% throughput, up to -55% P99 vs default), LHD tracks LFU closely,
// S3-FIFO beats the Linux policies, FIFO lands between MGLRU and default,
// MRU is the worst, and MGLRU does not beat the default.

#include <cstdio>

#include "bench/bench_common.h"

namespace cache_ext::bench {
namespace {

void RunFig6() {
  using workloads::YcsbWorkload;
  const YcsbWorkload workloads_list[] = {
      YcsbWorkload::kA,       YcsbWorkload::kB,       YcsbWorkload::kC,
      YcsbWorkload::kD,       YcsbWorkload::kE,       YcsbWorkload::kF,
      YcsbWorkload::kUniform, YcsbWorkload::kUniformRW};

  std::printf("Figure 6: YCSB throughput and P99 read latency per policy\n");
  std::printf("(DB:cgroup = 10:1 as in the paper; absolute values are\n");
  std::printf(" simulator-scale, compare shapes not magnitudes)\n");

  for (const YcsbWorkload workload : workloads_list) {
    harness::Table table(
        std::string("Fig. 6 — ") +
            std::string(workloads::YcsbWorkloadName(workload)),
        {"policy", "throughput", "P99 read", "hit rate", "vs default"});
    double default_throughput = 0;
    for (const auto policy : Fig6Policies()) {
      const ArmResult arm = RunYcsbArm(policy, workload);
      // YCSB-E is scan-dominated: count scans + point ops as "operations".
      const double throughput =
          arm.run.throughput_ops + arm.run.scan_throughput_ops;
      if (policy == "default") {
        default_throughput = throughput;
      }
      const double relative =
          default_throughput > 0 ? throughput / default_throughput : 0;
      table.AddRow({std::string(policy),
                    harness::FormatOps(throughput),
                    harness::FormatNs(arm.run.p99_ns),
                    harness::FormatPercent(arm.run.hit_rate),
                    harness::FormatDouble(relative, 2) + "x"});
    }
    table.Print();
  }
}

// Background-reclaim ablation (not part of the paper's Figure 6): rerun a
// read-heavy Zipfian workload with reclaim moved off the allocation path
// (`reclaim.background=true`) and compare against the inline default. The
// expectation is that throughput holds while P99 improves, because misses
// no longer pay the eviction batch before their own I/O.
void RunReclaimAblation() {
  using workloads::YcsbWorkload;
  harness::Table table("Fig. 6 addendum — background-reclaim ablation "
                       "(YCSB-B, inline vs background reclaim)",
                       {"arm", "throughput", "P99 read", "hit rate",
                        "direct reclaim", "bg reclaim"});
  std::vector<std::pair<std::string, ArmResult>> arms;
  for (const auto policy : {std::string_view("default"),
                            std::string_view("lfu")}) {
    for (const bool background : {false, true}) {
      YcsbBenchConfig config;
      config.background_reclaim = background;
      const ArmResult arm = RunYcsbArm(policy, YcsbWorkload::kB, config);
      const std::string label =
          std::string(policy) + (background ? "/background" : "/inline");
      table.AddRow({label, harness::FormatOps(arm.run.throughput_ops),
                    harness::FormatNs(arm.run.p99_ns),
                    harness::FormatPercent(arm.run.hit_rate),
                    harness::FormatNs(arm.cache_stats.ext_direct_reclaim_ns),
                    harness::FormatNs(
                        arm.cache_stats.ext_background_reclaim_ns)});
      arms.emplace_back(label, arm);
    }
  }
  table.Print();
  PrintCounters("Reclaim counters (ablation arms)", arms,
                kReclaimCounterColumns);
}

}  // namespace
}  // namespace cache_ext::bench

int main() {
  cache_ext::bench::RunFig6();
  cache_ext::bench::RunReclaimAblation();
  return 0;
}
