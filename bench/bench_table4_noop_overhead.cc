// Table 4: baseline CPU overhead of the cache_ext framework — fio-style
// randread with a NO-OP cache_ext policy vs the default Linux policy —
// plus the real-policy hot-path cost (lfu/lhd/s3fifo), which is what the
// folio-local-storage work moves.
//
// Unlike the macro benches (virtual time), this is a real CPU
// microbenchmark: we measure actual wall-clock CPU per page-cache read op
// with each policy attached. The no-op policy maintains all cache_ext
// data structures (registry inserts/removals, hook dispatch, program
// invocation) but defers every decision to the default policy, isolating
// framework overhead exactly as §6.3.2 does.
//
// Paper rows (µCPU per I/O): 5 GiB 234.80 -> 236.51 (+0.72%), 10 GiB
// 217.48 -> 221.14 (+1.66%), 30 GiB 197.67 -> 198.01 (+0.17%).
//
// Flags:
//   --quick               one trial, fewer ops, middle row only
//   --out PATH            write measured points as baseline JSON
//   --baseline PATH       compare against a baseline; exit 1 on regression
//   --threshold F         regression threshold (default 0.15 = +15%)
//   --no-local-storage    force folio-local-storage maps into their hash
//                         fallback (the pre-local-storage hot path); use
//                         this to generate "before" baselines
//   --ir-backend=B        B in {interp, jit}: backend for the IR policies
//                         (ir_fifo/ir_lfu) in the table run — the
//                         interpreter-vs-JIT ablation
//   --ir-bench            IR dispatch microbenchmark instead of the table:
//                         per-hook ns/op for ir_fifo/ir_lfu folio_accessed
//                         on both backends, plus an 8-thread shared-runtime
//                         point (per-thread CPU ns/op — wall time cannot
//                         scale on a 1-CPU container, lock-free dispatch
//                         shows up as flat per-thread CPU instead)
//   --check               with --ir-bench: assert the acceptance criteria
//                         (JIT >= 3x interp on both policies, >= 4x
//                         effective scaling at 8 threads)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/bpf/ir/compile.h"
#include "src/bpf/ir/interp.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/verifier/ir_verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"
#include "src/mm/folio_storage.h"
#include "src/policies/ir_policies.h"
#include "src/workloads/fio.h"

namespace cache_ext::bench {
namespace {

struct Options {
  bool quick = false;
  const char* out = nullptr;
  const char* baseline = nullptr;
  double threshold = 0.15;
  bool no_local_storage = false;
  bool ir_bench = false;
  bool check = false;
};

// One trial: randread over a file 3x the cgroup size, 8 lanes, measuring
// real ns of CPU per operation with `policy` attached ("default" = no ext
// policy). Fills `stats_out` with the cgroup's counters after the run.
double MeasureOnce(uint64_t cgroup_pages, const std::string& policy,
                   uint64_t measure_ops, CgroupCacheStats* stats_out) {
  harness::Env env;
  MemCgroup* cg = env.CreateCgroup("/fio", cgroup_pages * kPageSize);
  std::shared_ptr<policies::UserspaceAgent> agent;
  if (!harness::IsBaselinePolicy(policy)) {
    auto attached = env.AttachPolicy(cg, policy, {});
    CHECK(attached.ok());
    agent = *attached;
  }
  workloads::FioConfig fio_config;
  fio_config.file_pages = cgroup_pages * 3;
  auto fio = workloads::FioRandRead::Create(&env.cache(), fio_config);
  CHECK(fio.ok());

  constexpr int kLanes = 8;
  std::vector<Lane> lanes;
  for (int i = 0; i < kLanes; ++i) {
    lanes.emplace_back(static_cast<uint32_t>(i), TaskContext{50, 50 + i},
                       0xF10 + static_cast<uint64_t>(i));
  }

  const auto step = [&](uint64_t i) {
    CHECK(fio->Step(lanes[i % kLanes], cg).ok());
    if (agent != nullptr && (i & 0xFFF) == 0) {
      agent->Poll();  // LHD reconfigures from userspace
    }
  };

  // Warm up: populate the cache to steady state.
  const uint64_t warmup_ops = cgroup_pages * 2;
  for (uint64_t i = 0; i < warmup_ops; ++i) {
    step(i);
  }

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < measure_ops; ++i) {
    step(i);
  }
  const auto end = std::chrono::steady_clock::now();
  if (stats_out != nullptr) {
    *stats_out = env.cache().StatsFor(cg);
  }
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(measure_ops);
}

double MeasureNsPerOp(uint64_t cgroup_pages, const std::string& policy,
                      const Options& opts, CgroupCacheStats* stats_out) {
  const uint64_t measure_ops = opts.quick ? 60000 : 200000;
  const int trials = opts.quick ? 1 : 3;
  std::vector<double> samples(static_cast<size_t>(trials));
  for (double& trial : samples) {
    trial = MeasureOnce(cgroup_pages, policy, measure_ops, stats_out);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// ---- IR dispatch microbenchmark (--ir-bench) ---------------------------
//
// Measures raw hook dispatch: runtime->Execute(kFolioAccessed) in a tight
// loop over a resident folio set, interpreter vs JIT, per policy. This is
// the number the JIT work targets (the table above measures the whole
// read path, where dispatch is a small slice). Thread CPU time is used
// throughout so the 8-thread point is meaningful on a 1-CPU container:
// lock-free dispatch keeps per-thread CPU per op flat as threads are
// added; a serializing runtime would burn the extra CPU spinning.

double ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

constexpr int kIrFolios = 128;  // power of two, resident in L1/L2

struct IrBenchRig {
  AddressSpace mapping{1, 1, "irbench"};
  FolioRegistry registry{4096};
  CacheExtApi api{&registry};
  std::vector<std::unique_ptr<Folio>> folios;
  std::shared_ptr<bpf::ir::IrRuntime> interp;      // oracle backend
  std::shared_ptr<bpf::ir::IrRuntime> jit_interp;  // JIT's fallback oracle
  std::unique_ptr<bpf::jit::JitRuntime> jit;
};

std::unique_ptr<IrBenchRig> MakeIrRig(const std::string& policy_name) {
  bpf::ir::IrPolicy policy = policy_name == "ir_fifo"
                                 ? policies::IrFifoPolicy()
                                 : policies::IrLfuPolicy({});
  bpf::verifier::VerifierLog log;
  auto analysis = bpf::verifier::AnalyzeIrPolicy(policy, &log);
  CHECK(analysis.ok());
  auto rig = std::make_unique<IrBenchRig>();
  for (int i = 0; i < kIrFolios; ++i) {
    rig->folios.push_back(std::make_unique<Folio>());
    rig->folios.back()->mapping = &rig->mapping;
    rig->folios.back()->index = static_cast<uint64_t>(i) * 17;
    rig->registry.Insert(rig->folios.back().get());
  }
  rig->interp = std::make_shared<bpf::ir::IrRuntime>(policy);
  rig->jit_interp = std::make_shared<bpf::ir::IrRuntime>(policy);
  rig->jit =
      std::make_unique<bpf::jit::JitRuntime>(rig->jit_interp, *analysis);
  // Bring both backends to the same steady state: lists created, every
  // folio admitted (so ir_lfu's accessed hook measures the hit path).
  rig->interp->Execute(bpf::verifier::Hook::kPolicyInit, rig->api, {});
  rig->jit->Execute(bpf::verifier::Hook::kPolicyInit, rig->api, {});
  for (auto& folio : rig->folios) {
    bpf::ir::HookCtx hctx;
    hctx.folio = folio.get();
    rig->interp->Execute(bpf::verifier::Hook::kFolioAdded, rig->api, hctx);
    rig->jit->Execute(bpf::verifier::Hook::kFolioAdded, rig->api, hctx);
  }
  return rig;
}

// One timed pass of `iters` accessed-hook dispatches through `exec`.
template <typename ExecFn>
double DispatchPassNs(IrBenchRig& rig, ExecFn&& exec, uint64_t iters,
                      int lane) {
  int64_t sink = 0;
  const uint64_t base = static_cast<uint64_t>(lane) * 16;
  const double start = ThreadCpuNs();
  for (uint64_t i = 0; i < iters; ++i) {
    bpf::ir::HookCtx hctx;
    // Lane-disjoint folio subsets so MT threads probe different shards,
    // the access pattern the sharded map is built for.
    hctx.folio = rig.folios[(base + i) & (kIrFolios - 1)].get();
    sink += exec(rig.api, hctx);
  }
  const double end = ThreadCpuNs();
  if (sink == 0x7fffffff) {
    std::printf("(unreachable sink %lld)\n", static_cast<long long>(sink));
  }
  return (end - start) / static_cast<double>(iters);
}

template <typename ExecFn>
double MeasureDispatchNs(IrBenchRig& rig, ExecFn&& exec, const Options& opts) {
  const uint64_t iters = opts.quick ? 500000 : 2000000;
  const int trials = opts.quick ? 2 : 5;
  std::vector<double> samples;
  DispatchPassNs(rig, exec, iters / 4, 0);  // warm up caches + branch state
  for (int t = 0; t < trials; ++t) {
    samples.push_back(DispatchPassNs(rig, exec, iters, 0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Per-thread CPU ns/op with `nr_threads` dispatching concurrently against
// ONE shared JitRuntime (the per-cgroup attach shape: shared maps, shared
// compiled programs, per-invocation register state).
double MeasureMtDispatchNs(IrBenchRig& rig, int nr_threads,
                           const Options& opts) {
  const uint64_t iters = opts.quick ? 250000 : 1000000;
  std::vector<double> per_thread(static_cast<size_t>(nr_threads), 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < nr_threads; ++t) {
    threads.emplace_back([&rig, &per_thread, iters, t] {
      per_thread[static_cast<size_t>(t)] = DispatchPassNs(
          rig,
          [&rig](CacheExtApi& api, const bpf::ir::HookCtx& hctx) {
            return rig.jit->Execute(bpf::verifier::Hook::kFolioAccessed, api,
                                    hctx);
          },
          iters, t);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  double total = 0.0;
  for (double ns : per_thread) {
    total += ns;
  }
  return total / static_cast<double>(nr_threads);
}

int RunIrBench(const Options& opts) {
  std::printf("IR hook dispatch: interpreter vs JIT (ns per "
              "folio_accessed dispatch, thread CPU time)\n");
  std::vector<BenchPoint> points;
  harness::Table table("IR dispatch ns/op",
                       {"policy", "interp", "jit", "interp/jit"});
  double worst_ratio = 1e9;
  for (const char* policy : {"ir_fifo", "ir_lfu"}) {
    auto rig = MakeIrRig(policy);
    const double interp_ns = MeasureDispatchNs(
        *rig,
        [&rig](CacheExtApi& api, const bpf::ir::HookCtx& hctx) {
          return rig->interp->Execute(bpf::verifier::Hook::kFolioAccessed,
                                      api, hctx);
        },
        opts);
    const double jit_ns = MeasureDispatchNs(
        *rig,
        [&rig](CacheExtApi& api, const bpf::ir::HookCtx& hctx) {
          return rig->jit->Execute(bpf::verifier::Hook::kFolioAccessed, api,
                                   hctx);
        },
        opts);
    const double ratio = interp_ns / jit_ns;
    worst_ratio = std::min(worst_ratio, ratio);
    table.AddRow({policy, harness::FormatDouble(interp_ns, 2) + " ns",
                  harness::FormatDouble(jit_ns, 2) + " ns",
                  harness::FormatDouble(ratio, 2) + "x"});
    points.push_back({std::string(policy) + "_accessed_interp", interp_ns});
    points.push_back({std::string(policy) + "_accessed_jit", jit_ns});
  }
  table.Print();

  // MT point: shared ir_lfu JitRuntime, disjoint folio subsets per thread.
  auto mt_rig = MakeIrRig("ir_lfu");
  const double mt1_ns = MeasureMtDispatchNs(*mt_rig, 1, opts);
  const double mt8_ns = MeasureMtDispatchNs(*mt_rig, 8, opts);
  // Flat per-thread CPU per op == linear effective scaling: 8 threads get
  // 8x the work done per unit CPU. Spin/serialization inflates mt8_ns and
  // collapses this number.
  const double mt_scaling = 8.0 * mt1_ns / mt8_ns;
  harness::Table mt_table("ir_lfu JIT dispatch, shared runtime",
                          {"threads", "per-thread CPU ns/op",
                           "effective scaling"});
  mt_table.AddRow({"1", harness::FormatDouble(mt1_ns, 2) + " ns", "1.00x"});
  mt_table.AddRow({"8", harness::FormatDouble(mt8_ns, 2) + " ns",
                   harness::FormatDouble(mt_scaling, 2) + "x"});
  mt_table.Print();
  points.push_back({"ir_lfu_mt1_cpu", mt1_ns});
  points.push_back({"ir_lfu_mt8_cpu", mt8_ns});

  int failures = 0;
  if (opts.check) {
    if (worst_ratio < 3.0) {
      std::fprintf(stderr,
                   "ir-bench CHECK FAIL: JIT dispatch ratio %.2fx < 3x\n",
                   worst_ratio);
      ++failures;
    }
    if (mt_scaling < 4.0) {
      std::fprintf(stderr,
                   "ir-bench CHECK FAIL: 8-thread effective scaling "
                   "%.2fx < 4x\n",
                   mt_scaling);
      ++failures;
    }
    if (failures == 0) {
      std::printf("ir-bench CHECK OK: worst JIT ratio %.2fx (>= 3x), "
                  "8-thread scaling %.2fx (>= 4x)\n",
                  worst_ratio, mt_scaling);
    }
  }

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "ir_jit", points)) {
      return 1;
    }
    std::printf("wrote %zu points to %s\n", points.size(), opts.out);
  }
  if (opts.baseline != nullptr) {
    std::printf("comparing against %s (threshold +%.0f%%):\n", opts.baseline,
                opts.threshold * 100.0);
    const int regressions =
        CompareWithBaseline(opts.baseline, points, opts.threshold);
    if (regressions != 0) {
      std::fprintf(stderr, "ir-bench: %d regression(s)\n", regressions);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunTable4(const Options& opts) {
  if (opts.no_local_storage) {
    FolioStorageDirectory::Instance().SetSlotsDisabledForTesting(true);
    std::printf("[folio-local storage DISABLED: hash-fallback hot path]\n");
  }
  std::printf("Table 4: cache_ext CPU overhead, fio-style randread\n");
  std::printf("(REAL wall-clock CPU per op; paper reports 0.17%%-1.66%%)\n");
  // Paper: 5/10/30 GiB cgroups; scaled by the same 1/320 factor as the
  // other benches: 16 MiB / 32 MiB / 96 MiB.
  struct Row {
    const char* label;
    uint64_t pages;
  };
  std::vector<Row> rows;
  if (opts.quick) {
    rows.push_back({"32 MiB (10 GiB / 320)", 8192});
  } else {
    rows.push_back({"16 MiB (5 GiB / 320)", 4096});
    rows.push_back({"32 MiB (10 GiB / 320)", 8192});
    rows.push_back({"96 MiB (30 GiB / 320)", 24576});
  }
  // ir_fifo/ir_lfu run through whichever backend --ir-backend selected
  // (JIT by default) — the interpreter-vs-JIT ablation rides this table.
  const std::vector<std::string> policies = {"default", "noop",   "lfu",
                                             "lhd",     "s3fifo", "ir_fifo",
                                             "ir_lfu"};

  std::vector<BenchPoint> points;
  std::vector<std::pair<std::string, ArmResult>> counter_rows;
  harness::Table policy_table(
      "CPU per I/O operation, by policy",
      {"cgroup size", "default", "noop", "lfu", "lhd", "s3fifo", "ir_fifo",
       "ir_lfu"});
  harness::Table overhead_table(
      "Table 4 — no-op overhead vs default",
      {"cgroup size", "default", "cache_ext no-op", "added", "vs sim path",
       "vs kernel path"});
  // Our simulated read hot path costs well under 1 us of real CPU; the
  // kernel's buffered-read path (syscall, VFS, filemap, locking, copyout)
  // costs an order of magnitude more, which is the denominator the paper's
  // 0.17-1.66% rows are measured against. We report the absolute added
  // cost and both relative views.
  constexpr double kKernelReadPathNs = 10000.0;

  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    double base_ns = 0.0;
    double noop_ns = 0.0;
    for (const std::string& policy : policies) {
      CgroupCacheStats stats;
      const double ns = MeasureNsPerOp(row.pages, policy, opts, &stats);
      cells.push_back(harness::FormatDouble(ns, 1) + " ns/op");
      points.push_back(
          {std::to_string(row.pages) + "_" + policy, ns});
      if (policy == "default") {
        base_ns = ns;
      } else if (policy == "noop") {
        noop_ns = ns;
      }
      if (!harness::IsBaselinePolicy(policy) && policy != "noop") {
        ArmResult arm;
        arm.cache_stats = stats;
        counter_rows.emplace_back(
            policy + " @" + std::to_string(row.pages) + "p", arm);
      }
    }
    policy_table.AddRow(cells);
    const double added = noop_ns - base_ns;
    overhead_table.AddRow(
        {row.label, harness::FormatDouble(base_ns, 1) + " ns/op",
         harness::FormatDouble(noop_ns, 1) + " ns/op",
         harness::FormatDouble(added, 1) + " ns",
         harness::FormatDouble(added / base_ns * 100, 2) + "%",
         harness::FormatDouble(added / kKernelReadPathNs * 100, 2) + "%"});
  }
  overhead_table.Print();
  policy_table.Print();
  PrintCounters("Policy hot-path counters (measured phase)", counter_rows,
                kHotPathCounterColumns);

  if (opts.out != nullptr) {
    if (!WriteBenchJson(opts.out, "table4_noop_overhead", points)) {
      return 1;
    }
    std::printf("wrote %zu points to %s\n", points.size(), opts.out);
  }
  if (opts.baseline != nullptr) {
    std::printf("comparing against %s (threshold +%.0f%%):\n", opts.baseline,
                opts.threshold * 100.0);
    const int regressions =
        CompareWithBaseline(opts.baseline, points, opts.threshold);
    if (regressions != 0) {
      std::fprintf(stderr, "bench_table4: %d regression(s)\n", regressions);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) {
  cache_ext::bench::Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opts.baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      opts.threshold = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-local-storage") == 0) {
      opts.no_local_storage = true;
    } else if (std::strcmp(argv[i], "--ir-bench") == 0) {
      opts.ir_bench = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = true;
    } else if (std::strncmp(argv[i], "--ir-backend=", 13) == 0) {
      const char* backend = argv[i] + 13;
      if (std::strcmp(backend, "interp") == 0) {
        cache_ext::bpf::ir::SetDefaultBackend(
            cache_ext::bpf::ir::Backend::kInterp);
      } else if (std::strcmp(backend, "jit") == 0) {
        cache_ext::bpf::ir::SetDefaultBackend(
            cache_ext::bpf::ir::Backend::kJit);
      } else {
        std::fprintf(stderr, "--ir-backend must be interp or jit\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--baseline PATH] "
                   "[--threshold F] [--no-local-storage] "
                   "[--ir-backend={interp,jit}] [--ir-bench] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opts.ir_bench) {
    return cache_ext::bench::RunIrBench(opts);
  }
  return cache_ext::bench::RunTable4(opts);
}
