// MT scaling bench: aggregate throughput of K concurrent lane threads
// against one shared page cache, K = 1/2/4/8.
//
// This is the benchmark for the concurrency work (DESIGN.md "Concurrency
// model"): each thread runs a YCSB-C stream against its OWN cgroup and its
// own DB — the sharded-by-design case the kernel optimizes for (per-memcg
// lru_lock, per-mapping xa_lock) — so any throughput lost to the page
// cache's shared structures (mapping stripes, bpf map shards, the device
// model) shows up directly as sublinear scaling. Threads alternate between
// an attached s3fifo ext policy and the native default LRU, so both the
// ext-dispatch path and the base path are exercised concurrently.
//
// Unlike the figure benches (deterministic virtual-clock interleaving), this
// one drives real std::threads. Its aggregate throughput, latency
// percentiles and speedup are virtual-time; only the wall throughput column
// (and `wall_throughput_ops` in the JSON) is real time. Emits
// BENCH_mt_scaling.json.
//
// Flags: --quick (smaller DBs + fewer ops, for CI), --out PATH,
// --policy NAME (every thread attaches NAME instead of the
// s3fifo/default mix — used to prove an IR policy's hook dispatch does
// not serialize the lanes), --check (assert the 8-thread point keeps
// >= 4x virtual aggregate speedup over 1 thread; exit 1 otherwise).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace cache_ext::bench {
namespace {

struct ScalingConfig {
  std::vector<int> thread_counts = {1, 2, 4, 8};
  uint64_t record_count = 8000;  // per-thread DB
  uint32_t value_size = 2048;
  uint64_t cgroup_bytes = 1700 * 1024;  // ~10:1 data:cache per thread
  uint64_t ops_per_thread = 20000;
  // Empty = the default alternating s3fifo/default mix; otherwise every
  // thread attaches this policy ("default" still means no ext policy).
  std::string policy;
};

struct ScalingPoint {
  int threads = 0;
  harness::MtRunResult run;
  double speedup = 0;  // aggregate throughput vs the 1-thread point
};

ScalingPoint RunPoint(const ScalingConfig& config, int nr_threads) {
  harness::EnvOptions env_options;
  env_options.ssd = YcsbBenchConfig::ContendedSsd();
  // Plenty of channels: this bench measures page-cache lock scaling, not
  // device queueing (each thread's misses go to its own virtual clock).
  env_options.ssd.channels = 64;
  harness::Env env(env_options);

  struct PerThread {
    MemCgroup* cg = nullptr;
    std::unique_ptr<lsm::LsmDb> db;
    std::unique_ptr<workloads::YcsbGenerator> generator;
  };
  std::vector<PerThread> threads(static_cast<size_t>(nr_threads));
  for (int i = 0; i < nr_threads; ++i) {
    PerThread& t = threads[static_cast<size_t>(i)];
    const std::string_view policy =
        !config.policy.empty() ? std::string_view(config.policy)
                               : (i % 2 == 0) ? "s3fifo" : "default";
    t.cg = env.CreateCgroup("/bench" + std::to_string(i), config.cgroup_bytes,
                            harness::BaseKindFor(policy));
    auto db = env.CreateLoadedDb(t.cg, "bench_db" + std::to_string(i),
                                 config.record_count, config.value_size);
    if (!db.ok()) {
      std::fprintf(stderr, "bench: db load failed: %s\n",
                   db.status().ToString().c_str());
      std::exit(1);
    }
    t.db = std::move(*db);
    auto agent = env.AttachPolicy(t.cg, policy, {});
    if (!agent.ok()) {
      std::fprintf(stderr, "bench: attach failed: %s\n",
                   agent.status().ToString().c_str());
      std::exit(1);
    }
    workloads::YcsbConfig ycsb;
    ycsb.workload = workloads::YcsbWorkload::kC;
    ycsb.record_count = config.record_count;
    ycsb.value_size = config.value_size;
    t.generator = std::make_unique<workloads::YcsbGenerator>(ycsb);
  }

  std::vector<harness::ThreadSpec> specs;
  for (int i = 0; i < nr_threads; ++i) {
    PerThread& t = threads[static_cast<size_t>(i)];
    specs.push_back(harness::ThreadSpec{t.db.get(), t.cg, t.generator.get(),
                                        TaskContext{100 + i, 100 + i},
                                        config.ops_per_thread});
  }
  auto run = harness::RunKvWorkloadThreads(std::move(specs),
                                           env.ssd().FrontierNs());
  if (!run.ok()) {
    std::fprintf(stderr, "bench: run failed: %s\n",
                 run.status().ToString().c_str());
    std::exit(1);
  }
  ScalingPoint point;
  point.threads = nr_threads;
  point.run = *run;
  return point;
}

void WriteJson(const std::string& path, const ScalingConfig& config,
               const std::vector<ScalingPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"mt_scaling\",\n");
  std::fprintf(f, "  \"ops_per_thread\": %llu,\n",
               static_cast<unsigned long long>(config.ops_per_thread));
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"throughput_ops\": %.1f, "
                 "\"wall_throughput_ops\": %.1f, "
                 "\"p50_ns\": %llu, \"p99_ns\": %llu, \"speedup\": %.3f, "
                 "\"oom\": %s}%s\n",
                 p.threads, p.run.throughput_ops, p.run.wall_throughput_ops,
                 static_cast<unsigned long long>(p.run.p50_ns),
                 static_cast<unsigned long long>(p.run.p99_ns), p.speedup,
                 p.run.oom ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  ScalingConfig config;
  std::string out_path = "BENCH_mt_scaling.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.record_count = 4000;
      config.ops_per_thread = 8000;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      config.policy = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--policy NAME] "
                   "[--check]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<ScalingPoint> points;
  for (int nr_threads : config.thread_counts) {
    points.push_back(RunPoint(config, nr_threads));
    if (!points.empty() && points.front().run.throughput_ops > 0) {
      points.back().speedup = points.back().run.throughput_ops /
                              points.front().run.throughput_ops;
    }
  }

  const std::string mix_label =
      config.policy.empty() ? "s3fifo/default mix" : config.policy;
  harness::Table table("MT scaling: K lane threads, one page cache "
                       "(YCSB-C, per-thread cgroup+DB, " +
                           mix_label + ")",
                       {"threads", "aggregate tput (virtual)", "tput (wall)",
                        "p50 (virtual)", "p99 (virtual)",
                        "speedup (virtual)"});
  for (const ScalingPoint& p : points) {
    table.AddRow({std::to_string(p.threads),
                  harness::FormatOps(p.run.throughput_ops),
                  harness::FormatOps(p.run.wall_throughput_ops),
                  harness::FormatNs(p.run.p50_ns),
                  harness::FormatNs(p.run.p99_ns),
                  harness::FormatDouble(p.speedup, 2) + "x"});
  }
  table.Print();
  WriteJson(out_path, config, points);
  if (check) {
    const ScalingPoint& last = points.back();
    if (last.threads < 8 || last.speedup < 4.0) {
      std::fprintf(stderr,
                   "mt_scaling CHECK FAIL: %d threads scale %.2fx "
                   "(need >= 4x at 8 threads)\n",
                   last.threads, last.speedup);
      return 1;
    }
    std::printf("mt_scaling CHECK OK: %d threads scale %.2fx (>= 4x)\n",
                last.threads, last.speedup);
  }
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main(int argc, char** argv) { return cache_ext::bench::Main(argc, argv); }
