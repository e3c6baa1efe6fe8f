// Ablations for the design choices DESIGN.md calls out:
//  1. batch-scoring window N (list_iterate's nr_scan; §4.2.3's "first N
//     folios") — accuracy/cost tradeoff for LFU on Zipfian reads;
//  2. MRU's fresh-folio skip (§5.4's "skip a small fixed number of folios")
//     — too small proposes in-use folios (fallback churn), too large stops
//     being MRU;
//  3. readahead: kernel heuristic window vs disabled vs the FetchBPF-style
//     stride-prefetcher policy, on the scan-heavy search workload;
//  4. valid-folio registry sizing (§6.3.1's buckets-per-page worst case):
//     real lookup cost vs bucket count.

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/bpf/ir/compile.h"
#include "src/cache_ext/registry.h"
#include "src/harness/belady.h"
#include "src/policies/classic.h"
#include "src/policies/ir_policies.h"
#include "src/policies/prefetch.h"
#include "src/search/corpus.h"

namespace cache_ext::bench {
namespace {

// --- 1. batch-scoring window --------------------------------------------------

void AblateScoringWindow() {
  harness::Table table("Ablation 1 — LFU batch-scoring window N (YCSB-C)",
                       {"nr_scan", "throughput", "hit rate"});
  for (const uint64_t nr_scan : {32ULL, 128ULL, 512ULL, 2048ULL}) {
    YcsbBenchConfig config;
    config.ops_per_lane = 4000;
    harness::EnvOptions env_options;
    env_options.ssd = config.ssd;
    harness::Env env(env_options);
    MemCgroup* cg = env.CreateCgroup("/ab1", config.cgroup_bytes);
    auto db = env.CreateLoadedDb(cg, "db", config.record_count,
                                 config.value_size);
    CHECK(db.ok());
    policies::LfuParams lfu;
    lfu.max_folios = static_cast<uint32_t>(2 * cg->limit_pages() + 16);
    lfu.nr_scan = nr_scan;
    auto policy = env.loader().Attach(cg, policies::MakeLfuOps(lfu));
    CHECK(policy.ok());

    workloads::YcsbConfig ycsb;
    ycsb.workload = workloads::YcsbWorkload::kC;
    ycsb.record_count = config.record_count;
    ycsb.value_size = config.value_size;
    workloads::YcsbGenerator gen(ycsb);
    std::vector<harness::LaneSpec> lanes;
    for (int i = 0; i < config.lanes; ++i) {
      lanes.push_back(harness::LaneSpec{&gen, TaskContext{1, 1 + i},
                                        config.ops_per_lane});
    }
    harness::KvRunnerOptions options;
    options.base_time_ns = env.ssd().FrontierNs();
    auto result = harness::RunKvWorkload(db->get(), cg, lanes, options);
    CHECK(result.ok());
    table.AddRow({std::to_string(nr_scan),
                  harness::FormatOps(result->throughput_ops),
                  harness::FormatPercent(result->hit_rate)});
  }
  table.Print();
}

// --- 2. MRU fresh-folio skip ----------------------------------------------------

void AblateMruSkip() {
  harness::Table table(
      "Ablation 2 — MRU fresh-folio skip (file search, 6 passes)",
      {"skip_fresh", "time", "hit rate", "fallback evictions"});
  for (const uint64_t skip : {0ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
    harness::Env env;
    const uint64_t corpus_bytes = 24 << 20;
    MemCgroup* cg = env.CreateCgroup("/ab2", corpus_bytes * 7 / 10);
    search::CorpusConfig corpus_config;
    corpus_config.total_bytes = corpus_bytes;
    auto info = search::GenerateCorpus(&env.disk(), corpus_config);
    CHECK(info.ok());
    auto mru = bpf::ir::CompileToOps(policies::IrMruPolicy({skip}));
    CHECK(mru.ok());
    auto policy = env.loader().Attach(cg, std::move(*mru));
    CHECK(policy.ok());
    search::FileSearcher searcher(&env.cache(), cg, info->files);
    auto result = harness::RunSearchWorkload(&searcher, cg, 4, 6,
                                             corpus_config.pattern);
    CHECK(result.ok());
    table.AddRow({std::to_string(skip),
                  harness::FormatDouble(result->duration_s, 3) + "s",
                  harness::FormatPercent(result->hit_rate),
                  std::to_string(env.cache().StatsFor(cg).fallback_evictions)});
  }
  table.Print();
}

// --- 3. readahead / prefetch policy ---------------------------------------------

void AblateReadahead() {
  harness::Table table(
      "Ablation 3 — readahead on the search workload (default policy)",
      {"configuration", "time", "device reads", "readahead pages"});
  const struct {
    const char* label;
    uint32_t heuristic_pages;
    bool stride_policy;
  } arms[] = {{"no readahead", 0, false},
              {"kernel heuristic (8)", 8, false},
              {"stride_prefetcher policy", 0, true}};
  for (const auto& arm : arms) {
    harness::EnvOptions env_options;
    env_options.cache.max_readahead_pages = arm.heuristic_pages;
    harness::Env env(env_options);
    const uint64_t corpus_bytes = 24 << 20;
    MemCgroup* cg = env.CreateCgroup("/ab3", corpus_bytes * 7 / 10);
    search::CorpusConfig corpus_config;
    corpus_config.total_bytes = corpus_bytes;
    auto info = search::GenerateCorpus(&env.disk(), corpus_config);
    CHECK(info.ok());
    if (arm.stride_policy) {
      auto agent = env.AttachPolicy(cg, "stride_prefetcher", {});
      CHECK(agent.ok());
    }
    search::FileSearcher searcher(&env.cache(), cg, info->files);
    const uint64_t reads_before = env.ssd().total_reads();
    auto result = harness::RunSearchWorkload(&searcher, cg, 4, 4,
                                             corpus_config.pattern);
    CHECK(result.ok());
    table.AddRow({arm.label,
                  harness::FormatDouble(result->duration_s, 3) + "s",
                  std::to_string(env.ssd().total_reads() - reads_before),
                  std::to_string(env.cache().StatsFor(cg).readahead_pages)});
  }
  table.Print();
}

// --- 4. registry sizing (real time) ----------------------------------------------

void AblateRegistrySizing() {
  harness::Table table(
      "Ablation 4 — registry lookup cost vs bucket count (65536 folios)",
      {"buckets", "bytes", "avg chain", "contains ns"});
  constexpr int kFolios = 65536;
  std::vector<std::unique_ptr<Folio>> folios;
  folios.reserve(kFolios);
  for (int i = 0; i < kFolios; ++i) {
    folios.push_back(std::make_unique<Folio>());
  }
  for (const uint64_t buckets :
       {kFolios * 1ULL, kFolios / 4ULL, kFolios / 16ULL, kFolios / 64ULL}) {
    FolioRegistry registry(buckets);
    for (auto& folio : folios) {
      registry.Insert(folio.get());
    }
    constexpr int kLookups = 2000000;
    const auto start = std::chrono::steady_clock::now();
    size_t i = 0;
    bool sink = false;
    for (int n = 0; n < kLookups; ++n) {
      sink ^= registry.Contains(folios[i].get());
      i = (i + 7919) % folios.size();
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()) /
        kLookups;
    (void)sink;
    table.AddRow({std::to_string(buckets),
                  harness::FormatBytes(registry.MemoryBytes()),
                  harness::FormatDouble(
                      static_cast<double>(kFolios) / buckets, 1),
                  harness::FormatDouble(ns, 1)});
  }
  table.Print();
}

// --- 5. headroom vs OPT (Belady oracle) -------------------------------------------

void HeadroomVsOpt() {
  // Record the page-access stream of a YCSB-C run, compute the clairvoyant
  // OPT hit rate for the same capacity, and report each policy's
  // gap-to-optimal — the yardstick for "how much policy innovation is
  // left on the table" at this workload/capacity point.
  harness::Table table("Ablation 5 — policy hit rate vs OPT (YCSB-C)",
                       {"policy", "hit rate", "of OPT"});
  YcsbBenchConfig config;
  config.ops_per_lane = 4000;

  // Capture the access trace once (it is policy-independent for reads).
  double opt = 0;
  {
    harness::EnvOptions env_options;
    env_options.ssd = config.ssd;
    harness::Env env(env_options);
    MemCgroup* cg = env.CreateCgroup("/opt", config.cgroup_bytes);
    auto db = env.CreateLoadedDb(cg, "db", config.record_count,
                                 config.value_size);
    CHECK(db.ok());
    harness::AccessTraceRecorder recorder;
    env.cache().SetTracer(&recorder);
    workloads::YcsbConfig ycsb;
    ycsb.workload = workloads::YcsbWorkload::kC;
    ycsb.record_count = config.record_count;
    ycsb.value_size = config.value_size;
    workloads::YcsbGenerator gen(ycsb);
    std::vector<harness::LaneSpec> lanes;
    for (int i = 0; i < config.lanes; ++i) {
      lanes.push_back(harness::LaneSpec{&gen, TaskContext{1, 1 + i},
                                        config.ops_per_lane});
    }
    harness::KvRunnerOptions options;
    options.base_time_ns = env.ssd().FrontierNs();
    auto result = harness::RunKvWorkload(db->get(), cg, lanes, options);
    CHECK(result.ok());
    const auto trace = recorder.TakeTrace();
    opt = harness::BeladyHitRate(trace, cg->limit_pages());
    table.AddRow({"OPT (Belady)", harness::FormatPercent(opt), "100.0%"});
  }
  for (const auto policy : Fig6Policies()) {
    const ArmResult arm =
        RunYcsbArm(policy, workloads::YcsbWorkload::kC, config);
    table.AddRow({std::string(policy),
                  harness::FormatPercent(arm.run.hit_rate),
                  harness::FormatPercent(opt > 0 ? arm.run.hit_rate / opt
                                                 : 0)});
  }
  table.Print();
}

}  // namespace
}  // namespace cache_ext::bench

int main() {
  std::printf("Ablations for the framework's design choices (DESIGN.md)\n");
  cache_ext::bench::AblateScoringWindow();
  cache_ext::bench::AblateMruSkip();
  cache_ext::bench::AblateReadahead();
  cache_ext::bench::AblateRegistrySizing();
  cache_ext::bench::HeadroomVsOpt();
  return 0;
}
