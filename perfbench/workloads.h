// The benchmark's workloads, each driven from outside through the
// public API: harness::Env, lsm::LsmDb::{Get,Put}, PageCache::Read and
// StatsFor, MemCgroup stats, SsdModel totals, and the policy load path
// (policies::MakePolicy -> CacheExtLoader::Verify -> CacheExtPolicy::Init
// -> PageCache::AttachExtPolicy).
//
// Load is a closed loop from this one process: each client thread issues
// its next operation when the previous one returned. Every operation's
// result is checked against the data the benchmark generated from its seed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/harness/env.h"
#include "src/lsm/db.h"
#include "src/pagecache/page_cache.h"
#include "src/workloads/kv_workload.h"
#include "trace.h"

namespace perfbench {

enum class Workload {
  kKvReadZipf,
  kKvReadZipfMt,  // kv_read_zipf from several clients sharing one cgroup
  kPcRandreadMiss,
  kKvUpdateZipf,
};

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);

// CPUs this process may run on (sched affinity, like nproc).
int AvailableCpus();

// Client threads a workload runs: kv_read_zipf_mt uses half the CPUs, at
// least 2 but never more than nproc; the others are single-threaded.
int ClientThreads(Workload workload);

// Wall-clock cost of each set-up step of one Bench.
struct SetupTimes {
  double load_s = 0;     // env, cgroup, bulk load or file fill
  double verify_ms = 0;  // CacheExtLoader::Verify
  double attach_ms = 0;  // policy build, verify, Init, AttachExtPolicy
  double warmup_s = 0;   // fixed warm-up operations
  double total_s() const {
    return load_s + attach_ms / 1e3 + warmup_s;
  }
};

// Every counter the benchmark reads from the system; metrics are
// differences between two snapshots.
struct Counters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t refaults = 0;
  uint64_t activations = 0;
  cache_ext::CgroupCacheStats cache;
  uint64_t ssd_reads = 0;
  uint64_t ssd_writes = 0;
  uint64_t ssd_read_bytes = 0;
  uint64_t ssd_write_bytes = 0;
  uint64_t compactions = 0;
  // Per-hook invocations as the attached policy's circuit breaker counts
  // them (PolicyHookHealth::invocations); zero without a policy.
  std::array<uint64_t, cache_ext::kNumPolicyHooks> hook_invocations{};
  // Eviction candidates requested and proposed, summed by the tracing
  // decorator (traced runs only).
  uint64_t evict_requested = 0;
  uint64_t evict_proposed = 0;
};

// One client's share of a fixed-length slice of a timed phase.
struct Window {
  uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;        // the client thread's CPU time
  LatencySummary latency;  // wall latency of the client's operations
};

// Everything one closed-loop phase measured.
struct PhaseResult {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t failed = 0;
  uint64_t put_bytes = 0;  // user bytes (key + value) written by Puts
  double wall_s = 0;
  double cpu_s = 0;       // process user + system time
  uint64_t virt_ns = 0;   // largest client-lane clock advance
  std::vector<uint32_t> wall_ns;  // per-op wall latency
  std::vector<uint32_t> virt_ns_per_op;  // per-op lane-clock latency
  std::vector<std::vector<Window>> windows;  // [client][window], timed only
  // Traced phases only: per-Read wall latency split by hit/miss, and page
  // lookups made inside Gets (single-client workloads).
  std::vector<uint32_t> read_hit_ns;
  std::vector<uint32_t> read_miss_ns;
  uint64_t get_page_lookups = 0;
  Counters before;
  Counters after;
};

// One set-up system under test: env, data, policy, and its client lanes.
class Bench {
 public:
  // Sets up the workload: env and cgroup, bulk load or file fill, policy
  // build + verify + attach (wrapped in a TracingPolicy when `traced`), then
  // a fixed warm-up. Warm-up failures are kept in warmup_failed().
  static cache_ext::Expected<std::unique_ptr<Bench>> Create(Workload workload,
                                                            uint64_t seed,
                                                            bool traced);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Closed loop on every client thread: `ops_per_thread` operations each,
  // or until `seconds` of wall time pass when ops_per_thread is 0. In a
  // traced bench a thread also stops when its span log is nearly full.
  PhaseResult Run(double seconds, uint64_t ops_per_thread);

  Workload workload() const { return workload_; }
  int threads() const { return threads_; }
  bool has_policy() const { return has_policy_; }
  const SetupTimes& setup() const { return setup_; }
  uint64_t warmup_ops() const { return warmup_ops_; }
  uint64_t warmup_failed() const { return warmup_failed_; }
  // Counters and lane clocks right after warm-up: a fixed operation count
  // from a fixed seed, so single-client runs must agree on them exactly.
  const Counters& after_warmup() const { return after_warmup_; }
  const std::vector<uint64_t>& lane_clocks_after_warmup() const {
    return lane_clocks_after_warmup_;
  }

  std::vector<const SpanLog*> span_logs() const;

 private:
  struct Client;

  Counters Snapshot();
  void ClearSpans();

  Bench(Workload workload, uint64_t seed);
  cache_ext::Status SetUp(bool traced);
  cache_ext::Status AttachPolicy(std::string_view policy);
  // One operation on `client`; false when it failed or returned wrong data.
  bool RunOp(Client& client, PhaseResult& result, bool traced_op);

  Workload workload_;
  uint64_t seed_;
  int threads_;
  bool traced_ = false;
  bool has_policy_ = false;
  SetupTimes setup_;
  uint64_t warmup_ops_ = 0;
  uint64_t warmup_failed_ = 0;
  Counters after_warmup_;
  std::vector<uint64_t> lane_clocks_after_warmup_;

  std::unique_ptr<cache_ext::harness::Env> env_;
  cache_ext::MemCgroup* cg_ = nullptr;
  TracingPolicy* tracer_ = nullptr;  // owned by the page cache
  std::unique_ptr<cache_ext::workloads::YcsbGenerator> generator_;
  std::vector<std::unique_ptr<cache_ext::lsm::LsmDb>> dbs_;
  // Fingerprint of the value each key must read back as. One table serves
  // every client: all DBs are loaded with the same records, and only the
  // single-client workload writes.
  std::vector<uint64_t> expected_;
  std::string put_value_;  // seeded payload, stamped per Put
  uint64_t put_seq_ = 0;
  cache_ext::AddressSpace* file_ = nullptr;
  uint64_t file_pages_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
};

// 64-bit fingerprint of a value; equal values give equal fingerprints.
uint64_t Fingerprint(std::string_view bytes);

// The seeded content of page `index` of the random-read file, and whether
// `page` holds exactly that content.
void FillPage(uint64_t seed, uint64_t index, uint8_t* page);
bool PageMatches(uint64_t seed, uint64_t index, const uint8_t* page);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
