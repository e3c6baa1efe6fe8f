// Model fingerprints: reduced-scale, single-threaded runs of the benchmark's
// gated workloads, of Fig. 6 and of an op mix that takes every data-path
// branch, each summarised as one line of every count, virtual clock and
// device byte the run produced, and compared with
// tests/golden/model_fingerprints.txt.
//
// Virtual time is deterministic (DESIGN.md §4), so a change that keeps the
// model's meaning leaves every line as it is, and a change to the model
// shows which configurations moved and by how much. Each line records:
//  - every CgroupCacheStats field but the wall-clock ext_ir_jit_ns, and the
//    cgroup's own counters;
//  - the client lane clocks (KV, random-read and mix runs) or the runner's
//    virtual duration and latency percentiles (Fig. 6 arms);
//  - a log2 histogram of per-op virtual latency (KV, random-read and mix
//    runs);
//  - the SSD model's totals;
//  - an FNV-1a hash of every SimDisk file;
//  - for the op mix, an FNV-1a hash of every folio the tested cgroup lost,
//    in removal order, so a policy that keeps every count but evicts
//    different folios still moves its line.
//
// After an intended change to the model, rewrite the file by running the
// binary directly (one process runs every configuration in turn):
//
//   MODEL_FINGERPRINT_UPDATE=1 build/tests/model_fingerprint_test

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/loader.h"
#include "src/harness/env.h"
#include "src/harness/runner.h"
#include "src/policies/policy_factory.h"
#include "src/util/rng.h"
#include "src/workloads/kv_workload.h"

namespace cache_ext {
namespace {

constexpr uint64_t kMiB = 1 << 20;
constexpr uint64_t kSeed = 1;
constexpr uint64_t kRecords = 20000;
constexpr uint32_t kValueSize = 2048;

// --- One fingerprint line ---------------------------------------------------

class Line {
 public:
  explicit Line(std::string name) : text_(std::move(name)) {}

  void Add(std::string_view key, uint64_t value) {
    Append(key, std::to_string(value));
  }
  void AddDouble(std::string_view key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Append(key, buf);
  }
  void AddHex(std::string_view key, uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    Append(key, buf);
  }
  void Append(std::string_view key, std::string_view value) {
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += value;
  }

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

void AddCacheStats(Line& line, const CgroupCacheStats& stats) {
  ForEachStat(stats, [&line](const StatDesc& desc, uint64_t value) {
    if (desc.name != "ext_ir_jit_ns") {  // wall clock, not the model
      line.Add(desc.name, value);
    }
  });
  line.Add("ext_detached_by_watchdog", stats.ext_detached_by_watchdog);
  line.Add("oom_killed", stats.oom_killed);
  line.Add("ext_degraded_hook_mask", stats.ext_degraded_hook_mask);
  uint64_t trips = 0;
  for (uint64_t count : stats.ext_hook_trip_counts) {
    trips += count;
  }
  line.Add("ext_hook_trips", trips);
  line.Add("ext_quarantined", stats.ext_quarantined);
  line.Add("ext_banned", stats.ext_banned);
  line.Add("ext_reattach_attempts", stats.ext_reattach_attempts);
  line.Add("reclaim_health", static_cast<uint64_t>(stats.reclaim_health));
}

void AddCgroup(Line& line, const MemCgroup& cg,
               const std::string& prefix = "cg_") {
  line.Add(prefix + "insertions", cg.stat_insertions.load());
  line.Add(prefix + "hits", cg.stat_hits.load());
  line.Add(prefix + "misses", cg.stat_misses.load());
  line.Add(prefix + "evictions", cg.stat_evictions.load());
  line.Add(prefix + "refaults", cg.stat_refaults.load());
  line.Add(prefix + "activations", cg.stat_activations.load());
  line.Add(prefix + "oom_events", cg.stat_oom_events.load());
  line.Add(prefix + "charged_pages", cg.charged_pages());
}

void AddSsd(Line& line, const SsdModel& ssd) {
  line.Add("ssd_reads", ssd.total_reads());
  line.Add("ssd_writes", ssd.total_writes());
  line.Add("ssd_read_bytes", ssd.total_read_bytes());
  line.Add("ssd_write_bytes", ssd.total_write_bytes());
  line.Add("ssd_frontier_ns", ssd.FrontierNs());
}

// Sum and log2 histogram ("bucket:count/...", bucket = bit width) of the
// per-op virtual latencies.
void AddLatencies(Line& line, const std::vector<uint64_t>& latencies) {
  uint64_t sum = 0;
  std::map<int, uint64_t> buckets;
  for (uint64_t ns : latencies) {
    sum += ns;
    ++buckets[std::bit_width(ns)];
  }
  std::string hist;
  for (const auto& [bucket, count] : buckets) {
    if (!hist.empty()) {
      hist += '/';
    }
    hist += std::to_string(bucket) + ':' + std::to_string(count);
  }
  line.Add("vlat_sum_ns", sum);
  line.Append("vlat_log2", hist);
}

// FNV-1a over every file's name, size and bytes, in name order.
void AddDiskHash(Line& line, SimDisk& disk) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ULL;
    }
  };
  const std::vector<std::string> names = disk.ListFiles();
  std::vector<uint8_t> chunk(kMiB);
  for (const std::string& name : names) {
    auto id = disk.Open(name);
    ASSERT_TRUE(id.ok());
    const uint64_t size = disk.SizeOf(*id);
    mix(reinterpret_cast<const uint8_t*>(name.data()), name.size());
    mix(reinterpret_cast<const uint8_t*>(&size), sizeof(size));
    for (uint64_t offset = 0; offset < size; offset += chunk.size()) {
      const size_t n = std::min<uint64_t>(chunk.size(), size - offset);
      ASSERT_TRUE(
          disk.ReadAt(*id, offset, std::span<uint8_t>(chunk.data(), n)).ok());
      mix(chunk.data(), n);
    }
  }
  line.Add("disk_files", names.size());
  line.Add("disk_bytes", disk.TotalBytes());
  line.AddHex("disk_fnv1a", hash);
}

void Fnv1a(uint64_t& hash, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  }
}

uint64_t ValueHash(std::string_view value) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  Fnv1a(hash, std::span(reinterpret_cast<const uint8_t*>(value.data()),
                        value.size()));
  return hash;
}

// The policy load path perfbench uses: build, verify, Init, attach.
// `adjust` may edit the policy's ops before they are verified.
void AttachVerified(harness::Env& env, MemCgroup* cg, std::string_view name,
                    policies::PolicyParams params = {},
                    void (*adjust)(Ops&) = nullptr) {
  params.capacity_pages = cg->limit_pages();
  auto bundle = policies::MakePolicy(name, params);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (adjust != nullptr) {
    adjust(bundle->ops);
  }
  ASSERT_TRUE(CacheExtLoader::Verify(bundle->ops).ok());
  auto adapter = std::make_unique<CacheExtPolicy>(
      std::move(bundle->ops), cg, env.cache().options().costs);
  ASSERT_TRUE(adapter->Init().ok());
  ASSERT_TRUE(env.cache().AttachExtPolicy(cg, std::move(adapter)).ok());
}

// --- The benchmark's key-value workloads (perfbench/workloads.cc) ----------
//
// Same records, cgroup, policy, daemons, warm-up and client lane seed as the
// benchmark's kv_read_zipf and kv_update_zipf, run for a fixed count of
// operations past the warm-up on one client.

struct KvShape {
  workloads::YcsbWorkload workload;
  uint64_t perfbench_id;  // the workload's position in perfbench's enum
  const char* policy;     // nullptr: the base policy only
  uint64_t cgroup_bytes;
  uint64_t warmup_ops;
  bool daemons;           // background reclaim and writeback, virtual lanes
  uint64_t records = kRecords;
  uint64_t measured_ops = 10000;
  lsm::DbOptions db = {};
};

void RunKv(const KvShape& shape, Line& line) {
  harness::EnvOptions options;
  options.cache.reclaim.background = shape.daemons;
  options.cache.writeback.background = shape.daemons;
  harness::Env env(options);
  MemCgroup* cg = env.CreateCgroup("perfbench", shape.cgroup_bytes);
  ASSERT_NE(cg, nullptr);
  Lane lane(1, TaskContext{100, 101},
            Mix64(kSeed ^ (shape.perfbench_id << 32) ^ 0));

  workloads::YcsbConfig config;
  config.workload = shape.workload;
  config.record_count = shape.records;
  config.value_size = kValueSize;
  config.zipf_theta = 0.99;
  workloads::YcsbGenerator generator(config);
  std::vector<uint64_t> expected(shape.records);
  for (uint64_t key = 0; key < shape.records; ++key) {
    expected[key] =
        ValueHash(workloads::KvGenerator::ValueFor(key, kValueSize));
  }
  std::string put_value(kValueSize, '\0');
  uint64_t state = kSeed ^ 0x5eedULL;
  for (char& c : put_value) {
    c = static_cast<char>('A' + SplitMix64(state) % 26);
  }
  auto db =
      env.CreateLoadedDb(cg, "db0", shape.records, kValueSize, shape.db);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  lane.AdvanceTo(env.ssd().FrontierNs());
  if (shape.policy != nullptr) {
    AttachVerified(env, cg, shape.policy);
  }

  std::vector<uint64_t> latencies;
  uint64_t failed = 0;
  uint64_t seq = 0;
  uint64_t warm_clock = 0;
  for (uint64_t n = 0; n < shape.warmup_ops + shape.measured_ops; ++n) {
    if (n == shape.warmup_ops) {
      warm_clock = lane.now_ns();
    }
    const workloads::KvOp op = generator.Next(lane.rng());
    const std::string key = workloads::KvGenerator::KeyFor(op.key_index);
    const uint64_t start = lane.now_ns();
    if (op.type == workloads::OpType::kUpdate) {
      ++seq;
      std::memcpy(put_value.data(), &op.key_index, 8);
      std::memcpy(put_value.data() + 8, &seq, 8);
      if ((*db)->Put(lane, key, put_value).ok()) {
        expected[op.key_index] = ValueHash(put_value);
      } else {
        ++failed;
      }
    } else {
      auto value = (*db)->Get(lane, key);
      failed += !value.ok() || ValueHash(*value) != expected[op.key_index];
    }
    latencies.push_back(lane.now_ns() - start);
  }
  line.Add("ops", latencies.size());
  line.Add("failed", failed);
  line.Add("compactions", (*db)->compactions_run());
  line.Add("lane_warm_ns", warm_clock);
  line.Add("lane_ns", lane.now_ns());
  AddLatencies(line, latencies);
  AddCgroup(line, *cg);
  AddCacheStats(line, env.cache().StatsFor(cg));
  AddSsd(line, env.ssd());
  AddDiskHash(line, env.disk());
}

// --- pc_randread_miss, scaled down ------------------------------------------
//
// The benchmark's random page reads into an ir_lfu cgroup a quarter of the
// file's size, at an eighth of its file, cgroup and warm-up.

void FillPage(uint64_t index, uint8_t* page) {
  uint64_t word = Mix64(kSeed ^ Mix64(index));
  for (size_t off = 0; off < kPageSize; off += 8) {
    std::memcpy(page + off, &word, 8);
    word += 0x9e3779b97f4a7c15ULL;
  }
}

void RunRandread(Line& line) {
  constexpr uint64_t kFilePages = 16 * kMiB / kPageSize;
  constexpr uint64_t kWarmupOps = 4096;
  constexpr uint64_t kMeasuredOps = 8192;
  constexpr uint64_t kChunkPages = 256;
  harness::Env env;
  MemCgroup* cg = env.CreateCgroup("perfbench", 4 * kMiB);
  ASSERT_NE(cg, nullptr);
  Lane lane(1, TaskContext{100, 101}, Mix64(kSeed ^ (2ull << 32) ^ 0));
  auto id = env.disk().Create("randread.dat");
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> chunk(kChunkPages * kPageSize);
  for (uint64_t first = 0; first < kFilePages; first += kChunkPages) {
    for (uint64_t i = 0; i < kChunkPages; ++i) {
      FillPage(first + i, chunk.data() + i * kPageSize);
    }
    ASSERT_TRUE(env.disk().WriteAt(*id, first * kPageSize, chunk).ok());
  }
  auto as = env.cache().OpenFile("randread.dat");
  ASSERT_TRUE(as.ok());
  lane.AdvanceTo(env.ssd().FrontierNs());
  AttachVerified(env, cg, "ir_lfu");

  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> want(kPageSize);
  std::vector<uint64_t> latencies;
  uint64_t failed = 0;
  uint64_t warm_clock = 0;
  for (uint64_t n = 0; n < kWarmupOps + kMeasuredOps; ++n) {
    if (n == kWarmupOps) {
      warm_clock = lane.now_ns();
    }
    const uint64_t index = lane.rng().NextU64Below(kFilePages);
    const uint64_t start = lane.now_ns();
    const Status status =
        env.cache().Read(lane, *as, cg, index * kPageSize, page);
    FillPage(index, want.data());
    failed += !status.ok() || page != want;
    latencies.push_back(lane.now_ns() - start);
  }
  line.Add("ops", latencies.size());
  line.Add("failed", failed);
  line.Add("lane_warm_ns", warm_clock);
  line.Add("lane_ns", lane.now_ns());
  AddLatencies(line, latencies);
  AddCgroup(line, *cg);
  AddCacheStats(line, env.cache().StatsFor(cg));
  AddSsd(line, env.ssd());
  AddDiskHash(line, env.disk());
}

// --- Every branch of the data path, in one seeded op mix --------------------
//
// The shapes above only read, and write whole new files: no readahead page,
// write hit, multi-order folio or admission denial. This mix takes them all:
// reads and writes of 1-40 pages over three 256-page files in a cgroup a
// quarter of their size, random and sequential, aligned and not, writes over
// pages just read, FADV_SEQUENTIAL / RANDOM / WILLNEED / partial DONTNEED,
// fsync, and a second cgroup's lane (on the same thread) reading pages the
// first caches. Every line runs the same mix, under: the base LRU with
// background reclaim and writeback; ir_readahead (readahead hook, order-2/4
// admission); admission_filter filtering a task the lane takes for a quarter
// of its ops; get_scan with that task's pid as its scan pid; and noop, fifo
// and mru. Each line also holds an FNV-1a hash of every byte Read returned
// (read_fnv1a), of the (mapping id, index) of every folio removed from the
// tested cgroup (evict_fnv1a), and the written pages resident just before
// their write (write_hit_pages); `failed` counts reads that differ from a
// shadow copy.

constexpr uint64_t kMixFiles = 3;
constexpr uint64_t kMixFilePages = 256;
constexpr uint64_t kMixOps = 2000;
constexpr uint64_t kMixMaxPages = 40;
constexpr TaskContext kMixTask{100, 101};
constexpr TaskContext kMixFilteredTask{100, 102};
constexpr TaskContext kMixScanTask{300, 102};

// Hashes (mapping id, index) of each folio removed from one cgroup. Charges
// no time, so the run it watches is the run it would be without it.
class EvictHashTracer : public PageCacheTracer {
 public:
  void Watch(const MemCgroup* cg) { cg_ = cg; }

  void OnFolioAdded(Lane&, const Folio&) override {}
  void OnFolioAccessed(Lane&, const Folio&) override {}
  void OnFolioEvicted(Lane&, const Folio& folio) override {
    if (folio.memcg != cg_) {
      return;
    }
    const uint64_t key[2] = {folio.mapping->id(), folio.index};
    Fnv1a(hash_, std::span(reinterpret_cast<const uint8_t*>(key), sizeof(key)));
  }

  uint64_t hash() const { return hash_; }

 private:
  const MemCgroup* cg_ = nullptr;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// `policy` empty: the base LRU with the background daemons.
void RunMix(std::string_view policy, Line& line) {
  harness::EnvOptions options;
  options.cache.reclaim.background = policy.empty();
  options.cache.writeback.background = policy.empty();
  // Declared before the env, whose teardown may still remove folios.
  EvictHashTracer evictions;
  harness::Env env(options);
  MemCgroup* cg =
      env.CreateCgroup("mix", kMixFiles * kMixFilePages * kPageSize / 4);
  MemCgroup* other = env.CreateCgroup("mix_other", 64 * kPageSize);
  ASSERT_NE(cg, nullptr);
  ASSERT_NE(other, nullptr);
  evictions.Watch(cg);
  env.cache().SetTracer(&evictions);
  std::vector<std::vector<uint8_t>> shadow(kMixFiles);
  std::vector<AddressSpace*> files;
  for (uint64_t f = 0; f < kMixFiles; ++f) {
    shadow[f].resize(kMixFilePages * kPageSize);
    for (uint64_t p = 0; p < kMixFilePages; ++p) {
      FillPage(f * kMixFilePages + p, shadow[f].data() + p * kPageSize);
    }
    const std::string name = "mix" + std::to_string(f) + ".dat";
    auto id = env.disk().Create(name);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(env.disk().WriteAt(*id, 0, shadow[f]).ok());
    auto as = env.cache().OpenFile(name);
    ASSERT_TRUE(as.ok());
    files.push_back(*as);
  }
  Lane lane(1, kMixTask, Mix64(kSeed ^ (4ull << 32)));
  Lane other_lane(2, TaskContext{200, 201}, Mix64(kSeed ^ (5ull << 32)));
  lane.AdvanceTo(env.ssd().FrontierNs());
  other_lane.AdvanceTo(env.ssd().FrontierNs());
  // The task the lane takes for a quarter of its ops.
  const TaskContext second_task =
      policy == "get_scan" ? kMixScanTask : kMixFilteredTask;
  if (policy == "admission_filter") {
    // The stock filter admits every write (compaction output stays
    // cached); denying the filtered task's writes too runs the uncached
    // write path.
    policies::PolicyParams params;
    params.filter_tids = {kMixFilteredTask.tid};
    AttachVerified(env, cg, policy, params, [](Ops& ops) {
      ops.admit_folio = [admit = ops.admit_folio](CacheExtApi& api,
                                                  const AdmissionCtx& ctx) {
        return admit(api, ctx) &&
               !(ctx.is_write && ctx.tid == kMixFilteredTask.tid);
      };
    });
  } else if (policy == "get_scan") {
    policies::PolicyParams params;
    params.scan_pids = {kMixScanTask.pid};
    AttachVerified(env, cg, policy, params);
  } else if (!policy.empty()) {
    AttachVerified(env, cg, policy);
  }
  ASSERT_TRUE(env.cache()
                  .FadviseRange(lane, files[1], cg, Fadvise::kSequential, 0, 0)
                  .ok());
  ASSERT_TRUE(
      env.cache().FadviseRange(lane, files[2], cg, Fadvise::kRandom, 0, 0).ok());

  Rng rng(Mix64(kSeed ^ 0x313ULL));
  std::vector<uint64_t> read_first(kMixFiles, 0);  // each file's last read
  std::vector<uint64_t> read_end(kMixFiles, 0);
  std::vector<uint8_t> buf((kMixMaxPages + 1) * kPageSize);
  std::vector<uint64_t> latencies;
  uint64_t read_hash = 0xcbf29ce484222325ULL;
  uint64_t write_hit_pages = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  // Reads [offset, offset + len) of file f on `l` for `c`, checks the bytes
  // against the shadow and hashes them.
  const auto read = [&](Lane& l, MemCgroup* c, uint64_t f, uint64_t offset,
                        uint64_t len) {
    const std::span<uint8_t> out(buf.data(), len);
    if (!env.cache().Read(l, files[f], c, offset, out).ok()) {
      ++errors;
      return;
    }
    failed += std::memcmp(out.data(), shadow[f].data() + offset, len) != 0;
    Fnv1a(read_hash, out);
  };
  for (uint64_t n = 0; n < kMixOps; ++n) {
    const uint64_t f = rng.NextU64Below(kMixFiles);
    AddressSpace* as = files[f];
    lane.set_task(rng.NextBool(0.25) ? second_task : kMixTask);
    const uint64_t kind = rng.NextU64Below(100);
    const uint64_t pages = 1 + rng.NextU64Below(kMixMaxPages);
    const bool unaligned = rng.NextBool(0.3);
    const uint64_t start = lane.now_ns();
    Status status = OkStatus();
    if (kind < 40) {
      // Half the reads continue where the file's last read ended.
      uint64_t first = rng.NextBool(0.5)
                           ? read_end[f]
                           : rng.NextU64Below(kMixFilePages);
      if (first + pages > kMixFilePages) {
        first = kMixFilePages - pages;
      }
      const uint64_t skew = unaligned ? rng.NextU64Below(kPageSize) : 0;
      read(lane, cg, f, first * kPageSize + skew, pages * kPageSize - skew);
      read_first[f] = first;
      read_end[f] = first + pages == kMixFilePages ? 0 : first + pages;
    } else if (kind < 65) {
      // A third of the writes land on the pages the file's last read
      // covered.
      uint64_t first = rng.NextBool(0.33) ? read_first[f]
                                          : rng.NextU64Below(kMixFilePages);
      if (first + pages > kMixFilePages) {
        first = kMixFilePages - pages;
      }
      // An unaligned write starts and ends inside a page.
      const uint64_t skew = unaligned ? rng.NextU64Below(kPageSize / 2) : 0;
      const uint64_t offset = first * kPageSize + skew;
      const uint64_t len = (first + pages) * kPageSize - offset -
                           (unaligned ? rng.NextU64Below(kPageSize / 2) : 0);
      for (uint64_t p = offset / kPageSize; p <= (offset + len - 1) / kPageSize;
           ++p) {
        write_hit_pages += as->FindFolio(p) != nullptr;
      }
      std::vector<uint8_t> data(len);
      for (uint64_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(n * 31 + i * 7);
      }
      std::memcpy(shadow[f].data() + offset, data.data(), len);
      status = env.cache().Write(lane, as, cg, offset, data);
    } else if (kind < 72) {
      status = env.cache().FadviseRange(
          lane, as, cg, Fadvise::kWillNeed,
          rng.NextU64Below(kMixFilePages) * kPageSize, pages * kPageSize);
    } else if (kind < 80) {
      // A few pages from anywhere: mostly a part of a multi-order folio.
      status = env.cache().FadviseRange(
          lane, as, cg, Fadvise::kDontNeed,
          rng.NextU64Below(kMixFilePages) * kPageSize,
          (1 + pages % 6) * kPageSize);
    } else if (kind < 84) {
      status = env.cache().SyncFile(lane, as);
    } else {
      // The other cgroup reads inside file 0's last read: cross-cgroup hits.
      const uint64_t first =
          std::min(read_first[0] + pages % 8, kMixFilePages - 8);
      read(other_lane, other, 0, first * kPageSize, (1 + pages % 8) * kPageSize);
    }
    errors += !status.ok();
    latencies.push_back(lane.now_ns() - start);
  }
  line.Add("ops", latencies.size());
  line.Add("failed", failed);
  line.Add("errors", errors);
  line.AddHex("read_fnv1a", read_hash);
  line.AddHex("evict_fnv1a", evictions.hash());
  line.Add("write_hit_pages", write_hit_pages);
  line.Add("lane_ns", lane.now_ns());
  line.Add("other_lane_ns", other_lane.now_ns());
  AddLatencies(line, latencies);
  AddCgroup(line, *other, "other_cg_");
  AddCgroup(line, *cg);
  AddCacheStats(line, env.cache().StatsFor(cg));
  AddSsd(line, env.ssd());
  AddDiskHash(line, env.disk());
}

// --- Fig. 6, reduced ---------------------------------------------------------
//
// bench_fig6_ycsb's arm (bench/bench_common.cc RunYcsbArm): a fresh env with
// the contended SSD, the DB bulk-loaded at 10:1 to its cgroup, the policy
// attached, eight lanes through the virtual-clock runner, then a short probe
// burst. A fifth of the records and a twentieth of the operations.

void RunFig6Arm(std::string_view policy, workloads::YcsbWorkload workload,
                Line& line) {
  constexpr uint64_t kArmRecords = 4000;
  constexpr uint32_t kArmValueSize = 2048;
  constexpr uint64_t kOpsPerLane = 250;
  constexpr int kLanes = 8;
  harness::EnvOptions options;
  options.ssd.channels = 4;
  options.ssd.read_latency_ns = 90 * 1000;
  options.ssd.write_latency_ns = 40 * 1000;
  options.ssd.bytes_per_us = 400;
  harness::Env env(options);
  MemCgroup* cg = env.CreateCgroup("/bench", 840 * 1024,
                                   harness::BaseKindFor(policy));
  ASSERT_NE(cg, nullptr);
  auto db = env.CreateLoadedDb(cg, "bench_db", kArmRecords, kArmValueSize);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto agent = env.AttachPolicy(cg, policy, {});
  ASSERT_TRUE(agent.ok()) << agent.status().ToString();

  workloads::YcsbConfig ycsb;
  ycsb.workload = workload;
  ycsb.record_count = kArmRecords;
  ycsb.value_size = kArmValueSize;
  workloads::YcsbGenerator generator(ycsb);
  std::vector<harness::LaneSpec> lanes;
  for (int i = 0; i < kLanes; ++i) {
    lanes.push_back(
        harness::LaneSpec{&generator, TaskContext{100, 100 + i}, kOpsPerLane});
  }
  harness::KvRunnerOptions run_options;
  run_options.agent = *agent;
  run_options.base_time_ns = env.ssd().FrontierNs();
  auto run = harness::RunKvWorkload(db->get(), cg, lanes, run_options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<harness::LaneSpec> probe_lanes;
  probe_lanes.push_back(harness::LaneSpec{
      &generator, TaskContext{100, 100 + kLanes}, 500});
  auto probe = harness::RunKvWorkload(db->get(), cg, probe_lanes, run_options);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();

  for (const harness::RunResult* r : {&*run, &*probe}) {
    const std::string p = r == &*run ? "run_" : "probe_";
    line.Add(p + "ops", r->ops_completed);
    line.Add(p + "scans", r->scans_completed);
    line.AddDouble(p + "duration_s", r->duration_s);
    line.Add(p + "p50_ns", r->p50_ns);
    line.Add(p + "p99_ns", r->p99_ns);
    line.Add(p + "p999_ns", r->p999_ns);
    line.AddDouble(p + "mean_ns", r->mean_ns);
    line.Add(p + "scan_p99_ns", r->scan_p99_ns);
    line.AddDouble(p + "hit_rate", r->hit_rate);
    line.Add(p + "oom", r->oom);
  }
  AddCgroup(line, *cg);
  AddCacheStats(line, env.cache().StatsFor(cg));
  AddSsd(line, env.ssd());
  AddDiskHash(line, env.disk());
}

// --- Configurations and the golden file -------------------------------------

struct Config {
  std::string name;
  void (*run)(const Config&, Line&);
  std::string policy;
  workloads::YcsbWorkload workload = workloads::YcsbWorkload::kC;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  configs.push_back({"kv_read_zipf", [](const Config&, Line& line) {
                       RunKv({.workload = workloads::YcsbWorkload::kC,
                              .perfbench_id = 0,
                              .policy = "lfu",
                              .cgroup_bytes = 20 * kMiB,
                              .warmup_ops = 60000,
                              .daemons = false},
                             line);
                     },
                     ""});
  configs.push_back({"kv_update_zipf", [](const Config&, Line& line) {
                       RunKv({.workload = workloads::YcsbWorkload::kA,
                              .perfbench_id = 3,
                              .policy = nullptr,
                              .cgroup_bytes = kRecords * (kValueSize + 16) / 10,
                              .warmup_ops = 30000,
                              .daemons = true},
                             line);
                     },
                     ""});
  // kv_update_zipf's overwrites of hot keys rarely grow its 4 MiB
  // memtable, so it flushes seldom in a short run: a small DB with small
  // tables covers flushes and compactions.
  configs.push_back({"kv_update_zipf_small_tables",
                     [](const Config&, Line& line) {
                       KvShape shape{.workload = workloads::YcsbWorkload::kA,
                                     .perfbench_id = 3,
                                     .policy = nullptr,
                                     .cgroup_bytes =
                                         4000 * (kValueSize + 16) / 10,
                                     .warmup_ops = 0,
                                     .daemons = true,
                                     .records = 4000,
                                     .measured_ops = 12000};
                       shape.db.memtable_bytes = 256 << 10;
                       shape.db.target_file_bytes = 256 << 10;
                       shape.db.level_base_bytes = 1 << 20;
                       RunKv(shape, line);
                     },
                     ""});
  configs.push_back({"pc_randread_miss_small",
                     [](const Config&, Line& line) { RunRandread(line); },
                     ""});
  for (const auto& [name, policy] :
       {std::pair{"mix_base_lru", ""},
        std::pair{"mix_ir_readahead", "ir_readahead"},
        std::pair{"mix_admission_filter", "admission_filter"},
        std::pair{"mix_noop", "noop"},
        std::pair{"mix_fifo", "fifo"},
        std::pair{"mix_mru", "mru"},
        std::pair{"mix_get_scan", "get_scan"}}) {
    configs.push_back(
        {name, [](const Config& c, Line& line) { RunMix(c.policy, line); },
         policy});
  }
  for (const auto& [workload, tag] :
       {std::pair{workloads::YcsbWorkload::kA, "a"},
        std::pair{workloads::YcsbWorkload::kC, "c"}}) {
    for (const char* policy :
         {"default", "mglru", "fifo", "mru", "lfu", "s3fifo", "lhd"}) {
      configs.push_back({std::string("fig6_ycsb_") + tag + "_" + policy,
                         [](const Config& c, Line& line) {
                           RunFig6Arm(c.policy, c.workload, line);
                         },
                         policy, workload});
    }
  }
  return configs;
}

std::string GoldenPath() {
  return std::string(CACHE_EXT_GOLDEN_DIR) + "/model_fingerprints.txt";
}

constexpr std::string_view kGoldenHeader =
    "# Model fingerprints, one line per configuration of\n"
    "# tests/model_fingerprint_test.cc. Rewrite with\n"
    "#   MODEL_FINGERPRINT_UPDATE=1 build/tests/model_fingerprint_test\n";

// Configuration name -> its golden line.
std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> lines;
  std::ifstream in(GoldenPath());
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') {
      continue;
    }
    lines[text.substr(0, text.find(' '))] = text;
  }
  return lines;
}

void WriteGolden(const std::map<std::string, std::string>& lines) {
  std::ofstream out(GoldenPath(), std::ios::trunc);
  out << kGoldenHeader;
  for (const Config& config : AllConfigs()) {
    if (auto it = lines.find(config.name); it != lines.end()) {
      out << it->second << '\n';
    }
  }
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
}

// "key=value" fields of a line after its name.
std::map<std::string, std::string> Fields(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream in(line);
  std::string token;
  in >> token;  // the name
  while (in >> token) {
    const size_t eq = token.find('=');
    fields[token.substr(0, eq)] =
        eq == std::string::npos ? "" : token.substr(eq + 1);
  }
  return fields;
}

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

class ModelFingerprintTest : public ::testing::TestWithParam<Config> {};

TEST_P(ModelFingerprintTest, MatchesGolden) {
  const Config& config = GetParam();
  Line line(config.name);
  config.run(config, line);
  if (HasFatalFailure()) {
    return;
  }
  std::map<std::string, std::string> golden = ReadGolden();
  const char* update = std::getenv("MODEL_FINGERPRINT_UPDATE");
  if (update != nullptr && std::string_view(update) == "1") {
    golden[config.name] = line.text();
    WriteGolden(golden);
    return;
  }
  auto it = golden.find(config.name);
  ASSERT_NE(it, golden.end())
      << "no golden line for " << config.name << " in " << GoldenPath()
      << "; this run gives:\n"
      << line.text();
  if (it->second == line.text()) {
    return;
  }
  const auto want = Fields(it->second);
  const auto got = Fields(line.text());
  std::string diff;
  for (const auto& [key, value] : got) {
    auto w = want.find(key);
    if (w == want.end()) {
      diff += "  " + key + ": new field, " + value + "\n";
    } else if (w->second != value) {
      diff += "  " + key + ": golden " + w->second + ", now " + value + "\n";
    }
  }
  for (const auto& [key, value] : want) {
    if (got.count(key) == 0) {
      diff += "  " + key + ": missing, golden " + value + "\n";
    }
  }
  ADD_FAILURE() << config.name << " moved from its golden fingerprint:\n"
                << diff;
}

INSTANTIATE_TEST_SUITE_P(
    Model, ModelFingerprintTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace cache_ext
