#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/loader.h"
#include "src/policies/policy_factory.h"
#include "src/util/rng.h"

namespace perfbench {

using cache_ext::Expected;
using cache_ext::kPageSize;
using cache_ext::OkStatus;
using cache_ext::Status;
using cache_ext::workloads::KvGenerator;
using cache_ext::workloads::OpType;

namespace {

// Sizes shared by the two key-value workloads: 20k records of 2 KiB, about
// 40 MiB per database.
constexpr uint64_t kRecords = 20000;
constexpr uint32_t kValueSize = 2048;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kMiB = 1 << 20;

// Random-read file: 4x the cgroup, so about three reads in four miss.
constexpr uint64_t kFileBytes = 128 * kMiB;

// Span memory for a traced bench, split across its client threads
// (24 bytes per span).
constexpr size_t kSpanBudget = 2 << 20;

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

struct Shape {
  const char* policy;     // nullptr: the base policy only
  uint64_t cgroup_bytes;  // memory.max of the one cgroup
  uint64_t warmup_ops;    // per client, before anything is measured
};

Shape ShapeOf(Workload workload) {
  switch (workload) {
    case Workload::kKvReadZipf:
    case Workload::kKvReadZipfMt:
      // Every client's DB charged to one cgroup of 20 MiB per client: hit
      // ratio ~0.9.
      return {"lfu", 20 * kMiB * static_cast<uint64_t>(ClientThreads(workload)),
              60000};
    case Workload::kPcRandreadMiss:
      return {"ir_lfu", 32 * kMiB, 32768};
    case Workload::kKvUpdateZipf:
      // A tenth of the data, the ratio of the paper's Fig. 6.
      return {nullptr, kRecords * (kValueSize + 16) / 10, 30000};
  }
  return {nullptr, 0, 0};
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// A timed phase is cut into windows of this length, so the end-to-end wall
// and CPU metrics can be taken from windows the host did not slow down.
constexpr uint64_t kWindowNs = 250'000'000;

// --- CPU choice ---------------------------------------------------------------
//
// A shared host runs other tenants' threads on the SMT siblings of the
// benchmark's vCPUs. While a vCPU's sibling is busy, arithmetic on it runs
// at half speed and the benchmark's operations take about 1.5x the CPU time,
// in stretches of seconds to minutes, while another vCPU is often fast at
// that moment.
// So each single-threaded step (a set-up's load, a single client's phase and
// each of its windows) first moves to the CPU on which a short arithmetic
// probe runs fastest.

// Probe rounds: about 0.3 ms on a vCPU whose sibling is idle.
constexpr uint64_t kCpuProbeRounds = 32768;

std::atomic<uint64_t> cpu_probe_sink{0};

// The CPUs the process may run on, as it started.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      CPU_ZERO(&set);
    }
    return set;
  }();
  return allowed;
}

void SetThreadCpus(const cpu_set_t& set) {
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Thread CPU time of a fixed arithmetic loop: eight independent multiply
// chains, which need the execution ports a busy SMT sibling takes.
double CpuProbeNs() {
  uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const double start = ThreadCpuNs();
  for (uint64_t i = 0; i < kCpuProbeRounds; ++i) {
    for (uint64_t& lane : lanes) {
      lane = cache_ext::Mix64(lane + i);
    }
  }
  const double ns = ThreadCpuNs() - start;
  uint64_t sum = 0;
  for (uint64_t lane : lanes) sum ^= lane;
  cpu_probe_sink.store(sum, std::memory_order_relaxed);
  return ns;
}

// Moves the calling thread to the allowed CPU where the probe ran fastest.
void PinToFastestCpu() {
  const cpu_set_t& allowed = AllowedCpus();
  if (CPU_COUNT(&allowed) < 2) {
    return;
  }
  int best = -1;
  double best_ns = 0;
  cpu_set_t one;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    SetThreadCpus(one);
    const double ns = CpuProbeNs();
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  SetThreadCpus(one);
}

// Lets the calling thread run on every allowed CPU again.
void UnpinThread() {
  if (CPU_COUNT(&AllowedCpus()) > 0) {
    SetThreadCpus(AllowedCpus());
  }
}

// Fingerprints of the bulk-loaded values, KvGenerator::ValueFor(key).
const std::vector<uint64_t>& LoadedFingerprints() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> fps(kRecords);
    for (uint64_t key = 0; key < kRecords; ++key) {
      fps[key] = Fingerprint(KvGenerator::ValueFor(key, kValueSize));
    }
    return fps;
  }();
  return table;
}

}  // namespace

struct Bench::Client {
  Client(uint32_t id, uint64_t seed)
      : lane(id, cache_ext::TaskContext{100, static_cast<int32_t>(100 + id)},
             seed) {}
  cache_ext::Lane lane;
  // Operations completed in the current phase, read by the window marks.
  alignas(64) std::atomic<uint64_t> progress{0};
  // CPU choices requested at the window marks of a timed phase, and their
  // time so far, which the windows and the phase leave out.
  std::atomic<bool> repin_due{false};
  std::atomic<uint64_t> repin_cpu_ns{0};
  std::atomic<uint64_t> repin_wall_ns{0};
  cache_ext::lsm::LsmDb* db = nullptr;
  std::unique_ptr<SpanLog> log;
  std::vector<uint8_t> page = std::vector<uint8_t>(kPageSize);
  std::string key;
};

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kKvReadZipf, Workload::kKvReadZipfMt,
                     Workload::kPcRandreadMiss, Workload::kKvUpdateZipf}) {
    if (WorkloadName(w) == name) {
      return w;
    }
  }
  return std::nullopt;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kKvReadZipf:    return "kv_read_zipf";
    case Workload::kKvReadZipfMt:  return "kv_read_zipf_mt";
    case Workload::kPcRandreadMiss: return "pc_randread_miss";
    case Workload::kKvUpdateZipf:  return "kv_update_zipf";
  }
  return "?";
}

int AvailableCpus() {
  const int allowed = CPU_COUNT(&AllowedCpus());
  if (allowed > 0) {
    return allowed;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int ClientThreads(Workload workload) {
  if (workload != Workload::kKvReadZipfMt) {
    return 1;
  }
  // Half the CPUs, at least two: with nproc - 1 clients the run-to-run
  // spread of the wall-clock metrics on a shared 4-vCPU host was about
  // half as large again as with two.
  const int cpus = AvailableCpus();
  return std::min(cpus, std::max(2, cpus / 2));
}

uint64_t Fingerprint(std::string_view bytes) {
  // Four independent multiply-xorshift lanes, so the loop is not one long
  // dependency chain.
  uint64_t h[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                   0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  const char* p = bytes.data();
  const size_t n = bytes.size();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t word = 0;
      std::memcpy(&word, p + i + 8 * lane, 8);
      h[lane] = (h[lane] ^ word) * kGolden;
      h[lane] ^= h[lane] >> 32;
    }
  }
  for (; i < n; ++i) {
    h[0] = (h[0] ^ static_cast<uint8_t>(p[i])) * kGolden;
  }
  return cache_ext::Mix64(h[0] ^ cache_ext::Mix64(h[1]) ^
                          cache_ext::Mix64(h[2] + 1) ^
                          cache_ext::Mix64(h[3] + 2) ^ n);
}

void FillPage(uint64_t seed, uint64_t index, uint8_t* page) {
  uint64_t word = cache_ext::Mix64(seed ^ cache_ext::Mix64(index));
  for (size_t off = 0; off < kPageSize; off += 8) {
    std::memcpy(page + off, &word, 8);
    word += kGolden;
  }
}

bool PageMatches(uint64_t seed, uint64_t index, const uint8_t* page) {
  uint64_t word = cache_ext::Mix64(seed ^ cache_ext::Mix64(index));
  bool same = true;
  for (size_t off = 0; off < kPageSize; off += 8) {
    uint64_t got = 0;
    std::memcpy(&got, page + off, 8);
    same &= got == word;
    word += kGolden;
  }
  return same;
}

Bench::Bench(Workload workload, uint64_t seed)
    : workload_(workload), seed_(seed), threads_(ClientThreads(workload)) {}

Bench::~Bench() = default;

Expected<std::unique_ptr<Bench>> Bench::Create(Workload workload,
                                               uint64_t seed, bool traced) {
  std::unique_ptr<Bench> bench(new Bench(workload, seed));
  CACHE_EXT_RETURN_IF_ERROR(bench->SetUp(traced));
  return bench;
}

Status Bench::SetUp(bool traced) {
  const Shape shape = ShapeOf(workload_);
  if (workload_ != Workload::kPcRandreadMiss) {
    LoadedFingerprints();  // the oracle, built once, outside the timing
  }
  traced_ = traced;

  PinToFastestCpu();  // the load runs on this thread; Run() unpins it
  uint64_t t0 = NowNs();
  cache_ext::harness::EnvOptions options;
  if (workload_ == Workload::kKvUpdateZipf) {
    // Both daemons on, ticked as virtual lanes (no extra OS threads).
    options.cache.reclaim.background = true;
    options.cache.writeback.background = true;
  }
  env_ = std::make_unique<cache_ext::harness::Env>(options);
  cg_ = env_->CreateCgroup("perfbench", shape.cgroup_bytes);
  if (cg_ == nullptr) {
    return cache_ext::Internal("cgroup creation failed");
  }
  for (int i = 0; i < threads_; ++i) {
    const uint64_t lane_seed =
        cache_ext::Mix64(seed_ ^ (static_cast<uint64_t>(workload_) << 32) ^
                         static_cast<uint64_t>(i));
    clients_.push_back(
        std::make_unique<Client>(static_cast<uint32_t>(i + 1), lane_seed));
  }

  if (workload_ == Workload::kPcRandreadMiss) {
    const std::string name = "randread.dat";
    auto id = env_->disk().Create(name);
    CACHE_EXT_RETURN_IF_ERROR(id.status());
    file_pages_ = kFileBytes / kPageSize;
    constexpr uint64_t kChunkPages = 256;
    std::vector<uint8_t> chunk(kChunkPages * kPageSize);
    for (uint64_t first = 0; first < file_pages_; first += kChunkPages) {
      for (uint64_t i = 0; i < kChunkPages; ++i) {
        FillPage(seed_, first + i, chunk.data() + i * kPageSize);
      }
      CACHE_EXT_RETURN_IF_ERROR(
          env_->disk().WriteAt(*id, first * kPageSize, chunk));
    }
    auto as = env_->cache().OpenFile(name);
    CACHE_EXT_RETURN_IF_ERROR(as.status());
    file_ = *as;
  } else {
    cache_ext::workloads::YcsbConfig config;
    config.workload = workload_ == Workload::kKvUpdateZipf
                          ? cache_ext::workloads::YcsbWorkload::kA
                          : cache_ext::workloads::YcsbWorkload::kC;
    config.record_count = kRecords;
    config.value_size = kValueSize;
    config.zipf_theta = kZipfTheta;
    generator_ = std::make_unique<cache_ext::workloads::YcsbGenerator>(config);
    expected_ = LoadedFingerprints();
    // Put payload: seeded bytes, stamped with key and sequence per Put.
    put_value_.resize(kValueSize);
    uint64_t state = seed_ ^ 0x5eedULL;
    for (char& c : put_value_) {
      c = static_cast<char>('A' + cache_ext::SplitMix64(state) % 26);
    }
    for (int i = 0; i < threads_; ++i) {
      auto db = env_->CreateLoadedDb(cg_, "db" + std::to_string(i), kRecords,
                                     kValueSize);
      CACHE_EXT_RETURN_IF_ERROR(db.status());
      clients_[i]->db = db->get();
      dbs_.push_back(std::move(*db));
    }
  }
  // Start the client clocks at the device frontier so load I/O still
  // queued in the SSD model is not billed to the first measured ops.
  for (auto& client : clients_) {
    client->lane.AdvanceTo(env_->ssd().FrontierNs());
  }
  setup_.load_s = Seconds(t0, NowNs());

  t0 = NowNs();
  if (shape.policy != nullptr) {
    CACHE_EXT_RETURN_IF_ERROR(AttachPolicy(shape.policy));
  }
  setup_.attach_ms = Seconds(t0, NowNs()) * 1e3;

  if (traced) {
    for (auto& client : clients_) {
      client->log = std::make_unique<SpanLog>(kSpanBudget / clients_.size());
    }
  }
  t0 = NowNs();
  PhaseResult warmup = Run(0, shape.warmup_ops);
  setup_.warmup_s = Seconds(t0, NowNs());
  warmup_ops_ = warmup.ops;
  warmup_failed_ = warmup.failed;
  after_warmup_ = warmup.after;
  for (auto& client : clients_) {
    lane_clocks_after_warmup_.push_back(client->lane.now_ns());
  }
  ClearSpans();
  return OkStatus();
}

Status Bench::AttachPolicy(std::string_view policy) {
  cache_ext::policies::PolicyParams params;
  params.capacity_pages = cg_->limit_pages();
  auto bundle = cache_ext::policies::MakePolicy(policy, params);
  CACHE_EXT_RETURN_IF_ERROR(bundle.status());

  const uint64_t t0 = NowNs();
  const Status verdict = cache_ext::CacheExtLoader::Verify(bundle->ops);
  setup_.verify_ms = Seconds(t0, NowNs()) * 1e3;
  CACHE_EXT_RETURN_IF_ERROR(verdict);

  auto adapter = std::make_unique<cache_ext::CacheExtPolicy>(
      std::move(bundle->ops), cg_, env_->cache().options().costs);
  CACHE_EXT_RETURN_IF_ERROR(adapter->Init());
  std::unique_ptr<cache_ext::ReclaimPolicy> attached = std::move(adapter);
  if (traced_) {
    auto wrapper = std::make_unique<TracingPolicy>(std::move(attached));
    tracer_ = wrapper.get();
    attached = std::move(wrapper);
  }
  CACHE_EXT_RETURN_IF_ERROR(
      env_->cache().AttachExtPolicy(cg_, std::move(attached)));
  has_policy_ = true;
  return OkStatus();
}

Counters Bench::Snapshot() {
  Counters c;
  c.hits = cg_->stat_hits.load();
  c.misses = cg_->stat_misses.load();
  c.insertions = cg_->stat_insertions.load();
  c.evictions = cg_->stat_evictions.load();
  c.refaults = cg_->stat_refaults.load();
  c.activations = cg_->stat_activations.load();
  c.cache = env_->cache().StatsFor(cg_);
  const cache_ext::SsdModel& ssd = env_->ssd();
  c.ssd_reads = ssd.total_reads();
  c.ssd_writes = ssd.total_writes();
  c.ssd_read_bytes = ssd.total_read_bytes();
  c.ssd_write_bytes = ssd.total_write_bytes();
  for (const auto& db : dbs_) {
    c.compactions += db->compactions_run();
  }
  if (cache_ext::ReclaimPolicy* policy = env_->cache().ext_policy(cg_)) {
    c.hook_invocations = policy->HookHealth().invocations;
  }
  if (tracer_ != nullptr) {
    c.evict_requested = tracer_->evict_requested();
    c.evict_proposed = tracer_->evict_proposed();
  }
  return c;
}

bool Bench::RunOp(Client& client, PhaseResult& result, bool traced_op) {
  SpanLog* log = traced_op ? client.log.get() : nullptr;
  cache_ext::Lane& lane = client.lane;
  const uint64_t virt_start = lane.now_ns();
  uint64_t start = 0;
  uint64_t end = 0;
  bool ok = false;
  if (workload_ == Workload::kPcRandreadMiss) {
    const uint64_t index = lane.rng().NextU64Below(file_pages_);
    const uint64_t hits = log != nullptr ? cg_->stat_hits.load() : 0;
    const uint64_t misses = log != nullptr ? cg_->stat_misses.load() : 0;
    start = NowNs();
    if (log != nullptr) log->BeginOp(SpanKind::kRead, start);
    const Status status = env_->cache().Read(lane, file_, cg_,
                                             index * kPageSize, client.page);
    end = NowNs();
    if (log != nullptr) log->EndOp(end);
    ok = status.ok() && PageMatches(seed_, index, client.page.data());
    if (log != nullptr) {
      const ReadClass cls = ClassifyRead(cg_->stat_hits.load() - hits,
                                         cg_->stat_misses.load() - misses);
      if (cls == ReadClass::kHit) {
        result.read_hit_ns.push_back(SampleNs(end - start));
      } else if (cls == ReadClass::kMiss) {
        result.read_miss_ns.push_back(SampleNs(end - start));
      }
    }
  } else {
    const cache_ext::workloads::KvOp op = generator_->Next(lane.rng());
    client.key = KvGenerator::KeyFor(op.key_index);
    if (op.type == OpType::kUpdate) {
      const uint64_t seq = ++put_seq_;
      std::memcpy(put_value_.data(), &op.key_index, 8);
      std::memcpy(put_value_.data() + 8, &seq, 8);
      const uint64_t fingerprint = Fingerprint(put_value_);
      start = NowNs();
      if (log != nullptr) log->BeginOp(SpanKind::kPut, start);
      const Status status = client.db->Put(lane, client.key, put_value_);
      end = NowNs();
      if (log != nullptr) log->EndOp(end);
      ok = status.ok();
      if (ok) {
        expected_[op.key_index] = fingerprint;
      }
      ++result.puts;
      result.put_bytes += client.key.size() + put_value_.size();
    } else {
      // Per-Get page lookups are exact only when no other client shares
      // the cgroup counters.
      const bool count_lookups = log != nullptr && threads_ == 1;
      const uint64_t lookups =
          count_lookups ? cg_->stat_hits.load() + cg_->stat_misses.load() : 0;
      start = NowNs();
      if (log != nullptr) log->BeginOp(SpanKind::kGet, start);
      auto value = client.db->Get(lane, client.key);
      end = NowNs();
      if (log != nullptr) log->EndOp(end);
      ok = value.ok() && Fingerprint(*value) == expected_[op.key_index];
      if (count_lookups) {
        result.get_page_lookups +=
            cg_->stat_hits.load() + cg_->stat_misses.load() - lookups;
      }
      ++result.gets;
    }
  }
  result.wall_ns.push_back(SampleNs(end - start));
  result.virt_ns_per_op.push_back(SampleNs(lane.now_ns() - virt_start));
  ++result.ops;
  if (!ok) {
    ++result.failed;
  }
  return ok;
}

PhaseResult Bench::Run(double seconds, uint64_t ops_per_thread) {
  PhaseResult total;
  total.before = Snapshot();
  std::vector<uint64_t> lane_start;
  for (auto& client : clients_) {
    lane_start.push_back(client->lane.now_ns());
  }
  std::vector<PhaseResult> parts(clients_.size());
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<int> done{0};

  const bool timed = ops_per_thread == 0;
  // A single client runs on the fastest CPU and chooses again at every
  // window mark; several clients are left to the scheduler, which spreads
  // them. The marking thread never shares the client's CPU for long.
  const bool pin = clients_.size() == 1;
  UnpinThread();
  for (auto& client : clients_) {
    client->progress.store(0);
    client->repin_due.store(false);
    client->repin_cpu_ns.store(0);
    client->repin_wall_ns.store(0);
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& client = *clients_[i];
      SpanLog* log = traced_ ? client.log.get() : nullptr;
      SetCurrentSpanLog(log);
      if (pin) {
        PinToFastestCpu();
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (uint64_t n = 0; ops_per_thread == 0 || n < ops_per_thread; ++n) {
        // A timed traced phase ends before its span log overflows; a
        // fixed-count phase keeps going and counts dropped spans instead.
        if (stop.load(std::memory_order_relaxed) ||
            (ops_per_thread == 0 && log != nullptr && log->NearlyFull())) {
          break;
        }
        if (client.repin_due.load(std::memory_order_relaxed)) {
          client.repin_due.store(false, std::memory_order_relaxed);
          const uint64_t wall0 = NowNs();
          const double cpu0 = ThreadCpuNs();
          PinToFastestCpu();
          client.repin_cpu_ns.fetch_add(static_cast<uint64_t>(ThreadCpuNs() - cpu0),
                                        std::memory_order_relaxed);
          client.repin_wall_ns.fetch_add(NowNs() - wall0, std::memory_order_relaxed);
        }
        RunOp(client, parts[i], log != nullptr);
        client.progress.store(n + 1, std::memory_order_relaxed);
      }
      SetCurrentSpanLog(nullptr);
      done.fetch_add(1);
    });
  }
  while (ready.load() < static_cast<int>(clients_.size())) {
    std::this_thread::yield();
  }
  // Each client thread's CPU clock, read by the main thread at every mark.
  std::vector<clockid_t> thread_clocks(clients_.size());
  for (size_t i = 0; i < threads.size(); ++i) {
    pthread_getcpuclockid(threads[i].native_handle(), &thread_clocks[i]);
  }
  // Per client: operations, thread CPU time, and CPU and wall time spent
  // choosing a CPU.
  struct Mark {
    uint64_t wall_ns;
    std::vector<uint64_t> ops;
    std::vector<double> cpu_s;
    std::vector<double> repin_cpu_s;
    std::vector<double> repin_wall_s;
  };
  std::vector<Mark> marks;
  auto mark = [&] {
    Mark m{NowNs(), {}, {}, {}, {}};
    for (size_t i = 0; i < clients_.size(); ++i) {
      Client& client = *clients_[i];
      m.ops.push_back(client.progress.load(std::memory_order_relaxed));
      timespec ts{};
      clock_gettime(thread_clocks[i], &ts);
      m.cpu_s.push_back(static_cast<double>(ts.tv_sec) +
                        static_cast<double>(ts.tv_nsec) / 1e9);
      m.repin_cpu_s.push_back(
          static_cast<double>(client.repin_cpu_ns.load(std::memory_order_relaxed)) /
          1e9);
      m.repin_wall_s.push_back(
          static_cast<double>(client.repin_wall_ns.load(std::memory_order_relaxed)) /
          1e9);
      if (timed && pin) {
        client.repin_due.store(true, std::memory_order_relaxed);
      }
    }
    marks.push_back(std::move(m));
  };
  const double cpu_start = CpuSeconds();
  mark();
  const uint64_t wall_start = marks[0].wall_ns;
  go.store(true, std::memory_order_release);
  if (timed) {
    const uint64_t deadline =
        wall_start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t next_mark = wall_start + kWindowNs;
    uint64_t now = NowNs();
    while (done.load() < static_cast<int>(clients_.size()) && now < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      now = NowNs();
      if (now >= next_mark) {
        mark();
        next_mark += kWindowNs;
      }
    }
    stop.store(true);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Choosing CPUs is not part of the phase (only a single client does it).
  double repin_cpu_s = 0;
  double repin_wall_s = 0;
  for (auto& client : clients_) {
    repin_cpu_s += static_cast<double>(client->repin_cpu_ns.load()) / 1e9;
    repin_wall_s += static_cast<double>(client->repin_wall_ns.load()) / 1e9;
  }
  total.wall_s = Seconds(wall_start, NowNs()) - repin_wall_s;
  total.cpu_s = CpuSeconds() - cpu_start - repin_cpu_s;

  total.windows.resize(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    const std::vector<uint32_t>& samples = parts[i].wall_ns;
    for (size_t k = 1; k < marks.size(); ++k) {
      const Mark& m0 = marks[k - 1];
      const Mark& m1 = marks[k];
      const uint64_t from = m0.ops[i];
      const uint64_t to = std::min<uint64_t>(m1.ops[i], samples.size());
      if (to <= from) {
        continue;
      }
      std::vector<uint32_t> latencies(samples.begin() + from,
                                      samples.begin() + to);
      Window window;
      window.ops = to - from;
      window.wall_s = Seconds(m0.wall_ns, m1.wall_ns) -
                      (m1.repin_wall_s[i] - m0.repin_wall_s[i]);
      window.cpu_s = m1.cpu_s[i] - m0.cpu_s[i] - (m1.repin_cpu_s[i] - m0.repin_cpu_s[i]);
      window.latency = Summarize(latencies);
      total.windows[i].push_back(window);
    }
  }

  for (size_t i = 0; i < parts.size(); ++i) {
    PhaseResult& part = parts[i];
    total.ops += part.ops;
    total.gets += part.gets;
    total.puts += part.puts;
    total.failed += part.failed;
    total.put_bytes += part.put_bytes;
    total.get_page_lookups += part.get_page_lookups;
    total.virt_ns = std::max(total.virt_ns,
                             clients_[i]->lane.now_ns() - lane_start[i]);
    total.wall_ns.insert(total.wall_ns.end(), part.wall_ns.begin(),
                         part.wall_ns.end());
    total.virt_ns_per_op.insert(total.virt_ns_per_op.end(),
                                part.virt_ns_per_op.begin(),
                                part.virt_ns_per_op.end());
    total.read_hit_ns.insert(total.read_hit_ns.end(), part.read_hit_ns.begin(),
                             part.read_hit_ns.end());
    total.read_miss_ns.insert(total.read_miss_ns.end(),
                              part.read_miss_ns.begin(),
                              part.read_miss_ns.end());
  }
  total.after = Snapshot();
  return total;
}

void Bench::ClearSpans() {
  for (auto& client : clients_) {
    if (client->log != nullptr) {
      client->log->Clear();
    }
  }
}

std::vector<const SpanLog*> Bench::span_logs() const {
  std::vector<const SpanLog*> logs;
  for (const auto& client : clients_) {
    if (client->log != nullptr) {
      logs.push_back(client->log.get());
    }
  }
  return logs;
}

}  // namespace perfbench
