#include "src/policies/lhd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/ringbuf.h"
#include "src/cache_ext/eviction_list.h"

namespace cache_ext::policies {

namespace {

constexpr uint32_t kNumClasses = 16;
constexpr uint32_t kNumAges = 64;
// "eBPF does not support floating-point operations, so we resort to scaling
// values by a large constant" (§5.2).
constexpr int64_t kDensityScale = 1 << 20;

struct FolioMeta {
  uint64_t last_access = 0;
  uint32_t cls = 0;
  uint32_t hits = 0;  // hits received while resident
};

struct ClassStats {
  std::array<std::atomic<uint64_t>, kNumAges> hits = {};
  std::array<std::atomic<uint64_t>, kNumAges> evictions = {};
  // Scaled hit density per age bucket, updated by reconfiguration. Atomic so
  // the hot path can read while reconfiguration writes (§5.2: "atomic
  // operations ... with some potential inaccuracy").
  std::array<std::atomic<int64_t>, kNumAges> density = {};
};

struct LhdState {
  explicit LhdState(const LhdParams& params)
      : meta(static_cast<uint32_t>(2 * params.capacity_pages + 16)),
        ringbuf(4096),
        reconfig_interval(params.reconfig_interval),
        nr_scan(params.nr_scan),
        age_shift(params.age_shift) {
    // Optimistic priors: young folios dense, old folios sparse, so the
    // policy behaves sanely before the first reconfiguration.
    for (auto& cls : classes) {
      for (uint32_t age = 0; age < kNumAges; ++age) {
        cls.density[age].store(kDensityScale / (age + 1),
                               std::memory_order_relaxed);
      }
    }
  }

  uint64_t list = 0;
  // Folio-local storage: LHD touches meta on every add/access/remove AND
  // once per scanned folio in Score() — the hash probe here was the
  // single hottest map path in the reproduction before local storage.
  bpf::FolioLocalStorage<FolioMeta> meta;
  std::array<ClassStats, kNumClasses> classes;
  std::atomic<uint64_t> clock{0};   // coarse event clock
  std::atomic<uint64_t> events{0};  // events since last reconfiguration
  bpf::RingBuf ringbuf;
  uint64_t reconfig_interval;
  uint64_t nr_scan;
  uint32_t age_shift;

  uint32_t AgeBucket(uint64_t delta) const {
    const uint64_t bucket = delta >> age_shift;
    return bucket >= kNumAges ? kNumAges - 1 : static_cast<uint32_t>(bucket);
  }

  // Class from hit count and the age the folio had at its last access
  // ("classes based on their last access and their age at that time", §5.2):
  // 8 hit-count buckets x 2 age buckets. Separating never-hit folios from
  // frequently-hit ones is what lets the densities expose one-hit wonders.
  static uint32_t ClassFor(uint32_t hits, uint32_t age_at_access) {
    const uint32_t hit_bucket = static_cast<uint32_t>(
        std::bit_width(static_cast<uint64_t>(std::min(hits, 127u))));
    const uint32_t age_bit = age_at_access > 4 ? 1 : 0;
    const uint32_t cls = hit_bucket * 2 + age_bit;
    return cls >= kNumClasses ? kNumClasses - 1 : cls;
  }

  void NoteEvent() {
    const uint64_t n = events.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == reconfig_interval) {
      // Notify userspace that reconfiguration is due (§5.2); do not perform
      // it here — this is the insertion/access hot path.
      const uint8_t token = 1;
      ringbuf.OutputValue(token);
    }
  }

  // The reconfiguration "syscall program": EWMA-decay the distributions and
  // recompute hit densities bottom-up.
  void Reconfigure() {
    events.store(0, std::memory_order_relaxed);
    for (auto& cls : classes) {
      // Decay: new = 7/8 * old (EWMA).
      for (uint32_t age = 0; age < kNumAges; ++age) {
        cls.hits[age].store(cls.hits[age].load(std::memory_order_relaxed) *
                                7 / 8,
                            std::memory_order_relaxed);
        cls.evictions[age].store(
            cls.evictions[age].load(std::memory_order_relaxed) * 7 / 8,
            std::memory_order_relaxed);
      }
      // density(a) = hits beyond age a / total folio-lifetime beyond a.
      uint64_t hits_up = 0;
      uint64_t events_up = 0;
      uint64_t lifetime_up = 0;
      for (int age = static_cast<int>(kNumAges) - 1; age >= 0; --age) {
        hits_up += cls.hits[age].load(std::memory_order_relaxed);
        events_up += cls.hits[age].load(std::memory_order_relaxed) +
                     cls.evictions[age].load(std::memory_order_relaxed);
        lifetime_up += events_up;
        // +16 pseudo-lifetime smoothing: sparse tail ages (one hit observed
        // at age 60) must not produce huge densities that pin ancient
        // folios in the cache.
        const int64_t density =
            events_up == 0
                ? kDensityScale / (age + 1)  // no data: keep the prior
                : static_cast<int64_t>(hits_up * kDensityScale /
                                       (lifetime_up + 16));
        cls.density[age].store(density, std::memory_order_relaxed);
      }
    }
  }

  int64_t Score(const Folio* folio) {
    const FolioMeta* m = meta.Lookup(folio);
    if (m == nullptr) {
      return 0;  // unknown folio: evict first
    }
    const uint64_t now = clock.load(std::memory_order_relaxed);
    const uint32_t age = AgeBucket(now - m->last_access);
    return classes[m->cls].density[age].load(std::memory_order_relaxed);
  }
};

class LhdAgent : public UserspaceAgent {
 public:
  explicit LhdAgent(std::shared_ptr<LhdState> state)
      : state_(std::move(state)) {}

  void Poll() override {
    bool requested = false;
    state_->ringbuf.Consume(
        [&requested](std::span<const uint8_t>) { requested = true; });
    if (requested) {
      state_->Reconfigure();
    }
  }

 private:
  std::shared_ptr<LhdState> state_;
};

}  // namespace

LhdBundle MakeLhdPolicy(const LhdParams& params) {
  auto st = std::make_shared<LhdState>(params);

  Ops ops;
  ops.name = "lhd";
  ops.program_cost_ns = 180;
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto list = api.ListCreate();
    if (!list.ok()) {
      return -1;
    }
    st->list = *list;
    return 0;
  };

  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    (void)api.ListAdd(st->list, folio, /*tail=*/true);
    if (FolioMeta* m = st->meta.GetOrCreate(folio); m != nullptr) {
      m->last_access = st->clock.fetch_add(1, std::memory_order_relaxed) + 1;
      m->cls = 0;
      m->hits = 0;
    }
    st->NoteEvent();
  };

  ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
    const uint64_t now = st->clock.fetch_add(1, std::memory_order_relaxed) + 1;
    FolioMeta* m = st->meta.Lookup(folio);
    if (m == nullptr) {
      return;
    }
    const uint32_t age = st->AgeBucket(now - m->last_access);
    st->classes[m->cls].hits[age].fetch_add(1, std::memory_order_relaxed);
    if (m->hits < UINT32_MAX) {
      ++m->hits;
    }
    m->cls = LhdState::ClassFor(m->hits, age);
    m->last_access = now;
    st->NoteEvent();
  };

  ops.folio_removed = [st](CacheExtApi&, Folio* folio) {
    const uint64_t now = st->clock.load(std::memory_order_relaxed);
    if (const FolioMeta* m = st->meta.Lookup(folio); m != nullptr) {
      const uint32_t age = st->AgeBucket(now - m->last_access);
      st->classes[m->cls].evictions[age].fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    st->meta.Delete(folio);
  };

  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    // Safety valve: if the userspace agent is far behind (e.g. not being
    // polled), reconfigure inline rather than decay into noise.
    if (st->events.load(std::memory_order_relaxed) >
        4 * st->reconfig_interval) {
      st->Reconfigure();
    }
    IterOpts opts;
    opts.nr_scan = st->nr_scan;
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    (void)api.ListIterateScore(
        st->list, opts, ctx,
        [st](Folio* folio) -> int64_t { return st->Score(folio); });
  };

  ops.collect_counters = [st](PolicyRuntimeCounters* counters) {
    const bpf::FolioLocalStorageStats s = st->meta.Stats();
    counters->ext_map_lookups += s.fallback_lookups;
    counters->ext_local_storage_hits += s.slot_hits;
  };

  {
    using bpf::verifier::Hook;
    using bpf::verifier::Kfunc;
    ops.spec.DeclareLists(1)
        .DeclareCandidates(kMaxEvictionBatch)
        .DeclareLocalStorageMap("lhd_meta", 2 * params.capacity_pages + 16,
                                params.capacity_pages)
        .DeclareMap("lhd_reconfig_ringbuf", 4096, 4096)
        .DeclareHook(Hook::kPolicyInit, 1, {Kfunc::kListCreate})
        .DeclareHook(Hook::kFolioAdded, 1, {Kfunc::kListAdd})
        .DeclareHook(Hook::kFolioAccessed, 0)
        .DeclareHook(Hook::kFolioRemoved, 0)
        .DeclareHook(Hook::kEvictFolios, 1 + params.nr_scan,
                     {Kfunc::kListIterateScore},
                     /*max_loop_iters=*/params.nr_scan);
  }

  LhdBundle bundle;
  bundle.ops = std::move(ops);
  bundle.agent = std::make_shared<LhdAgent>(st);
  return bundle;
}

}  // namespace cache_ext::policies
