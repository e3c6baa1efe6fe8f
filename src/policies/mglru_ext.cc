#include "src/policies/mglru_ext.h"

#include <algorithm>
#include <array>
#include <memory>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/lru_hash_map.h"
#include "src/bpf/spinlock.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"
#include "src/pagecache/mglru.h"  // MglruPidController + TierOf (ported logic)

namespace cache_ext::policies {

namespace {

constexpr uint32_t kMaxGens = 4;
constexpr uint32_t kMinGens = 2;

struct GenFreq {
  uint32_t gen = 0;
  uint32_t freq = 0;
};

uint64_t GhostKey(const Folio* folio) {
  return (folio->mapping->id() << 40) ^ folio->index;
}

struct MglruExtState {
  explicit MglruExtState(const MglruExtParams& params)
      : meta(static_cast<uint32_t>(2 * params.capacity_pages + 16)),
        ghost(static_cast<uint32_t>(params.capacity_pages + 16)),
        scan_budget(params.scan_budget) {}

  std::array<uint64_t, kMaxGens> gen_lists = {};
  uint64_t min_seq = 0;
  uint64_t max_seq = kMinGens - 1;
  // Per-folio (gen, freq) in folio-local storage; the ghost keeps hash
  // keys because its entries outlive their folios by design.
  bpf::FolioLocalStorage<GenFreq> meta;
  bpf::LruHashMap<uint64_t, uint32_t> ghost;  // key -> tier at eviction
  MglruPidController pid;
  bpf::SpinLock aging_lock;  // serializes aging (§5.3)
  uint64_t scan_budget;

  uint64_t& ListFor(uint64_t seq) { return gen_lists[seq % kMaxGens]; }

  void TryAge() {
    if (max_seq - min_seq + 1 >= kMaxGens) {
      return;
    }
    ++max_seq;
    pid.Decay();
  }
};

}  // namespace

Ops MakeMglruExtOps(const MglruExtParams& params) {
  auto st = std::make_shared<MglruExtState>(params);

  Ops ops;
  ops.name = "mglru_ext";
  ops.program_cost_ns = 230;
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    for (uint32_t i = 0; i < kMaxGens; ++i) {
      auto list = api.ListCreate();
      if (!list.ok()) {
        return -1;
      }
      st->gen_lists[i] = *list;
    }
    return 0;
  };

  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    const uint64_t key = GhostKey(folio);
    uint32_t tier = 0;
    const bool refault = st->ghost.Lookup(key, &tier);
    if (refault) {
      st->ghost.Delete(key);
      st->pid.RecordRefault(tier);
    }
    // Refaulting folios join the youngest generation, fresh folios the
    // oldest (the preliminary filter).
    const uint64_t seq = refault ? st->max_seq : st->min_seq;
    if (GenFreq* gf = st->meta.GetOrCreate(folio); gf != nullptr) {
      gf->gen = static_cast<uint32_t>(seq);
      gf->freq = 0;
    }
    (void)api.ListAdd(st->ListFor(seq), folio, /*tail=*/true);
  };

  ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
    if (GenFreq* gf = st->meta.Lookup(folio); gf != nullptr) {
      if (gf->freq < UINT32_MAX) {
        ++gf->freq;
      }
    }
  };

  ops.folio_removed = [st](CacheExtApi&, Folio* folio) {
    uint32_t tier = 0;
    if (const GenFreq* gf = st->meta.Lookup(folio); gf != nullptr) {
      tier = MglruPolicy::TierOf(gf->freq);
    }
    st->ghost.Update(GhostKey(folio), tier);
    st->meta.Delete(folio);
  };

  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    bpf::SpinLockGuard aging(st->aging_lock);

    // Retire empty oldest generations; keep at least kMinGens.
    while (st->min_seq < st->max_seq) {
      auto size = api.ListSize(st->ListFor(st->min_seq));
      if (!size.ok() || *size > 0) {
        break;
      }
      ++st->min_seq;
    }
    while (st->max_seq - st->min_seq + 1 < kMinGens) {
      st->TryAge();
    }

    const int32_t threshold = st->pid.Threshold();
    uint64_t budget = st->scan_budget;

    // Walk generations oldest to youngest so pinned/protected folios in the
    // oldest generation cannot stall reclaim.
    for (uint64_t seq = st->min_seq;
         seq <= st->max_seq && !ctx->Full() && budget > 0; ++seq) {
      const uint64_t gen_id = st->ListFor(seq);
      auto size = api.ListSize(gen_id);
      if (!size.ok() || *size == 0) {
        continue;
      }
      const uint64_t promote_seq = seq + 1 <= st->max_seq ? seq + 1
                                                          : st->max_seq;
      IterOpts opts;
      opts.nr_scan = std::min<uint64_t>(budget, *size);
      budget -= opts.nr_scan;
      // Protected folios are promoted to the next generation; candidates
      // rotate within their generation.
      opts.on_skip = IterPlacement::kMoveToList;
      opts.dst_list_skip = st->ListFor(promote_seq);
      opts.on_evict = IterPlacement::kMoveToTail;
      (void)api.ListIterate(
          gen_id, opts, ctx, [st, threshold, promote_seq](Folio* folio) {
            GenFreq* gf = st->meta.Lookup(folio);
            const uint32_t freq = gf == nullptr ? 0 : gf->freq;
            const uint32_t tier = MglruPolicy::TierOf(freq);
            if (static_cast<int32_t>(tier) > threshold) {
              if (gf != nullptr) {
                gf->gen = static_cast<uint32_t>(promote_seq);
              }
              return IterVerdict::kSkip;  // promoted via on_skip placement
            }
            st->pid.RecordEviction(tier);
            return IterVerdict::kEvict;
          });
    }

    // Retire empty oldest generations; age on fruitless rounds.
    while (st->min_seq < st->max_seq) {
      auto size = api.ListSize(st->ListFor(st->min_seq));
      if (!size.ok() || *size > 0) {
        break;
      }
      ++st->min_seq;
    }
    if (!ctx->Full()) {
      st->TryAge();
    }
  };
  ops.collect_counters = [st](PolicyRuntimeCounters* counters) {
    const bpf::FolioLocalStorageStats s = st->meta.Stats();
    counters->ext_map_lookups += s.fallback_lookups;
    counters->ext_local_storage_hits += s.slot_hits;
  };
  {
    using bpf::verifier::Hook;
    using bpf::verifier::Kfunc;
    // Worst-case eviction: scan_budget examined folios across generations,
    // plus ListSize probes (<= 2 retire loops of kMaxGens-1 each and one per
    // generation walked).
    ops.spec.DeclareLists(kMaxGens)
        .DeclareCandidates(kMaxEvictionBatch)
        .DeclareLocalStorageMap("mglru_meta", 2 * params.capacity_pages + 16,
                                params.capacity_pages)
        .DeclareMap("mglru_ghost", params.capacity_pages + 16,
                    params.capacity_pages + 16)
        .DeclareHook(Hook::kPolicyInit, kMaxGens, {Kfunc::kListCreate})
        .DeclareHook(Hook::kFolioAdded, 1, {Kfunc::kListAdd})
        .DeclareHook(Hook::kFolioAccessed, 0)
        .DeclareHook(Hook::kFolioRemoved, 0)
        .DeclareHook(Hook::kEvictFolios, params.scan_budget + 16,
                     {Kfunc::kListSize, Kfunc::kListIterate},
                     /*max_loop_iters=*/params.scan_budget);
  }
  return ops;
}

}  // namespace cache_ext::policies
