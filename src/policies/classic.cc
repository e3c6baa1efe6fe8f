#include "src/policies/classic.h"

#include <memory>

#include "src/bpf/folio_local_storage.h"
#include "src/cache_ext/eviction_list.h"

namespace cache_ext::policies {

using bpf::verifier::Hook;
using bpf::verifier::Kfunc;

Ops MakeLfuOps(const LfuParams& params) {
  struct State {
    explicit State(uint32_t max_folios) : freq(max_folios) {}
    uint64_t list = 0;
    // Folio-local storage: the per-access frequency bump resolves
    // through the folio's storage slot (one indexed load) instead of a
    // hash probe. Freed with the folio on every removal path, so the
    // explicit folio_removed Delete below is belt-and-suspenders.
    bpf::FolioLocalStorage<uint64_t> freq;
    uint64_t nr_scan = 512;
  };
  auto st = std::make_shared<State>(params.max_folios);
  st->nr_scan = params.nr_scan;

  Ops ops;
  ops.name = "lfu";
  ops.program_cost_ns = 110;
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto list = api.ListCreate();
    if (!list.ok()) {
      return -1;
    }
    st->list = *list;
    return 0;
  };
  // Mirrors lfu_folio_added() in Fig. 4.
  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    (void)api.ListAdd(st->list, folio, /*tail=*/true);
    if (uint64_t* freq = st->freq.GetOrCreate(folio); freq != nullptr) {
      *freq = 1;
    }
  };
  ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
    if (uint64_t* freq = st->freq.Lookup(folio); freq != nullptr) {
      ++*freq;  // __sync_fetch_and_add in the eBPF version
    }
  };
  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    IterOpts opts;
    opts.nr_scan = st->nr_scan;
    // Folios not selected as candidates are moved to the end of the list by
    // list_iterate() (§4.2.5).
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    (void)api.ListIterateScore(
        st->list, opts, ctx, [st](Folio* folio) -> int64_t {
          const uint64_t* freq = st->freq.Lookup(folio);
          return freq == nullptr ? 0 : static_cast<int64_t>(*freq);
        });
  };
  ops.folio_removed = [st](CacheExtApi&, Folio* folio) {
    st->freq.Delete(folio);
  };
  ops.collect_counters = [st](PolicyRuntimeCounters* counters) {
    const bpf::FolioLocalStorageStats s = st->freq.Stats();
    counters->ext_map_lookups += s.fallback_lookups;
    counters->ext_local_storage_hits += s.slot_hits;
  };
  // freq holds one entry per resident folio; capacity-bounded by the map.
  ops.spec.DeclareLists(1)
      .DeclareCandidates(kMaxEvictionBatch)
      .DeclareLocalStorageMap("lfu_freq", params.max_folios,
                              params.max_folios)
      .DeclareHook(Hook::kPolicyInit, 1, {Kfunc::kListCreate})
      .DeclareHook(Hook::kFolioAdded, 1, {Kfunc::kListAdd})
      .DeclareHook(Hook::kFolioAccessed, 0)
      .DeclareHook(Hook::kFolioRemoved, 0)
      .DeclareHook(Hook::kEvictFolios, 1 + params.nr_scan,
                   {Kfunc::kListIterateScore},
                   /*max_loop_iters=*/params.nr_scan);
  return ops;
}

}  // namespace cache_ext::policies
