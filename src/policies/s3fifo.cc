#include "src/policies/s3fifo.h"

#include <algorithm>
#include <memory>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/lru_hash_map.h"
#include "src/bpf/map.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"

namespace cache_ext::policies {

uint64_t S3FifoGhostKey(const Folio* folio) {
  // address_space pointer + offset in the paper; we use the mapping's stable
  // id, which plays the same role.
  return (folio->mapping->id() << 40) ^ folio->index;
}

Ops MakeS3FifoOps(const S3FifoParams& params) {
  struct State {
    State(uint64_t capacity, uint32_t small_pct, uint32_t threshold)
        : freq(static_cast<uint32_t>(2 * capacity + 16)),
          ghost(static_cast<uint32_t>(capacity + 16)),
          small_percent(small_pct),
          promote_threshold(threshold) {}

    uint64_t small_list = 0;
    uint64_t main_list = 0;
    // Per-folio access count in folio-local storage (hot: bumped on
    // every access, probed per scanned folio during eviction). The
    // ghost stays a hash map — its keys are (mapping, index) of folios
    // that are already gone, so there is no owner to hang storage off.
    bpf::FolioLocalStorage<uint32_t> freq;
    bpf::LruHashMap<uint64_t, uint8_t> ghost;
    uint32_t small_percent;
    uint32_t promote_threshold;
  };
  auto st = std::make_shared<State>(params.capacity_pages,
                                    params.small_percent,
                                    params.promote_threshold);

  Ops ops;
  ops.name = "s3fifo";
  ops.program_cost_ns = 150;
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto small = api.ListCreate();
    auto main = api.ListCreate();
    if (!small.ok() || !main.ok()) {
      return -1;
    }
    st->small_list = *small;
    st->main_list = *main;
    return 0;
  };

  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    const uint64_t key = S3FifoGhostKey(folio);
    const bool was_ghost = st->ghost.Contains(key);
    if (was_ghost) {
      st->ghost.Delete(key);
    }
    (void)st->freq.GetOrCreate(folio);  // zero-initialized access count
    // Ghost hit -> readmit directly to the main FIFO; otherwise start in the
    // small FIFO, which filters one-hit wonders.
    (void)api.ListAdd(was_ghost ? st->main_list : st->small_list, folio,
                      /*tail=*/true);
  };

  ops.folio_accessed = [st](CacheExtApi&, Folio* folio) {
    if (uint32_t* freq = st->freq.Lookup(folio); freq != nullptr) {
      *freq = std::min<uint32_t>(*freq + 1, 3);  // saturating, as in S3-FIFO
    }
  };

  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    auto small_size = api.ListSize(st->small_list);
    auto main_size = api.ListSize(st->main_list);
    if (!small_size.ok() || !main_size.ok()) {
      return;
    }
    const uint64_t total = *small_size + *main_size;
    const bool evict_small =
        total > 0 && *small_size * 100 >= total * st->small_percent;

    const auto evict_from_small = [&] {
      IterOpts opts;
      opts.nr_scan = 8 * ctx->nr_candidates_requested;
      // Folios accessed more than once are promoted into the main FIFO
      // (balancing the lists); candidates rotate to the small tail so they
      // aren't re-examined before the kernel evicts them (§5.1).
      opts.on_skip = IterPlacement::kMoveToList;
      opts.dst_list_skip = st->main_list;
      opts.on_evict = IterPlacement::kMoveToTail;
      (void)api.ListIterate(st->small_list, opts, ctx, [st](Folio* folio) {
        const uint32_t* freq = st->freq.Lookup(folio);
        if (freq != nullptr && *freq > st->promote_threshold) {
          return IterVerdict::kSkip;  // promote
        }
        return IterVerdict::kEvict;
      });
    };

    const auto evict_from_main = [&] {
      IterOpts opts;
      opts.nr_scan = 8 * ctx->nr_candidates_requested;
      opts.on_skip = IterPlacement::kMoveToTail;  // second chance
      opts.on_evict = IterPlacement::kMoveToTail;
      (void)api.ListIterate(st->main_list, opts, ctx, [st](Folio* folio) {
        uint32_t* freq = st->freq.Lookup(folio);
        if (freq != nullptr && *freq > 0) {
          --*freq;
          return IterVerdict::kSkip;
        }
        return IterVerdict::kEvict;
      });
    };

    if (evict_small) {
      evict_from_small();
      if (!ctx->Full()) {
        evict_from_main();
      }
    } else {
      evict_from_main();
      if (!ctx->Full()) {
        evict_from_small();
      }
    }
  };

  ops.folio_removed = [st](CacheExtApi& api, Folio* folio) {
    // Only folios evicted from the small FIFO enter the ghost (the whole
    // point is remembering quickly-demoted objects).
    auto list_id = api.ListIdOf(folio);
    if (list_id.ok() && *list_id == st->small_list) {
      st->ghost.Update(S3FifoGhostKey(folio), 1);
    }
    st->freq.Delete(folio);
  };
  ops.collect_counters = [st](PolicyRuntimeCounters* counters) {
    const bpf::FolioLocalStorageStats s = st->freq.Stats();
    counters->ext_map_lookups += s.fallback_lookups;
    counters->ext_local_storage_hits += s.slot_hits;
  };
  {
    using bpf::verifier::Hook;
    using bpf::verifier::Kfunc;
    // Worst-case eviction: two ListSize probes plus a full 8x-batch scan of
    // each FIFO (each examined folio charges one helper call).
    const uint64_t scan = 8 * kMaxEvictionBatch;
    ops.spec.DeclareLists(2)
        .DeclareCandidates(kMaxEvictionBatch)
        .DeclareLocalStorageMap("s3fifo_freq", 2 * params.capacity_pages + 16,
                                params.capacity_pages)
        .DeclareMap("s3fifo_ghost", params.capacity_pages + 16,
                    params.capacity_pages + 16)
        .DeclareHook(Hook::kPolicyInit, 2, {Kfunc::kListCreate})
        .DeclareHook(Hook::kFolioAdded, 1, {Kfunc::kListAdd})
        .DeclareHook(Hook::kFolioAccessed, 0)
        .DeclareHook(Hook::kFolioRemoved, 1, {Kfunc::kListIdOf})
        .DeclareHook(Hook::kEvictFolios, 2 + 2 * (1 + scan),
                     {Kfunc::kListSize, Kfunc::kListIterate},
                     /*max_loop_iters=*/2 * scan);
  }
  return ops;
}

}  // namespace cache_ext::policies
