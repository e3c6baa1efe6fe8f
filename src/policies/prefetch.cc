#include "src/policies/prefetch.h"

#include <memory>

#include "src/bpf/lru_hash_map.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"

namespace cache_ext::policies {

namespace {

struct StreamState {
  uint64_t last_index = 0;
  uint32_t sequential_run = 0;
};

uint64_t StreamKey(const AddressSpace* mapping, int32_t tid) {
  return (mapping->id() << 20) ^ static_cast<uint64_t>(tid);
}

}  // namespace

Ops MakeStridePrefetcherOps(const PrefetchParams& params) {
  struct State {
    explicit State(const PrefetchParams& p)
        : streams(p.max_streams), params(p) {}
    // LRU map: cold streams age out naturally.
    bpf::LruHashMap<uint64_t, StreamState> streams;
    PrefetchParams params;
  };
  auto st = std::make_shared<State>(params);

  Ops ops;
  ops.name = "stride_prefetcher";
  ops.program_cost_ns = 60;
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  // Eviction stays with the kernel default (fallback path).
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};

  // One stride tracker per (mapping, thread), consulted once per miss run.
  ops.readahead = [st](CacheExtApi&, const ReadaheadCtx& ctx) -> int64_t {
    const uint64_t key = StreamKey(ctx.mapping, ctx.tid);
    StreamState stream;
    const bool known = st->streams.Lookup(key, &stream);
    // Forward progress within a small gap counts as sequential: consumers
    // that read in multi-page chunks advance many pages per miss.
    const bool sequential = known && ctx.index > stream.last_index &&
                            ctx.index - stream.last_index <= 32;
    stream.sequential_run = sequential ? stream.sequential_run + 1 : 0;
    stream.last_index = ctx.index;
    st->streams.Update(key, stream);
    if (stream.sequential_run >= st->params.confirm_after) {
      // Confirmed stream: full window immediately, no slow start.
      return st->params.sequential_window;
    }
    // Unconfirmed/random: no speculative reads at all.
    return 0;
  };
  {
    using bpf::verifier::Hook;
    ops.spec
        .DeclareMap("prefetch_streams", params.max_streams,
                    params.max_streams)
        .DeclareHook(Hook::kPolicyInit, 0)
        .DeclareHook(Hook::kEvictFolios, 0)
        .DeclareHook(Hook::kFolioAdded, 0)
        .DeclareHook(Hook::kFolioAccessed, 0)
        .DeclareHook(Hook::kFolioRemoved, 0)
        .DeclareHook(Hook::kReadahead, 0);
  }
  return ops;
}

}  // namespace cache_ext::policies
