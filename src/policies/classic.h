// LFU on cache_ext (§4.2.5), written the way the paper's eBPF program is:
// frequencies in folio-local storage, folios organized via the
// eviction-list kfuncs, no floating point, and failures of map updates
// tolerated (the framework's fallback covers under-proposal). It stays a
// native policy until the IR has folio-local storage; noop, FIFO and MRU
// are IR programs (ir_policies.h).

#ifndef SRC_POLICIES_CLASSIC_H_
#define SRC_POLICIES_CLASSIC_H_

#include <cstdint>

#include "src/cache_ext/ops.h"

namespace cache_ext::policies {

struct LfuParams {
  // Map capacity; size to the cgroup's page limit (plus slack).
  uint32_t max_folios = 1 << 20;
  // Batch-scoring window: examine the first N folios, evict the C
  // least-frequently-used (§4.2.5).
  uint64_t nr_scan = 512;
};
// LFU via batch-scoring list_iterate, mirroring Fig. 4.
Ops MakeLfuOps(const LfuParams& params = {});

}  // namespace cache_ext::policies

#endif  // SRC_POLICIES_CLASSIC_H_
