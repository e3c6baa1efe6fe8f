// Prefetch policy (the FetchBPF-style extension the paper sketches in §7:
// "FetchBPF allows customizing Linux's memory prefetching policy, and could
// easily be integrated into cache_ext as an additional hook").
//
// The policy tracks per-(mapping, thread) access streams in a bpf map and
// overrides the kernel's readahead heuristic through the readahead hook:
// confirmed sequential streams get a large fixed window immediately
// (no slow-start doubling), while random streams disable prefetch entirely
// (no wasted speculative reads). Eviction is left to the kernel default via
// the fallback path, so this composes like the admission filter does.

#ifndef SRC_POLICIES_PREFETCH_H_
#define SRC_POLICIES_PREFETCH_H_

#include <cstdint>

#include "src/cache_ext/ops.h"

namespace cache_ext::policies {

struct PrefetchParams {
  // Window granted to a confirmed sequential stream (pages).
  uint32_t sequential_window = 32;
  // Consecutive sequential misses before a stream is "confirmed".
  uint32_t confirm_after = 2;
  // Stream-table capacity ((mapping, tid) pairs).
  uint32_t max_streams = 1024;
};

Ops MakeStridePrefetcherOps(const PrefetchParams& params = {});

}  // namespace cache_ext::policies

#endif  // SRC_POLICIES_PREFETCH_H_
