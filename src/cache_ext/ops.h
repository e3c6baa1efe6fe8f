// cache_ext struct_ops: the policy-function interface (Fig. 3).
//
// A policy is a set of "eBPF programs" (C++ callables written against the
// constrained bpf:: interface) triggered by five events: policy
// initialization, request for eviction, folio admission, folio access, and
// folio removal (§4.2.1) — plus the optional admission-filter extension
// (§5.6). Programs interact with the kernel exclusively through the
// CacheExtApi kfunc surface (Table 2) and bpf:: maps; they run under a
// bpf::RunContext that enforces a helper-call budget (the runtime analogue
// of verifier-proved termination).

#ifndef SRC_CACHE_EXT_OPS_H_
#define SRC_CACHE_EXT_OPS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/bpf/verifier/spec.h"
#include "src/cache_ext/circuit_breaker.h"
#include "src/cgroup/memcg.h"
#include "src/mm/folio.h"
#include "src/pagecache/eviction.h"

namespace cache_ext {

namespace bpf::ir {
struct IrPolicy;
}  // namespace bpf::ir

class CacheExtApi;

inline constexpr size_t kCacheExtOpsNameLen = 64;

// Mirrors:
//   struct cache_ext_ops {
//     s32  (*policy_init)(struct mem_cgroup *memcg);
//     void (*evict_folios)(struct eviction_ctx *ctx, struct mem_cgroup *);
//     void (*folio_added)(struct folio *folio);
//     void (*folio_accessed)(struct folio *folio);
//     void (*folio_removed)(struct folio *folio);
//     char name[CACHE_EXT_OPS_NAME_LEN];
//   };
// Programs additionally receive the CacheExtApi handle standing in for the
// kfunc linkage an eBPF program gets implicitly.
struct Ops {
  std::string name;

  // Required hooks.
  std::function<int32_t(CacheExtApi&, MemCgroup*)> policy_init;
  std::function<void(CacheExtApi&, EvictionCtx*, MemCgroup*)> evict_folios;
  std::function<void(CacheExtApi&, Folio*)> folio_added;
  std::function<void(CacheExtApi&, Folio*)> folio_accessed;
  std::function<void(CacheExtApi&, Folio*)> folio_removed;

  // Optional hooks.
  std::function<bool(CacheExtApi&, const AdmissionCtx&)> admit_folio;
  std::function<void(CacheExtApi&, Folio*, uint32_t)> folio_refaulted;
  // Readahead window per miss run (ondemand_readahead analogue, the §7
  // FetchBPF-style prefetch extension): pages to read ahead, 0 to suppress
  // readahead, negative to defer to the kernel heuristic. Clamped to
  // PageCacheOptions::max_readahead_pages.
  std::function<int64_t(CacheExtApi&, const ReadaheadCtx&)> readahead;
  // Folio allocation order for an admission: 0 | 2 | 4. Any other return
  // is a violation (breaker-counted, treated as 0); the page cache also
  // falls back to 0 on misalignment or memcg pressure.
  std::function<uint32_t(CacheExtApi&, const AdmitOrderCtx&)> admit_order;
  // Writeback admission: false defers a harvested dirty folio to a later
  // flusher tick (ignored for fsync-driven harvests — durability wins).
  std::function<bool(CacheExtApi&, const WritebackCtx&)> should_writeback;
  // Flush-ordering key: each flush batch is sorted by ascending key before
  // extent coalescing. Negative defers to file offset order.
  std::function<int64_t(CacheExtApi&, const WritebackCtx&)> writeback_order;

  // Optional: add this policy's map counters (hash probes vs folio-local
  // storage hits) into `counters`. Policies wire this to the Stats() of
  // their bpf::FolioLocalStorage/bpf::HashMap instances; the framework
  // adds the eviction-arena counters itself. Not a program hook — no
  // RunContext, no budget, may be called concurrently with programs.
  std::function<void(PolicyRuntimeCounters*)> collect_counters;

  // Helper-call budget per program invocation (runtime stand-in for the
  // verifier's instruction limit).
  uint64_t helper_budget = 1 << 16;

  // Per-hook circuit-breaker thresholds for this policy's attachment (see
  // src/cache_ext/circuit_breaker.h).
  CircuitBreakerOptions breaker;

  // Declarative safety contract: worst-case helper calls, loop bounds, map
  // occupancy, and kfunc usage per hook. Policies that declare a spec get
  // the full load-time verifier (static proofs + instrumented dry run);
  // undeclared policies only receive the legacy presence/name checks. See
  // src/bpf/verifier/spec.h.
  bpf::verifier::ProgramSpec spec;

  // Set by ir::CompileToOps: the verified IR program the hook closures
  // interpret. When present, the loader runs the IR static analysis as
  // pass 0 and cross-checks that `spec` matches what it derives — an Ops
  // whose embedded spec disagrees with its own instructions is rejected.
  // Policies on the legacy std::function path leave this null and are
  // verified against their hand-declared spec only.
  std::shared_ptr<const bpf::ir::IrPolicy> ir;

  // Declared per-hook CPU cost charged to the acting lane on top of the
  // framework's dispatch/registry overhead (see src/sim/cpu_cost.h).
  uint64_t program_cost_ns = 120;
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_OPS_H_
