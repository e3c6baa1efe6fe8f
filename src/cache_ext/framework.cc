#include "src/cache_ext/framework.h"

#include "src/bpf/prog.h"
#include "src/fault/fault_injector.h"
#include "src/util/logging.h"

namespace cache_ext {

namespace {
// Garbage candidate pointer planted by the kCandidateCorrupt fault. Never
// dereferenced: the registry membership check must reject it before the
// page cache touches it (that rejection is the property under test).
Folio* PoisonCandidate() {
  return reinterpret_cast<Folio*>(static_cast<uintptr_t>(0x5ca1ab1edeadULL));
}
}  // namespace

CacheExtPolicy::CacheExtPolicy(Ops ops, MemCgroup* cg,
                               const CpuCostModel& costs)
    : ops_(std::move(ops)),
      cg_(cg),
      // Worst case: one bucket per page the cgroup can hold (§6.3.1).
      registry_(cg->limit_pages()),
      api_(&registry_),
      per_event_cost_ns_(costs.hook_dispatch_ns + costs.registry_op_ns +
                         ops_.program_cost_ns) {}

template <typename Fn>
void CacheExtPolicy::RunProgram(PolicyHook hook, Fn&& fn) {
  bpf::RunContext run(ops_.helper_budget);
  fn();
  const bool aborted = run.aborted();
  if (aborted) {
    aborted_programs_.fetch_add(1, std::memory_order_relaxed);
  }
  if (breaker_.Record(hook, aborted)) {
    LOG_WARNING << "cache_ext breaker: policy '" << ops_.name << "' hook '"
                << PolicyHookName(hook)
                << "' tripped; degrading this hook to default behaviour";
  }
}

Status CacheExtPolicy::Init() {
  if (fault::InjectFault(fault::points::kPolicyInit)) {
    return FailedPrecondition("policy_init failed (injected)");
  }
  int32_t rc = 0;
  bpf::RunContext run(ops_.helper_budget);
  rc = ops_.policy_init(api_, cg_);
  if (run.aborted()) {
    return ResourceExhausted("policy_init exhausted its helper budget");
  }
  if (rc != 0) {
    return FailedPrecondition("policy_init returned " + std::to_string(rc));
  }
  return OkStatus();
}

void CacheExtPolicy::FolioAdded(Folio* folio) {
  // Register first: the program's list_add() needs the registry entry. The
  // registry insert is a kernel obligation and runs even when the hook is
  // degraded — candidate validation depends on it.
  registry_.Insert(folio);
  if (Degraded(PolicyHook::kAdded)) {
    return;
  }
  RunProgram(PolicyHook::kAdded, [&] { ops_.folio_added(api_, folio); });
}

void CacheExtPolicy::FolioAccessed(Folio* folio) {
  // The page cache pinned this folio for the hook, so the registry trusts
  // it and resolves it through its owner slot (no hash probe).
  if (registry_.FindTrusted(folio) == nullptr) {
    // Should not happen (attach introduces resident folios), but a policy
    // must never observe unregistered folios.
    FolioAdded(folio);
    return;
  }
  if (Degraded(PolicyHook::kAccess)) {
    return;
  }
  RunProgram(PolicyHook::kAccess, [&] { ops_.folio_accessed(api_, folio); });
}

void CacheExtPolicy::FolioRemoved(Folio* folio) {
  if (registry_.FindTrusted(folio) == nullptr) {
    return;
  }
  // Tell the policy first (it cleans its maps while the folio is still
  // registered), then enforce cleanup regardless of what the program did:
  // unlink from any eviction list and drop the registry entry (§4.4). A
  // degraded hook skips only the program — cleanup is unconditional.
  if (!Degraded(PolicyHook::kRemoved)) {
    RunProgram(PolicyHook::kRemoved, [&] { ops_.folio_removed(api_, folio); });
  }
  api_.UnlinkForRemoval(folio);
  registry_.Remove(folio);
}

void CacheExtPolicy::EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) {
  if (Degraded(PolicyHook::kEvict)) {
    // Propose nothing: the page cache's under-proposal fallback (§4.4)
    // evicts via the default policy for the remainder of the batch.
    return;
  }
  RunProgram(PolicyHook::kEvict,
             [&] { ops_.evict_folios(api_, ctx, memcg); });
  // Injected corruption: overwrite one proposed candidate with a garbage
  // pointer, as if the policy returned a stale/forged folio. Validation
  // must reject it (feeding this hook's breaker) without dereferencing.
  if (ctx->nr_candidates_proposed > 0 &&
      fault::InjectFault(fault::points::kCandidateCorrupt)) {
    ctx->candidates[ctx->nr_candidates_proposed - 1] = PoisonCandidate();
  }
}

bool CacheExtPolicy::AdmitFolio(const AdmissionCtx& ctx) {
  if (!ops_.admit_folio || Degraded(PolicyHook::kAdmit)) {
    // Default kernel behaviour: admit everything.
    return true;
  }
  bool admit = true;
  RunProgram(PolicyHook::kAdmit,
             [&] { admit = ops_.admit_folio(api_, ctx); });
  return admit;
}

int64_t CacheExtPolicy::RequestReadahead(const ReadaheadCtx& ctx) {
  if (!ops_.readahead || Degraded(PolicyHook::kReadahead)) {
    return -1;  // defer to the kernel readahead heuristic (window <= 8)
  }
  int64_t window = -1;
  RunProgram(PolicyHook::kReadahead,
             [&] { window = ops_.readahead(api_, ctx); });
  // Injected misfire: the policy "returns" a wild window, as if its stream
  // tracking went off the rails. The page cache's max_readahead_pages clamp
  // must contain it (surfaced via ext_readahead_clamped).
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kReadaheadMisfire, &magnitude)) {
    window = magnitude != 0 ? static_cast<int64_t>(magnitude)
                            : static_cast<int64_t>(1) << 32;
  }
  return window;
}

uint32_t CacheExtPolicy::AdmitOrder(const AdmitOrderCtx& ctx) {
  if (!ops_.admit_order || Degraded(PolicyHook::kOrder)) {
    return 0;  // default kernel behaviour: single-page folios
  }
  uint32_t order = 0;
  RunProgram(PolicyHook::kOrder,
             [&] { order = ops_.admit_order(api_, ctx); });
  if (!ValidFolioOrder(order)) {
    // An out-of-set order is a policy violation, not a preference: count it
    // against this hook's breaker and fall back to a single page.
    if (breaker_.Record(PolicyHook::kOrder, true)) {
      LOG_WARNING << "cache_ext breaker: policy '" << ops_.name
                  << "' order hook tripped on invalid orders";
    }
    return 0;
  }
  return order;
}

bool CacheExtPolicy::ShouldWriteback(const WritebackCtx& ctx) {
  if (!ops_.should_writeback || Degraded(PolicyHook::kShouldWriteback)) {
    return true;  // default kernel behaviour: flush every harvested folio
  }
  bool flush = true;
  RunProgram(PolicyHook::kShouldWriteback,
             [&] { flush = ops_.should_writeback(api_, ctx); });
  // Durability override: fsync-driven harvests may not be vetoed — a policy
  // deferring folios an fsync needs would turn a hint into data loss.
  return flush || ctx.for_sync;
}

int64_t CacheExtPolicy::WritebackOrder(const WritebackCtx& ctx) {
  if (!ops_.writeback_order || Degraded(PolicyHook::kWritebackOrder)) {
    return -1;  // defer to file offset order
  }
  int64_t key = -1;
  RunProgram(PolicyHook::kWritebackOrder,
             [&] { key = ops_.writeback_order(api_, ctx); });
  return key;
}

void CacheExtPolicy::FolioRefaulted(Folio* folio, uint32_t tier) {
  if (!ops_.folio_refaulted || Degraded(PolicyHook::kRefault)) {
    return;
  }
  RunProgram(PolicyHook::kRefault,
             [&] { ops_.folio_refaulted(api_, folio, tier); });
}

PolicyRuntimeCounters CacheExtPolicy::RuntimeCounters() const {
  PolicyRuntimeCounters counters;
  if (ops_.collect_counters) {
    ops_.collect_counters(&counters);
  }
  const EvictionArenaStats arena = api_.ArenaStats();
  counters.ext_evict_alloc_bytes = arena.alloc_bytes;
  counters.ext_evict_arena_reuses = arena.reuses;
  return counters;
}

bool CacheExtPolicy::ValidateCandidate(Folio* folio) {
  // Membership check only — the pointer is NOT dereferenced (§4.4).
  const bool valid = registry_.Contains(folio);
  if (!valid) {
    // An invalid candidate is an eviction-hook violation: it feeds the same
    // breaker as a program abort, so a policy spewing garbage pointers
    // degrades its evict hook before the global watchdog limit is reached.
    if (breaker_.Record(PolicyHook::kEvict, true)) {
      LOG_WARNING << "cache_ext breaker: policy '" << ops_.name
                  << "' evict hook tripped on invalid candidates";
    }
  }
  return valid;
}

}  // namespace cache_ext
