// CacheExtPolicy: the framework adapter between the page cache and a loaded
// set of policy functions (§4).
//
// Responsibilities (matching the kernel-side cache_ext code):
//  - maintain the valid-folio registry across admissions/removals (§4.4);
//  - dispatch page-cache events to the policy's programs, each under a
//    bpf::RunContext enforcing the helper budget;
//  - validate eviction candidates by registry membership before the page
//    cache dereferences them;
//  - guarantee cleanup: on removal the folio is unlinked from any eviction
//    list and dropped from the registry even if the policy's program
//    misbehaves ("the kernel ensures that it is removed from any eviction
//    lists", §4.4);
//  - contain per-hook failures: every program outcome feeds a per-hook
//    circuit breaker, and a tripped hook is degraded to the default kernel
//    behaviour (registry bookkeeping still runs) while healthy hooks keep
//    dispatching. Escalation is reported through WantsDetach() and finished
//    by the page-cache watchdog.

#ifndef SRC_CACHE_EXT_FRAMEWORK_H_
#define SRC_CACHE_EXT_FRAMEWORK_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/cache_ext/circuit_breaker.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/ops.h"
#include "src/cache_ext/registry.h"
#include "src/pagecache/eviction.h"
#include "src/sim/cpu_cost.h"
#include "src/util/status.h"

namespace cache_ext {

class CacheExtPolicy : public ReclaimPolicy {
 public:
  CacheExtPolicy(Ops ops, MemCgroup* cg, const CpuCostModel& costs);

  // Runs the policy_init program. Load fails if it returns nonzero or
  // exhausts its budget.
  Status Init();

  // ReclaimPolicy interface -------------------------------------------------
  std::string_view name() const override { return ops_.name; }
  void FolioAdded(Folio* folio) override;
  void FolioAccessed(Folio* folio) override;
  void FolioRemoved(Folio* folio) override;
  void EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) override;
  bool AdmitFolio(const AdmissionCtx& ctx) override;
  int64_t RequestReadahead(const ReadaheadCtx& ctx) override;
  uint32_t AdmitOrder(const AdmitOrderCtx& ctx) override;
  bool ShouldWriteback(const WritebackCtx& ctx) override;
  int64_t WritebackOrder(const WritebackCtx& ctx) override;
  void FolioRefaulted(Folio* folio, uint32_t tier) override;
  bool ValidateCandidate(Folio* folio) override;
  uint64_t PerEventCostNs() const override { return per_event_cost_ns_; }
  PolicyHookHealth HookHealth() const override { return breaker_.Health(); }
  bool WantsDetach() const override { return breaker_.escalated(); }
  PolicyRuntimeCounters RuntimeCounters() const override;

  // Introspection ------------------------------------------------------------
  CacheExtApi& api() { return api_; }
  FolioRegistry& registry() { return registry_; }
  MemCgroup* cgroup() { return cg_; }
  const HookCircuitBreaker& breaker() const { return breaker_; }
  uint64_t aborted_programs() const {
    return aborted_programs_.load(std::memory_order_relaxed);
  }

 private:
  // Run one program under a RunContext, feeding the hook's breaker with the
  // outcome (abort = violation).
  template <typename Fn>
  void RunProgram(PolicyHook hook, Fn&& fn);

  // True when the hook is degraded: the program is skipped and the caller
  // applies the default kernel behaviour instead.
  bool Degraded(PolicyHook hook) const { return breaker_.Degraded(hook); }

  Ops ops_;
  MemCgroup* cg_;
  FolioRegistry registry_;
  CacheExtApi api_;
  uint64_t per_event_cost_ns_;
  HookCircuitBreaker breaker_;
  std::atomic<uint64_t> aborted_programs_{0};
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_FRAMEWORK_H_
