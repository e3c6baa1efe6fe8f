#include "src/bpf/ir/compile.h"

#include <atomic>
#include <memory>
#include <utility>

#include "src/bpf/ir/interp.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/verifier/ir_verifier.h"

namespace cache_ext::bpf::ir {

using verifier::Hook;

namespace {

std::atomic<Backend> g_default_backend{Backend::kJit};

// The closures' dispatch handle: the interpreter runtime always exists
// (it owns the maps and is the fallback); the JIT runtime wraps it when
// the jit backend is selected. One predicted branch per dispatch.
struct ExecHandle {
  std::shared_ptr<IrRuntime> interp;
  std::shared_ptr<jit::JitRuntime> jit;

  int64_t Run(Hook hook, CacheExtApi& api, const HookCtx& hctx) const {
    return jit != nullptr ? jit->Execute(hook, api, hctx)
                          : interp->Execute(hook, api, hctx);
  }
};

}  // namespace

Backend DefaultBackend() {
  return g_default_backend.load(std::memory_order_relaxed);
}

void SetDefaultBackend(Backend backend) {
  g_default_backend.store(backend, std::memory_order_relaxed);
}

Expected<cache_ext::Ops> CompileToOps(const IrPolicy& policy,
                                      verifier::VerifierLog* log,
                                      const CompileOptions& opts) {
  verifier::VerifierLog local_log;
  verifier::VerifierLog* out = log != nullptr ? log : &local_log;
  auto analysis = verifier::AnalyzeIrPolicy(policy, out);
  if (!analysis.ok()) {
    return analysis.status();
  }

  ExecHandle exec;
  exec.interp = std::make_shared<IrRuntime>(policy);
  const Backend backend = opts.backend.value_or(DefaultBackend());
  if (backend == Backend::kJit) {
    exec.jit = std::make_shared<jit::JitRuntime>(exec.interp, *analysis);
  }
  const IrPolicy& prog = exec.interp->policy();

  cache_ext::Ops ops;
  ops.name = prog.name;
  ops.helper_budget = prog.helper_budget;
  ops.program_cost_ns = prog.program_cost_ns;
  ops.spec = std::move(analysis->spec);
  // Expose the verified program so the loader's pass 0 can re-derive the
  // spec and reject any tampering between compile and attach.
  ops.ir = std::shared_ptr<const IrPolicy>(exec.interp,
                                           &exec.interp->policy());

  ops.policy_init = [exec](CacheExtApi& api, MemCgroup*) -> int32_t {
    return static_cast<int32_t>(
        exec.Run(Hook::kPolicyInit, api, HookCtx{}));
  };
  ops.evict_folios = [exec](CacheExtApi& api, EvictionCtx* ctx,
                            MemCgroup*) {
    HookCtx hctx;
    hctx.evict = ctx;
    exec.Run(Hook::kEvictFolios, api, hctx);
  };
  auto folio_hook = [exec](Hook hook) {
    return [exec, hook](CacheExtApi& api, Folio* folio) {
      HookCtx hctx;
      hctx.folio = folio;
      exec.Run(hook, api, hctx);
    };
  };
  ops.folio_added = folio_hook(Hook::kFolioAdded);
  ops.folio_accessed = folio_hook(Hook::kFolioAccessed);
  ops.folio_removed = folio_hook(Hook::kFolioRemoved);

  if (prog.HookPresent(Hook::kAdmitFolio)) {
    ops.admit_folio = [exec](CacheExtApi& api,
                             const AdmissionCtx& ctx) -> bool {
      HookCtx hctx;
      hctx.admit = &ctx;
      return exec.Run(Hook::kAdmitFolio, api, hctx) != 0;
    };
  }
  if (prog.HookPresent(Hook::kFolioRefaulted)) {
    ops.folio_refaulted = [exec](CacheExtApi& api, Folio* folio,
                                 uint32_t tier) {
      HookCtx hctx;
      hctx.folio = folio;
      hctx.tier = tier;
      exec.Run(Hook::kFolioRefaulted, api, hctx);
    };
  }
  if (prog.HookPresent(Hook::kRequestPrefetch)) {
    ops.request_prefetch = [exec](CacheExtApi& api,
                                  const PrefetchCtx& ctx) -> int64_t {
      HookCtx hctx;
      hctx.prefetch = &ctx;
      return exec.Run(Hook::kRequestPrefetch, api, hctx);
    };
  }
  if (prog.HookPresent(Hook::kReadahead)) {
    ops.readahead = [exec](CacheExtApi& api,
                           const ReadaheadCtx& ctx) -> int64_t {
      HookCtx hctx;
      hctx.readahead = &ctx;
      return exec.Run(Hook::kReadahead, api, hctx);
    };
  }
  if (prog.HookPresent(Hook::kAdmitOrder)) {
    ops.admit_order = [exec](CacheExtApi& api,
                             const AdmitOrderCtx& ctx) -> uint32_t {
      HookCtx hctx;
      hctx.admit_order = &ctx;
      return static_cast<uint32_t>(exec.Run(Hook::kAdmitOrder, api, hctx));
    };
  }
  if (prog.HookPresent(Hook::kShouldWriteback)) {
    ops.should_writeback = [exec](CacheExtApi& api,
                                  const WritebackCtx& ctx) -> bool {
      HookCtx hctx;
      hctx.writeback = &ctx;
      return exec.Run(Hook::kShouldWriteback, api, hctx) != 0;
    };
  }
  if (prog.HookPresent(Hook::kWritebackOrder)) {
    ops.writeback_order = [exec](CacheExtApi& api,
                                 const WritebackCtx& ctx) -> int64_t {
      HookCtx hctx;
      hctx.writeback = &ctx;
      return exec.Run(Hook::kWritebackOrder, api, hctx);
    };
  }
  ops.collect_counters = [exec](PolicyRuntimeCounters* counters) {
    counters->ext_map_lookups += exec.interp->MapLookups();
    if (exec.jit != nullptr) {
      counters->ext_ir_jit_compiles += exec.jit->compiles();
      counters->ext_ir_jit_ns += exec.jit->compile_ns();
      counters->ext_ir_interp_fallbacks += exec.jit->interp_fallbacks();
    }
  };
  return ops;
}

}  // namespace cache_ext::bpf::ir
