// The IR interpreter: executes a *verified* IrPolicy against the CacheExtApi
// kfunc surface. This is the reference backend of the IR path — the analogue
// of the kernel's ___bpf_prog_run() executing bytecode the verifier already
// proved safe. The JIT backend (src/bpf/jit/) is the fast path; the
// interpreter stays as the differential-testing oracle and the fallback when
// lowering fails. It performs no semantic checking of its own beyond cheap
// defensive backstops; CompileToOps (compile.h) refuses to construct a
// runtime for a policy the static analysis rejected.
//
// Execution is lock-free: registers and loop state live in a per-invocation
// stack-allocated frame, and IrMap (ir_map.h) carries its own sharded
// concurrency story — so concurrent hook dispatch from the batched (PR 3)
// and lockless-read (PR 5) paths scales instead of serializing through a
// runtime-wide mutex.

#ifndef SRC_BPF_IR_INTERP_H_
#define SRC_BPF_IR_INTERP_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/bpf/ir/exec.h"
#include "src/bpf/ir/ir.h"
#include "src/bpf/ir/ir_map.h"
#include "src/pagecache/eviction.h"

namespace cache_ext {
class CacheExtApi;
}  // namespace cache_ext

namespace cache_ext::bpf::ir {

// One loaded IR policy's execution state: the instructions plus its maps.
// Execute() is safe to call from any number of threads concurrently; each
// invocation is a private virtual CPU (stack registers), and the maps are
// internally synchronized.
class IrRuntime {
 public:
  explicit IrRuntime(IrPolicy policy);

  const IrPolicy& policy() const { return policy_; }

  // Run the hook's program; returns the final R0 (meaningful for
  // policy_init / admit_folio / readahead).
  int64_t Execute(verifier::Hook hook, CacheExtApi& api, const HookCtx& hctx);

  // Sum of hash probes across this policy's maps (collect_counters).
  uint64_t MapLookups() const;

  // Map access for the JIT backend (devirtualized map steps) and tests.
  size_t nr_maps() const { return maps_.size(); }
  IrMap* map(size_t idx) const { return maps_[idx].get(); }

 private:
  // Execute [begin, end); returns true when a kExit ran (top level only —
  // the verifier proves loop bodies never exit).
  bool ExecuteRange(size_t begin, size_t end, const Program& prog,
                    CacheExtApi& api, const HookCtx& hctx,
                    std::array<uint64_t, kNumRegs>& regs);

  const IrPolicy policy_;
  std::vector<std::unique_ptr<IrMap>> maps_;
};

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_INTERP_H_
