// The IR static-analysis engine: derive a policy's safety proof from its
// instructions, the way the kernel eBPF verifier derives one from bytecode.
//
// AnalyzeIrPolicy walks every hook program of an ir::IrPolicy and proves:
//
//  - CFG well-formedness (kIrCfg): jump targets valid, jumps never cross a
//    loop-body boundary, control never falls off the end, loop forms are
//    properly matched — the analogue of the kernel's check_cfg().
//  - Reachability (kIrUnreachable): every instruction is reachable from the
//    entry, including through provably-taken/untaken branches (the kernel
//    rejects unreachable instructions the same way).
//  - Termination (kIrLoopBound): all branches are forward, so the only
//    loops are the structured list_iterate forms, whose trip count is an
//    immediate or a register whose *abstractly interpreted range* is
//    finite — a path-sensitive bound proof, not a declaration.
//  - Register safety (kIrRegSafety): a worklist abstract interpretation
//    tracks each register as an unsigned scalar range or a typed pointer
//    (folio / map value / maybe-null map value / null), mirroring
//    bpf_reg_state. Uninitialized reads, pointer arithmetic, derefs of
//    possibly-null values, and ranges admitting division by zero are
//    rejected with the offending instruction in the log.
//  - Kfunc contexts (kIrKfuncContext): every call site is checked against
//    the kfunc's typed signature (scalar vs folio-pointer arguments) and
//    its allowed hooks (list_create only from policy_init, list mutation
//    only from folio-event hooks — so e.g. readahead can never list_add).
//    Kfuncs that acquire the list lock are additionally banned inside loop
//    bodies: list_iterate already holds that lock, so this is a static
//    deadlock-freedom proof.
//  - Map access bounds (kIrMapBounds): map ids valid, value offsets within
//    the declared value_size, array-map keys provably below max_entries.
//  - Dead hooks (kIrDeadHook): an optional hook that provably has no
//    effect (always admits / always defers readahead / pure no-op) is
//    rejected — it would charge dispatch cost for nothing.
//
// On success the analysis RETURNS the derived ProgramSpec — worst-case
// helper calls and loop iterations per hook, kfunc sets, list and
// candidate counts, map declarations — which replaces the hand-declared
// numbers for IR policies and then flows through the PR-1 pipeline (spec
// checks + instrumented dry run) so the static proof is cross-checked
// against observed behaviour.

#ifndef SRC_BPF_VERIFIER_IR_VERIFIER_H_
#define SRC_BPF_VERIFIER_IR_VERIFIER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/bpf/ir/ir.h"
#include "src/bpf/verifier/log.h"
#include "src/bpf/verifier/spec.h"
#include "src/util/status.h"

namespace cache_ext::bpf::verifier {

// Per-hook compile-time facts the abstract interpretation proves as a
// side effect — exported so the JIT backend (src/bpf/jit/) can specialize
// without re-deriving them, the way the kernel JIT consumes the
// verifier's insn_aux_data (e.g. map_ptr_state for map_gen_lookup
// inlining of array lookups).
struct HookFacts {
  // Indexed by pc. For a kMapLookup at pc: the key's abstractly-proven
  // value when it is the same single constant on every path reaching the
  // instruction, else -1. (-1 also for non-lookup pcs.) A constant key
  // into an array map folds to a direct value pointer at lower time.
  std::vector<int64_t> const_lookup_key;
};

struct IrAnalysis {
  // The derived declaration: what the hand-written ProgramSpec used to
  // assert, now proven from the instructions.
  ProgramSpec spec;
  std::array<HookFacts, kNumHooks> facts = {};
};

// Analyze every hook program of `policy`, appending one finding per check
// per hook to `log` (required). Returns the derived spec iff every proof
// succeeded; otherwise InvalidArgument carrying the first failure. The
// eviction candidate buffer (kMaxEvictionBatch) bounds both the derived
// candidate count and the ranges of ctx.nr_requested and ctx.nr_proposed.
Expected<IrAnalysis> AnalyzeIrPolicy(const ir::IrPolicy& policy,
                                     VerifierLog* log);

}  // namespace cache_ext::bpf::verifier

#endif  // SRC_BPF_VERIFIER_IR_VERIFIER_H_
