// The cache_ext policy IR: a small, statically verifiable instruction set
// for eviction policies (ISSUE 6 tentpole; §4.4 of the paper).
//
// C++ std::function policies are opaque — the PR-1 verifier can only check
// their *hand-declared* ProgramSpec against budgets. A policy expressed in
// this IR is transparent the way eBPF bytecode is: the verifier
// (src/bpf/verifier/ir_verifier.h) walks the instructions, constructs the
// CFG, abstract-interprets register state, and *derives* the safety proof —
// termination, loop bounds, helper-call worst cases, map-access bounds —
// instead of trusting a declaration.
//
// The instruction set is deliberately tiny:
//  - 8 registers (R0 return/scratch, R1-R5 argument/caller-clobbered,
//    R6-R7 preserved across calls), all 64-bit;
//  - register/immediate ALU ops and *forward-only* conditional branches
//    (a backward jump is an unbounded loop and is rejected);
//  - map load/store through bounds-checked map-value pointers (lookup
//    yields a maybe-null pointer that must be null-checked before deref,
//    exactly like PTR_TO_MAP_VALUE_OR_NULL);
//  - kfunc calls against the Table-2 CacheExtApi surface with typed
//    arguments (scalar vs folio pointer);
//  - iteration ONLY via the structured kLoopIterate/kLoopIterateScore
//    forms, whose trip count is an immediate or a register with a
//    statically provable range — the only way the IR loops at all, so
//    termination is a theorem, not a promise.
//
// Programs are built with ir::ProgramBuilder (builder.h), verified and
// compiled into an ordinary cache_ext::Ops by ir::CompileToOps (compile.h),
// and executed by the interpreter in interp.h. The derived ProgramSpec then
// flows through the PR-1 pipeline (spec checks + instrumented dry run), so
// the static proof and the dynamic observation validate each other.

#ifndef SRC_BPF_IR_IR_H_
#define SRC_BPF_IR_IR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/bpf/verifier/spec.h"

namespace cache_ext::bpf::ir {

inline constexpr size_t kNumRegs = 8;
// Register names. R0 holds kfunc results and the hook's return value; R1-R5
// are clobbered by kCall and the loop forms; R6-R7 survive them.
enum Reg : uint8_t { R0 = 0, R1, R2, R3, R4, R5, R6, R7 };

enum class Op : uint8_t {
  kMovImm = 0,  // dst = imm
  kMovReg,      // dst = src
  kAluImm,      // dst = dst <alu> imm
  kAluReg,      // dst = dst <alu> src
  kJmp,         // goto target (forward only)
  kJmpImm,      // if (dst <cond> imm) goto target (forward only)
  kJmpReg,      // if (dst <cond> src) goto target (forward only)
  kCtxLoad,     // dst = hook-context field (availability is hook-checked)
  kMapLookup,   // R0 = &map[key=src] or null (PTR_TO_MAP_VALUE_OR_NULL)
  kMapUpdate,   // map[key=dst] (created zeroed if absent) u64@0 = src; R0=0/1
  kMapDelete,   // delete map[key=dst]; R0 = 0 (deleted) / 1 (absent)
  kLoad,        // dst = *(u64*)(src + off); src: proven non-null map value
  kStore,       // *(u64*)(dst + off) = src
  kStoreImm,    // *(u64*)(dst + off) = imm
  kFolioKey,    // dst = stable u64 identity key of folio in src
  kCall,        // call kfunc; args in R1..R3, result in R0, clobbers R0-R5
  kLoopIterate,       // bounded list walk, body [pc+1, target); verdict = R0
  kLoopIterateScore,  // bounded batch-scoring walk; score = R0
  kLoopEnd,           // closes the innermost loop body (never executed)
  kExit,        // return R0 (hooks with a return value) / end program
};

enum class AluOp : uint8_t {
  kAdd = 0,
  kSub,
  kMul,
  kDiv,  // division by zero yields 0 at runtime; the verifier rejects
  kMod,  // operands whose range admits a zero divisor
  kAnd,
  kOr,
  kXor,
  kLsh,
  kRsh,
};

enum class Cond : uint8_t {
  kEq = 0,
  kNe,
  kLt,  // unsigned
  kLe,
  kGt,
  kGe,
};

// Hook-context fields a program may read with kCtxLoad. Which fields exist
// depends on the hook (reading kFolio from evict_folios is a verifier
// error), mirroring how the kernel types each program's ctx argument.
enum class CtxField : uint8_t {
  kFolio = 0,      // folio_added/accessed/removed/refaulted: the folio
  kNrRequested,    // evict_folios: candidates requested (<= batch cap);
                   // readahead / admit_order: pages in the faulting run
  kIndex,          // admit_folio / readahead / admit_order: faulting page
                   // index
  kPrevIndex,      // readahead: previous read position
  kDefaultWindow,  // readahead: the heuristic's window
  kPid,            // admit_folio / readahead / admit_order
  kTid,            // admit_folio / readahead / admit_order
  kIsWrite,        // admit_folio / admit_order: 0/1
  kTier,           // folio_refaulted: MGLRU tier recorded at eviction
  kNrPages,        // should_writeback / writeback_order: folio span
  kNrDirty,        // should_writeback / writeback_order: cgroup dirty gauge
  kForSync,        // should_writeback / writeback_order: fsync harvest? 0/1
};

// Placement of examined folios for the loop forms (the IR supports the two
// placements every built-in policy uses; kMoveToList needs a second list
// operand and is left to the std::function path).
enum class LoopPlace : uint8_t {
  kKeepInPlace = 0,
  kMoveToTail,
};

struct Inst {
  Op op = Op::kExit;
  AluOp alu = AluOp::kAdd;
  Cond cond = Cond::kEq;
  CtxField ctx = CtxField::kFolio;
  verifier::Kfunc kfunc = verifier::Kfunc::kCurrentTask;
  uint8_t dst = 0;
  uint8_t src = 0;
  // Loop forms: trip bound from `imm` (bound_is_reg == false) or from the
  // range-proven register `src` (bound_is_reg == true). dst = list-id reg.
  bool bound_is_reg = false;
  LoopPlace on_skip = LoopPlace::kKeepInPlace;
  LoopPlace on_evict = LoopPlace::kKeepInPlace;
  uint32_t map = 0;     // map index into IrPolicy::maps
  int32_t off = 0;      // load/store byte offset into the map value
  int32_t target = -1;  // jump target pc / matching kLoopEnd pc
  int64_t imm = 0;
};

using Program = std::vector<Inst>;

enum class IrMapKind : uint8_t {
  kArray = 0,  // dense u64 index in [0, max_entries); keys proven in range
  kHash,       // arbitrary u64 keys; capacity-bounded at max_entries
};

struct MapDecl {
  std::string name;
  IrMapKind kind = IrMapKind::kHash;
  uint32_t max_entries = 0;
  uint32_t value_size = 8;  // bytes; must be a positive multiple of 8
};

// A whole policy in IR: one program per hook (empty program = hook absent)
// plus the maps it owns. This is what the static-analysis engine consumes
// and what CompileToOps turns into a loadable cache_ext::Ops.
struct IrPolicy {
  std::string name;
  uint64_t helper_budget = 1 << 16;
  uint64_t program_cost_ns = 90;
  std::vector<MapDecl> maps;
  std::array<Program, verifier::kNumHooks> hooks = {};

  Program& hook(verifier::Hook h) {
    return hooks[static_cast<size_t>(h)];
  }
  const Program& hook(verifier::Hook h) const {
    return hooks[static_cast<size_t>(h)];
  }
  bool HookPresent(verifier::Hook h) const { return !hook(h).empty(); }
};

// Typed kfunc signatures for kCall: how many arguments (taken from R1..R3),
// whether each must be a scalar or a folio pointer, and whether the kfunc
// acquires the policy's list lock (calling such a kfunc from inside a loop
// body would self-deadlock with the lock list_iterate already holds — the
// verifier proves this never happens).
enum class ArgKind : uint8_t { kScalar = 0, kFolioPtr };

struct KfuncSig {
  uint8_t nr_args = 0;
  std::array<ArgKind, 3> args = {};
  bool takes_list_lock = false;
  // True for kfuncs a program may invoke through kCall at all (the iterate
  // kfuncs are reachable only through the structured loop forms).
  bool callable = false;
};

const KfuncSig& SignatureOf(verifier::Kfunc kfunc);

const char* OpName(Op op);
const char* AluOpName(AluOp op);
const char* CondName(Cond cond);
const char* CtxFieldName(CtxField field);

// One-line rendering of an instruction for verifier logs, e.g.
//   "12: call cache_ext_list_add (r1, r2, r3)".
std::string Disasm(const Inst& inst, size_t pc);

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_IR_H_
