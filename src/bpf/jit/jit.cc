#include "src/bpf/jit/jit.h"

#include <chrono>
#include <vector>

#include "src/bpf/ir/ir_map.h"
#include "src/cache_ext/eviction_list.h"
#include "src/fault/fault_injector.h"

namespace cache_ext::bpf::jit {

namespace {

using ir::AluOp;
using ir::Cond;
using ir::CtxField;
using ir::HookCtx;
using ir::Inst;
using ir::IrMap;
using ir::Op;
using ir::Program;
using verifier::Hook;
using verifier::Kfunc;

struct Step;

// The per-invocation execution context: registers live on the caller's
// stack, never in the runtime, so invocations from different threads
// cannot observe each other (satellite of the global-mutex removal).
struct ExecSt {
  std::array<uint64_t, ir::kNumRegs> regs = {};
  CacheExtApi* api = nullptr;
  const HookCtx* hctx = nullptr;
  const Step* steps = nullptr;
};

// Each StepFn executes one pre-decoded instruction and returns the next
// pc. Branches are resolved by returning `target`; everything else
// returns the precomputed `next` (usually pc + 1, but constant folding
// may have skipped an always-resolved null check).
using StepFn = size_t (*)(const Step&, ExecSt&);

struct Step {
  StepFn fn = nullptr;
  uint8_t dst = 0;
  uint8_t src = 0;
  bool bound_is_reg = false;
  IterPlacement on_skip = IterPlacement::kKeepInPlace;
  IterPlacement on_evict = IterPlacement::kKeepInPlace;
  uint32_t next = 0;
  uint32_t target = 0;
  uint32_t word = 0;         // kLoad/kStore: off / 8
  uint32_t max_entries = 0;  // array lookup bound (constant-folded)
  uint32_t words = 0;        // array value stride in u64 words
  uint32_t body_begin = 0;   // loop forms
  uint32_t body_end = 0;
  IrMap* map = nullptr;
  uint64_t* base = nullptr;  // array backing store
  uint64_t imm = 0;          // immediate / folded value pointer
};

inline uint64_t ValueLoad(const uint64_t* p) {
  return std::atomic_ref<const uint64_t>(*p).load(std::memory_order_relaxed);
}

inline void ValueStore(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
}

// ---- step functions ----------------------------------------------------

size_t StMovImm(const Step& s, ExecSt& st) {
  st.regs[s.dst] = s.imm;
  return s.next;
}

size_t StMovReg(const Step& s, ExecSt& st) {
  st.regs[s.dst] = st.regs[s.src];
  return s.next;
}

template <AluOp op>
size_t StAluImm(const Step& s, ExecSt& st) {
  st.regs[s.dst] = ir::EvalAluT<op>(st.regs[s.dst], s.imm);
  return s.next;
}

template <AluOp op>
size_t StAluReg(const Step& s, ExecSt& st) {
  st.regs[s.dst] = ir::EvalAluT<op>(st.regs[s.dst], st.regs[s.src]);
  return s.next;
}

size_t StJmp(const Step& s, ExecSt&) { return s.target; }

template <Cond cond>
size_t StJmpImm(const Step& s, ExecSt& st) {
  return ir::EvalCondT<cond>(st.regs[s.dst], s.imm) ? s.target : s.next;
}

template <Cond cond>
size_t StJmpReg(const Step& s, ExecSt& st) {
  return ir::EvalCondT<cond>(st.regs[s.dst], st.regs[s.src]) ? s.target
                                                             : s.next;
}

template <CtxField field>
size_t StCtxLoad(const Step& s, ExecSt& st) {
  st.regs[s.dst] = ir::LoadCtxT<field>(*st.hctx);
  return s.next;
}

size_t StHashLookup(const Step& s, ExecSt& st) {
  st.regs[ir::R0] = static_cast<uint64_t>(
      reinterpret_cast<uintptr_t>(s.map->Lookup(st.regs[s.src])));
  return s.next;
}

// Array lookup with the bounds check and address computation inlined —
// no IrMap call at all, just the probe accounting.
size_t StArrayLookup(const Step& s, ExecSt& st) {
  s.map->CountLookup();
  const uint64_t key = st.regs[s.src];
  st.regs[ir::R0] =
      key < s.max_entries
          ? static_cast<uint64_t>(
                reinterpret_cast<uintptr_t>(s.base + key * s.words))
          : 0;
  return s.next;
}

// Verifier-proven constant key: the value pointer was computed at lower
// time (s.imm). `next` may already skip the following null-check branch.
size_t StConstArrayLookup(const Step& s, ExecSt& st) {
  s.map->CountLookup();
  st.regs[ir::R0] = s.imm;
  return s.next;
}

size_t StMapUpdate(const Step& s, ExecSt& st) {
  st.regs[ir::R0] = s.map->Update(st.regs[s.dst], st.regs[s.src]);
  return s.next;
}

size_t StMapDelete(const Step& s, ExecSt& st) {
  st.regs[ir::R0] = s.map->Delete(st.regs[s.dst]);
  return s.next;
}

size_t StLoad(const Step& s, ExecSt& st) {
  const uint64_t* p = reinterpret_cast<const uint64_t*>(
      static_cast<uintptr_t>(st.regs[s.src]));
  st.regs[s.dst] = p == nullptr ? 0 : ValueLoad(&p[s.word]);
  return s.next;
}

size_t StStore(const Step& s, ExecSt& st) {
  uint64_t* p =
      reinterpret_cast<uint64_t*>(static_cast<uintptr_t>(st.regs[s.dst]));
  if (p != nullptr) {
    ValueStore(&p[s.word], st.regs[s.src]);
  }
  return s.next;
}

size_t StStoreImm(const Step& s, ExecSt& st) {
  uint64_t* p =
      reinterpret_cast<uint64_t*>(static_cast<uintptr_t>(st.regs[s.dst]));
  if (p != nullptr) {
    ValueStore(&p[s.word], s.imm);
  }
  return s.next;
}

size_t StFolioKey(const Step& s, ExecSt& st) {
  const Folio* folio =
      reinterpret_cast<const Folio*>(static_cast<uintptr_t>(st.regs[s.src]));
  st.regs[s.dst] = folio == nullptr ? 0 : ir::FolioIdentityKey(folio);
  return s.next;
}

template <Kfunc kfunc>
size_t StCall(const Step& s, ExecSt& st) {
  ir::DoKfuncCallT<kfunc>(*st.api, st.regs.data());
  return s.next;
}

void RunRange(ExecSt& st, size_t begin, size_t end) {
  size_t pc = begin;
  while (pc < end) {
    const Step& s = st.steps[pc];
    pc = s.fn(s, st);
  }
}

template <bool kScore>
size_t StLoop(const Step& s, ExecSt& st) {
  IterOpts opts;
  opts.nr_scan = s.bound_is_reg ? st.regs[s.src] : s.imm;
  opts.on_skip = s.on_skip;
  opts.on_evict = s.on_evict;
  const uint64_t list_id = st.regs[s.dst];
  Status status;
  if constexpr (!kScore) {
    status = st.api->ListIterate(
        list_id, opts, st.hctx->evict, [&s, &st](Folio* folio) {
          st.regs[ir::R1] =
              static_cast<uint64_t>(reinterpret_cast<uintptr_t>(folio));
          RunRange(st, s.body_begin, s.body_end);
          return ir::VerdictFromR0(st.regs[ir::R0]);
        });
  } else {
    status = st.api->ListIterateScore(
        list_id, opts, st.hctx->evict, [&s, &st](Folio* folio) {
          st.regs[ir::R1] =
              static_cast<uint64_t>(reinterpret_cast<uintptr_t>(folio));
          RunRange(st, s.body_begin, s.body_end);
          return static_cast<int64_t>(st.regs[ir::R0]);
        });
  }
  st.regs[ir::R0] = status.ok() ? 0 : 1;
  st.regs[ir::R1] = st.regs[ir::R2] = st.regs[ir::R3] = st.regs[ir::R4] =
      st.regs[ir::R5] = 0;
  return s.body_end + 1;
}

// kLoopEnd / kExit both terminate the enclosing range; `next` is set to
// the program size at lower time.
size_t StEnd(const Step& s, ExecSt&) { return s.next; }

// ---- template-instantiation tables -------------------------------------

StepFn AluImmFn(AluOp op) {
  switch (op) {
    case AluOp::kAdd: return &StAluImm<AluOp::kAdd>;
    case AluOp::kSub: return &StAluImm<AluOp::kSub>;
    case AluOp::kMul: return &StAluImm<AluOp::kMul>;
    case AluOp::kDiv: return &StAluImm<AluOp::kDiv>;
    case AluOp::kMod: return &StAluImm<AluOp::kMod>;
    case AluOp::kAnd: return &StAluImm<AluOp::kAnd>;
    case AluOp::kOr:  return &StAluImm<AluOp::kOr>;
    case AluOp::kXor: return &StAluImm<AluOp::kXor>;
    case AluOp::kLsh: return &StAluImm<AluOp::kLsh>;
    case AluOp::kRsh: return &StAluImm<AluOp::kRsh>;
  }
  return nullptr;
}

StepFn AluRegFn(AluOp op) {
  switch (op) {
    case AluOp::kAdd: return &StAluReg<AluOp::kAdd>;
    case AluOp::kSub: return &StAluReg<AluOp::kSub>;
    case AluOp::kMul: return &StAluReg<AluOp::kMul>;
    case AluOp::kDiv: return &StAluReg<AluOp::kDiv>;
    case AluOp::kMod: return &StAluReg<AluOp::kMod>;
    case AluOp::kAnd: return &StAluReg<AluOp::kAnd>;
    case AluOp::kOr:  return &StAluReg<AluOp::kOr>;
    case AluOp::kXor: return &StAluReg<AluOp::kXor>;
    case AluOp::kLsh: return &StAluReg<AluOp::kLsh>;
    case AluOp::kRsh: return &StAluReg<AluOp::kRsh>;
  }
  return nullptr;
}

StepFn JmpImmFn(Cond cond) {
  switch (cond) {
    case Cond::kEq: return &StJmpImm<Cond::kEq>;
    case Cond::kNe: return &StJmpImm<Cond::kNe>;
    case Cond::kLt: return &StJmpImm<Cond::kLt>;
    case Cond::kLe: return &StJmpImm<Cond::kLe>;
    case Cond::kGt: return &StJmpImm<Cond::kGt>;
    case Cond::kGe: return &StJmpImm<Cond::kGe>;
  }
  return nullptr;
}

StepFn JmpRegFn(Cond cond) {
  switch (cond) {
    case Cond::kEq: return &StJmpReg<Cond::kEq>;
    case Cond::kNe: return &StJmpReg<Cond::kNe>;
    case Cond::kLt: return &StJmpReg<Cond::kLt>;
    case Cond::kLe: return &StJmpReg<Cond::kLe>;
    case Cond::kGt: return &StJmpReg<Cond::kGt>;
    case Cond::kGe: return &StJmpReg<Cond::kGe>;
  }
  return nullptr;
}

StepFn CtxLoadFn(CtxField field) {
  switch (field) {
    case CtxField::kFolio: return &StCtxLoad<CtxField::kFolio>;
    case CtxField::kNrRequested: return &StCtxLoad<CtxField::kNrRequested>;
    case CtxField::kIndex: return &StCtxLoad<CtxField::kIndex>;
    case CtxField::kPrevIndex: return &StCtxLoad<CtxField::kPrevIndex>;
    case CtxField::kDefaultWindow:
      return &StCtxLoad<CtxField::kDefaultWindow>;
    case CtxField::kPid: return &StCtxLoad<CtxField::kPid>;
    case CtxField::kTid: return &StCtxLoad<CtxField::kTid>;
    case CtxField::kIsWrite: return &StCtxLoad<CtxField::kIsWrite>;
    case CtxField::kTier: return &StCtxLoad<CtxField::kTier>;
    case CtxField::kNrPages: return &StCtxLoad<CtxField::kNrPages>;
    case CtxField::kNrDirty: return &StCtxLoad<CtxField::kNrDirty>;
    case CtxField::kForSync: return &StCtxLoad<CtxField::kForSync>;
    case CtxField::kNrProposed: return &StCtxLoad<CtxField::kNrProposed>;
  }
  return nullptr;
}

// Devirtualized kfunc thunks: resolved here at lower time, checked
// against the verifier's derived allowlist by the caller. The structured
// iterators are only reachable through the loop forms.
StepFn CallFn(Kfunc kfunc) {
  switch (kfunc) {
    case Kfunc::kListCreate: return &StCall<Kfunc::kListCreate>;
    case Kfunc::kListAdd: return &StCall<Kfunc::kListAdd>;
    case Kfunc::kListMove: return &StCall<Kfunc::kListMove>;
    case Kfunc::kListDel: return &StCall<Kfunc::kListDel>;
    case Kfunc::kListSize: return &StCall<Kfunc::kListSize>;
    case Kfunc::kListIdOf: return &StCall<Kfunc::kListIdOf>;
    case Kfunc::kCurrentTask: return &StCall<Kfunc::kCurrentTask>;
    case Kfunc::kListIterate:
    case Kfunc::kListIterateScore:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

// ---- compiled program --------------------------------------------------

struct JitRuntime::CompiledProg {
  enum class Kind : uint8_t {
    kConstReturn,  // straight-line MovImm-R0/Exit program
    kFreqBump,     // LFU folio_accessed: key + hash lookup + counter add
    kListOp,       // FIFO/LRU folio hook: const state slot + list kfunc
    kSteps,        // token-threaded general form
  };

  Kind kind = Kind::kSteps;

  int64_t const_ret = 0;

  IrMap* bump_map = nullptr;
  uint64_t bump_delta = 0;

  Kfunc list_kfunc = Kfunc::kListAdd;
  bool list_tail = false;
  IrMap* state_map = nullptr;
  uint64_t* state_slot = nullptr;

  std::vector<Step> steps;
};

namespace {

using CompiledProg = JitRuntime::CompiledProg;

// ---- per-kind dispatch thunks ------------------------------------------
//
// One static function per lowered form, registered into JitRuntime::fns_
// at lower time. Dispatch is then a single devirtualized indirect call
// from the inline Execute — no kind switch, no out-of-line trampoline.

int64_t RunConstReturn(void* ctx, CacheExtApi&, const HookCtx&) {
  return static_cast<const CompiledProg*>(ctx)->const_ret;
}

int64_t RunFreqBump(void* ctx, CacheExtApi&, const HookCtx& hctx) {
  // ctx_load folio; folio_key; map_lookup; null check; load/add/store —
  // fused. The bump is a relaxed load + relaxed store, the exact
  // semantics of the kLoad/kAluImm/kStore sequence it replaces (not a
  // stronger atomic RMW); R0 leaves holding the value pointer, exactly
  // as the instruction sequence would.
  const auto* prog = static_cast<const CompiledProg*>(ctx);
  const uint64_t key =
      hctx.folio == nullptr ? 0 : ir::FolioIdentityKey(hctx.folio);
  uint64_t* value = prog->bump_map->Lookup(key);
  if (value == nullptr) {
    return 0;
  }
  ValueStore(&value[0], ValueLoad(&value[0]) + prog->bump_delta);
  return static_cast<int64_t>(reinterpret_cast<uintptr_t>(value));
}

int64_t RunListOp(void* ctx, CacheExtApi& api, const HookCtx& hctx) {
  // Const-folded state-slot lookup (probe still counted) + one
  // devirtualized list kfunc on the hook's folio.
  const auto* prog = static_cast<const CompiledProg*>(ctx);
  prog->state_map->CountLookup();
  const uint64_t list_id = ValueLoad(&prog->state_slot[0]);
  const Status st =
      prog->list_kfunc == Kfunc::kListAdd
          ? api.ListAdd(list_id, hctx.folio, prog->list_tail)
          : api.ListMove(list_id, hctx.folio, prog->list_tail);
  return st.ok() ? 0 : 1;
}

int64_t RunSteps(void* ctx, CacheExtApi& api, const HookCtx& hctx) {
  const auto* prog = static_cast<const CompiledProg*>(ctx);
  ExecSt st;
  st.api = &api;
  st.hctx = &hctx;
  st.steps = prog->steps.data();
  size_t pc = 0;
  const size_t n = prog->steps.size();
  while (pc < n) {
    const Step& s = st.steps[pc];
    pc = s.fn(s, st);
  }
  return static_cast<int64_t>(st.regs[ir::R0]);
}

JitRuntime::HookFn ThunkFor(CompiledProg::Kind kind) {
  switch (kind) {
    case CompiledProg::Kind::kConstReturn: return &RunConstReturn;
    case CompiledProg::Kind::kFreqBump: return &RunFreqBump;
    case CompiledProg::Kind::kListOp: return &RunListOp;
    case CompiledProg::Kind::kSteps: return &RunSteps;
  }
  return nullptr;
}

// ---- whole-shape matchers ----------------------------------------------

// [MovImm R0, k]* ending in kExit with no other ops: constant return.
// Covers ir_fifo's folio_accessed ([Exit] -> 0) and any pure-verdict hook.
std::unique_ptr<CompiledProg> MatchConstReturn(const Program& prog) {
  int64_t r0 = 0;
  for (const Inst& ins : prog) {
    if (ins.op == Op::kMovImm && ins.dst == ir::R0) {
      r0 = ins.imm;
      continue;
    }
    if (ins.op == Op::kExit) {
      auto out = std::make_unique<CompiledProg>();
      out->kind = CompiledProg::Kind::kConstReturn;
      out->const_ret = r0;
      return out;
    }
    return nullptr;
  }
  return nullptr;
}

// ir_lfu folio_accessed:
//   ctx_load rf, folio / folio_key rk, rf / map_lookup hash[rk] /
//   jmp_imm ne r0, 0 -> L / exit / L: load rv, r0[0] / alu_imm add rv, d /
//   store r0[0], rv / exit
std::unique_ptr<CompiledProg> MatchFreqBump(const Program& prog,
                                            const ir::IrRuntime& interp) {
  if (prog.size() != 9) {
    return nullptr;
  }
  const Inst& ld = prog[0];
  const Inst& key = prog[1];
  const Inst& lku = prog[2];
  const Inst& chk = prog[3];
  const Inst& miss = prog[4];
  const Inst& load = prog[5];
  const Inst& add = prog[6];
  const Inst& store = prog[7];
  const Inst& done = prog[8];
  if (ld.op != Op::kCtxLoad || ld.ctx != CtxField::kFolio) return nullptr;
  if (key.op != Op::kFolioKey || key.src != ld.dst) return nullptr;
  if (lku.op != Op::kMapLookup || lku.src != key.dst ||
      lku.map >= interp.nr_maps() ||
      interp.map(lku.map)->decl().kind != ir::IrMapKind::kHash) {
    return nullptr;
  }
  if (chk.op != Op::kJmpImm || chk.cond != Cond::kNe || chk.dst != ir::R0 ||
      chk.imm != 0 || chk.target != 5) {
    return nullptr;
  }
  if (miss.op != Op::kExit) return nullptr;
  if (load.op != Op::kLoad || load.src != ir::R0 || load.off != 0) {
    return nullptr;
  }
  if (add.op != Op::kAluImm || add.alu != AluOp::kAdd ||
      add.dst != load.dst) {
    return nullptr;
  }
  if (store.op != Op::kStore || store.dst != ir::R0 || store.off != 0 ||
      store.src != add.dst) {
    return nullptr;
  }
  if (done.op != Op::kExit) return nullptr;
  auto out = std::make_unique<CompiledProg>();
  out->kind = CompiledProg::Kind::kFreqBump;
  out->bump_map = interp.map(lku.map);
  out->bump_delta = static_cast<uint64_t>(add.imm);
  return out;
}

// ir_fifo/ir_lru folio hooks (ListOpProgram):
//   mov_imm rk, k / map_lookup array[rk] / jmp_imm ne r0, 0 -> L / exit /
//   L: load r1, r0[0] / ctx_load r2, folio / mov_imm r3, tail /
//   call list_add|list_move / exit
std::unique_ptr<CompiledProg> MatchListOp(const Program& prog,
                                          const ir::IrRuntime& interp) {
  if (prog.size() != 9) {
    return nullptr;
  }
  const Inst& key = prog[0];
  const Inst& lku = prog[1];
  const Inst& chk = prog[2];
  const Inst& miss = prog[3];
  const Inst& load = prog[4];
  const Inst& folio = prog[5];
  const Inst& tail = prog[6];
  const Inst& call = prog[7];
  const Inst& done = prog[8];
  if (key.op != Op::kMovImm || key.imm < 0) return nullptr;
  if (lku.op != Op::kMapLookup || lku.src != key.dst ||
      lku.map >= interp.nr_maps()) {
    return nullptr;
  }
  IrMap* map = interp.map(lku.map);
  if (map->decl().kind != ir::IrMapKind::kArray ||
      static_cast<uint64_t>(key.imm) >= map->decl().max_entries) {
    return nullptr;
  }
  if (chk.op != Op::kJmpImm || chk.cond != Cond::kNe || chk.dst != ir::R0 ||
      chk.imm != 0 || chk.target != 4) {
    return nullptr;
  }
  if (miss.op != Op::kExit) return nullptr;
  if (load.op != Op::kLoad || load.dst != ir::R1 || load.src != ir::R0 ||
      load.off != 0) {
    return nullptr;
  }
  if (folio.op != Op::kCtxLoad || folio.dst != ir::R2 ||
      folio.ctx != CtxField::kFolio) {
    return nullptr;
  }
  if (tail.op != Op::kMovImm || tail.dst != ir::R3) return nullptr;
  if (call.op != Op::kCall || (call.kfunc != Kfunc::kListAdd &&
                               call.kfunc != Kfunc::kListMove)) {
    return nullptr;
  }
  if (done.op != Op::kExit) return nullptr;
  auto out = std::make_unique<CompiledProg>();
  out->kind = CompiledProg::Kind::kListOp;
  out->list_kfunc = call.kfunc;
  out->list_tail = tail.imm != 0;
  out->state_map = map;
  out->state_slot =
      map->ArrayBase() + static_cast<uint64_t>(key.imm) * map->words();
  return out;
}

// ---- general lowering --------------------------------------------------

std::unique_ptr<CompiledProg> LowerSteps(const Program& prog,
                                         const ir::IrRuntime& interp,
                                         const verifier::HookSpec& spec,
                                         const verifier::HookFacts& facts) {
  const size_t n = prog.size();
  auto out = std::make_unique<CompiledProg>();
  out->kind = CompiledProg::Kind::kSteps;
  out->steps.resize(n);
  for (size_t pc = 0; pc < n; ++pc) {
    const Inst& ins = prog[pc];
    Step& s = out->steps[pc];
    s.dst = ins.dst;
    s.src = ins.src;
    s.next = static_cast<uint32_t>(pc + 1);
    s.target = static_cast<uint32_t>(ins.target);
    s.imm = static_cast<uint64_t>(ins.imm);
    s.word = static_cast<uint32_t>(ins.off / 8);
    switch (ins.op) {
      case Op::kMovImm: s.fn = &StMovImm; break;
      case Op::kMovReg: s.fn = &StMovReg; break;
      case Op::kAluImm: s.fn = AluImmFn(ins.alu); break;
      case Op::kAluReg: s.fn = AluRegFn(ins.alu); break;
      case Op::kJmp:    s.fn = &StJmp; break;
      case Op::kJmpImm: s.fn = JmpImmFn(ins.cond); break;
      case Op::kJmpReg: s.fn = JmpRegFn(ins.cond); break;
      case Op::kCtxLoad: s.fn = CtxLoadFn(ins.ctx); break;
      case Op::kMapLookup: {
        if (ins.map >= interp.nr_maps()) {
          return nullptr;
        }
        IrMap* map = interp.map(ins.map);
        s.map = map;
        if (map->decl().kind != ir::IrMapKind::kArray) {
          s.fn = &StHashLookup;
          break;
        }
        const int64_t konst = pc < facts.const_lookup_key.size()
                                  ? facts.const_lookup_key[pc]
                                  : -1;
        if (konst >= 0 &&
            static_cast<uint64_t>(konst) < map->decl().max_entries) {
          // map_gen_lookup analogue: fold the proven-constant key to a
          // direct value pointer...
          s.fn = &StConstArrayLookup;
          s.imm = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(
              map->ArrayBase() +
              static_cast<uint64_t>(konst) * map->words()));
          // ...and resolve the mandated null-check branch now: the folded
          // pointer is never null, so an immediately following
          // `jmp_imm {ne,eq} r0, 0` has a statically known direction.
          if (pc + 1 < n) {
            const Inst& nx = prog[pc + 1];
            if (nx.op == Op::kJmpImm && nx.dst == ir::R0 && nx.imm == 0) {
              if (nx.cond == Cond::kNe) {
                s.next = static_cast<uint32_t>(nx.target);
              } else if (nx.cond == Cond::kEq) {
                s.next = static_cast<uint32_t>(pc + 2);
              }
            }
          }
          break;
        }
        s.fn = &StArrayLookup;
        s.base = map->ArrayBase();
        s.max_entries = map->decl().max_entries;
        s.words = static_cast<uint32_t>(map->words());
        break;
      }
      case Op::kMapUpdate:
      case Op::kMapDelete:
        if (ins.map >= interp.nr_maps()) {
          return nullptr;
        }
        s.map = interp.map(ins.map);
        s.fn = ins.op == Op::kMapUpdate ? &StMapUpdate : &StMapDelete;
        break;
      case Op::kLoad:  s.fn = &StLoad; break;
      case Op::kStore: s.fn = &StStore; break;
      case Op::kStoreImm: s.fn = &StStoreImm; break;
      case Op::kFolioKey: s.fn = &StFolioKey; break;
      case Op::kCall:
        // Devirtualize against the verifier's derived allowlist — a call
        // outside it means the facts and the program disagree, so refuse
        // to lower (the interpreter remains, and the loader's cross-check
        // will flag the policy).
        if (!spec.kfuncs.Contains(ins.kfunc)) {
          return nullptr;
        }
        s.fn = CallFn(ins.kfunc);
        break;
      case Op::kLoopIterate:
      case Op::kLoopIterateScore:
        s.bound_is_reg = ins.bound_is_reg;
        s.on_skip = ir::ToPlacement(ins.on_skip);
        s.on_evict = ir::ToPlacement(ins.on_evict);
        s.body_begin = static_cast<uint32_t>(pc + 1);
        s.body_end = static_cast<uint32_t>(ins.target);
        s.fn = ins.op == Op::kLoopIterate ? &StLoop<false> : &StLoop<true>;
        break;
      case Op::kLoopEnd:
      case Op::kExit:
        s.next = static_cast<uint32_t>(n);
        s.fn = &StEnd;
        break;
    }
    if (s.fn == nullptr) {
      return nullptr;
    }
  }
  return out;
}

std::unique_ptr<CompiledProg> Lower(const Program& prog,
                                    const ir::IrRuntime& interp,
                                    const verifier::HookSpec& spec,
                                    const verifier::HookFacts& facts) {
  if (auto p = MatchConstReturn(prog)) return p;
  if (auto p = MatchFreqBump(prog, interp)) return p;
  if (auto p = MatchListOp(prog, interp)) return p;
  return LowerSteps(prog, interp, spec, facts);
}

}  // namespace

// ---- JitRuntime --------------------------------------------------------

JitRuntime::JitRuntime(std::shared_ptr<ir::IrRuntime> interp,
                       const verifier::IrAnalysis& analysis)
    : interp_(std::move(interp)) {
  const auto start = std::chrono::steady_clock::now();
  const ir::IrPolicy& policy = interp_->policy();
  for (size_t i = 0; i < verifier::kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    if (!policy.HookPresent(hook)) {
      continue;
    }
    if (fault::InjectFault(fault::points::kJitCompileFail)) {
      continue;  // this hook stays interpreted; dispatch still works
    }
    progs_[i] = Lower(policy.hook(hook), *interp_, analysis.spec.hook(hook),
                      analysis.facts[i]);
    if (progs_[i] != nullptr) {
      ++compiles_;
      if (progs_[i]->kind == CompiledProg::Kind::kConstReturn) {
        const_mask_ |= 1u << i;
        const_ret_[i] = progs_[i]->const_ret;
      } else {
        fns_[i] = ThunkFor(progs_[i]->kind);
        fctx_[i] = progs_[i].get();
      }
    }
  }
  compile_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

JitRuntime::~JitRuntime() = default;

int64_t JitRuntime::Fallback(Hook hook, CacheExtApi& api,
                             const ir::HookCtx& hctx) {
  if (!interp_->policy().HookPresent(hook)) {
    return 0;
  }
  interp_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return interp_->Execute(hook, api, hctx);
}

}  // namespace cache_ext::bpf::jit
