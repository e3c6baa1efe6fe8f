// The shared semantic kernel of the IR backends. Both the interpreter
// (interp.cc, the differential-testing oracle) and the JIT lowering
// (src/bpf/jit/) execute instructions through the helpers here, so a
// semantic question — what does kAluDiv do on zero, which ctx struct feeds
// kIndex, what does a kfunc clobber — has exactly one answer. The kernel
// has the same split: the BPF interpreter (___bpf_prog_run) and every
// arch JIT implement one instruction-set semantics; divergence between
// them is a CVE, not a perf bug.
//
// Each helper comes in two forms: a template over the opcode/field/kfunc
// (`EvalAluT<op>`) that a backend can instantiate per-instruction so the
// operation compiles to straight-line code with no switch, and a runtime
// switch (`EvalAlu(op, ...)`) that dispatches to the same templates — used
// by the interpreter, guaranteeing bit-identical results by construction.

#ifndef SRC_BPF_IR_EXEC_H_
#define SRC_BPF_IR_EXEC_H_

#include <cstdint>

#include "src/bpf/ir/ir.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"
#include "src/mm/folio.h"
#include "src/pagecache/eviction.h"

namespace cache_ext::bpf::ir {

// Context for one hook invocation; exactly one of the pointers is set
// (none for policy_init).
struct HookCtx {
  Folio* folio = nullptr;
  EvictionCtx* evict = nullptr;
  const AdmissionCtx* admit = nullptr;
  const ReadaheadCtx* readahead = nullptr;
  const AdmitOrderCtx* admit_order = nullptr;
  const WritebackCtx* writeback = nullptr;
  uint32_t tier = 0;
};

// Same stable identity the hand-written policies key their maps by.
inline uint64_t FolioIdentityKey(const Folio* folio) {
  return (folio->mapping->id() << 40) ^ folio->index;
}

template <AluOp op>
inline uint64_t EvalAluT(uint64_t l, uint64_t r) {
  if constexpr (op == AluOp::kAdd) return l + r;
  if constexpr (op == AluOp::kSub) return l - r;
  if constexpr (op == AluOp::kMul) return l * r;
  if constexpr (op == AluOp::kDiv) return r == 0 ? 0 : l / r;
  if constexpr (op == AluOp::kMod) return r == 0 ? 0 : l % r;
  if constexpr (op == AluOp::kAnd) return l & r;
  if constexpr (op == AluOp::kOr) return l | r;
  if constexpr (op == AluOp::kXor) return l ^ r;
  if constexpr (op == AluOp::kLsh) return r >= 64 ? 0 : l << r;
  if constexpr (op == AluOp::kRsh) return r >= 64 ? 0 : l >> r;
  return 0;
}

inline uint64_t EvalAlu(AluOp op, uint64_t l, uint64_t r) {
  switch (op) {
    case AluOp::kAdd: return EvalAluT<AluOp::kAdd>(l, r);
    case AluOp::kSub: return EvalAluT<AluOp::kSub>(l, r);
    case AluOp::kMul: return EvalAluT<AluOp::kMul>(l, r);
    case AluOp::kDiv: return EvalAluT<AluOp::kDiv>(l, r);
    case AluOp::kMod: return EvalAluT<AluOp::kMod>(l, r);
    case AluOp::kAnd: return EvalAluT<AluOp::kAnd>(l, r);
    case AluOp::kOr:  return EvalAluT<AluOp::kOr>(l, r);
    case AluOp::kXor: return EvalAluT<AluOp::kXor>(l, r);
    case AluOp::kLsh: return EvalAluT<AluOp::kLsh>(l, r);
    case AluOp::kRsh: return EvalAluT<AluOp::kRsh>(l, r);
  }
  return 0;
}

template <Cond cond>
inline bool EvalCondT(uint64_t l, uint64_t r) {
  if constexpr (cond == Cond::kEq) return l == r;
  if constexpr (cond == Cond::kNe) return l != r;
  if constexpr (cond == Cond::kLt) return l < r;
  if constexpr (cond == Cond::kLe) return l <= r;
  if constexpr (cond == Cond::kGt) return l > r;
  if constexpr (cond == Cond::kGe) return l >= r;
  return false;
}

inline bool EvalCond(Cond cond, uint64_t l, uint64_t r) {
  switch (cond) {
    case Cond::kEq: return EvalCondT<Cond::kEq>(l, r);
    case Cond::kNe: return EvalCondT<Cond::kNe>(l, r);
    case Cond::kLt: return EvalCondT<Cond::kLt>(l, r);
    case Cond::kLe: return EvalCondT<Cond::kLe>(l, r);
    case Cond::kGt: return EvalCondT<Cond::kGt>(l, r);
    case Cond::kGe: return EvalCondT<Cond::kGe>(l, r);
  }
  return false;
}

// kCtxLoad semantics: which hook-context struct feeds each field, in
// priority order. The verifier proves only legal fields are loaded per
// hook, so the fallback 0 arms are defensive.
template <CtxField field>
inline uint64_t LoadCtxT(const HookCtx& hctx) {
  if constexpr (field == CtxField::kFolio) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(hctx.folio));
  }
  if constexpr (field == CtxField::kNrRequested) {
    return hctx.evict          ? hctx.evict->nr_candidates_requested
           : hctx.readahead    ? hctx.readahead->nr_requested
           : hctx.admit_order  ? hctx.admit_order->nr_requested
                               : 0;
  }
  if constexpr (field == CtxField::kIndex) {
    return hctx.admit          ? hctx.admit->index
           : hctx.readahead    ? hctx.readahead->index
           : hctx.admit_order  ? hctx.admit_order->index
           : hctx.writeback    ? hctx.writeback->index
                               : 0;
  }
  if constexpr (field == CtxField::kPrevIndex) {
    return hctx.readahead ? hctx.readahead->prev_index : 0;
  }
  if constexpr (field == CtxField::kDefaultWindow) {
    return hctx.readahead ? hctx.readahead->default_window : 0;
  }
  if constexpr (field == CtxField::kPid) {
    return static_cast<uint64_t>(hctx.admit         ? hctx.admit->pid
                                 : hctx.readahead   ? hctx.readahead->pid
                                 : hctx.admit_order ? hctx.admit_order->pid
                                                    : 0);
  }
  if constexpr (field == CtxField::kTid) {
    return static_cast<uint64_t>(hctx.admit         ? hctx.admit->tid
                                 : hctx.readahead   ? hctx.readahead->tid
                                 : hctx.admit_order ? hctx.admit_order->tid
                                                    : 0);
  }
  if constexpr (field == CtxField::kIsWrite) {
    return (hctx.admit && hctx.admit->is_write) ||
                   (hctx.admit_order && hctx.admit_order->is_write)
               ? 1
               : 0;
  }
  if constexpr (field == CtxField::kTier) {
    return hctx.tier;
  }
  if constexpr (field == CtxField::kNrPages) {
    return hctx.writeback ? hctx.writeback->nr_pages : 0;
  }
  if constexpr (field == CtxField::kNrDirty) {
    return hctx.writeback ? hctx.writeback->nr_dirty : 0;
  }
  if constexpr (field == CtxField::kForSync) {
    return hctx.writeback && hctx.writeback->for_sync ? 1 : 0;
  }
  if constexpr (field == CtxField::kNrProposed) {
    return hctx.evict ? hctx.evict->nr_candidates_proposed : 0;
  }
  return 0;
}

inline uint64_t LoadCtx(CtxField field, const HookCtx& hctx) {
  switch (field) {
    case CtxField::kFolio: return LoadCtxT<CtxField::kFolio>(hctx);
    case CtxField::kNrRequested:
      return LoadCtxT<CtxField::kNrRequested>(hctx);
    case CtxField::kIndex: return LoadCtxT<CtxField::kIndex>(hctx);
    case CtxField::kPrevIndex: return LoadCtxT<CtxField::kPrevIndex>(hctx);
    case CtxField::kDefaultWindow:
      return LoadCtxT<CtxField::kDefaultWindow>(hctx);
    case CtxField::kPid: return LoadCtxT<CtxField::kPid>(hctx);
    case CtxField::kTid: return LoadCtxT<CtxField::kTid>(hctx);
    case CtxField::kIsWrite: return LoadCtxT<CtxField::kIsWrite>(hctx);
    case CtxField::kTier: return LoadCtxT<CtxField::kTier>(hctx);
    case CtxField::kNrPages: return LoadCtxT<CtxField::kNrPages>(hctx);
    case CtxField::kNrDirty: return LoadCtxT<CtxField::kNrDirty>(hctx);
    case CtxField::kForSync: return LoadCtxT<CtxField::kForSync>(hctx);
    case CtxField::kNrProposed:
      return LoadCtxT<CtxField::kNrProposed>(hctx);
  }
  return 0;
}

// Direct kfunc calls (everything except the structured iterators, which
// the verifier only admits as kLoopIterate/kLoopIterateScore forms).
// Writes R0 and clobbers the caller-saved R1–R5, exactly what the
// verifier's transfer function assumes after kCall.
template <verifier::Kfunc kfunc>
inline void DoKfuncCallT(CacheExtApi& api, uint64_t* regs) {
  if constexpr (kfunc == verifier::Kfunc::kListCreate) {
    auto id = api.ListCreate();
    regs[R0] = id.ok() ? *id : 0;
  }
  if constexpr (kfunc == verifier::Kfunc::kListAdd ||
                kfunc == verifier::Kfunc::kListMove) {
    Folio* folio =
        reinterpret_cast<Folio*>(static_cast<uintptr_t>(regs[R2]));
    const bool tail = regs[R3] != 0;
    const Status st = kfunc == verifier::Kfunc::kListAdd
                          ? api.ListAdd(regs[R1], folio, tail)
                          : api.ListMove(regs[R1], folio, tail);
    regs[R0] = st.ok() ? 0 : 1;
  }
  if constexpr (kfunc == verifier::Kfunc::kListDel) {
    Folio* folio =
        reinterpret_cast<Folio*>(static_cast<uintptr_t>(regs[R1]));
    regs[R0] = api.ListDel(folio).ok() ? 0 : 1;
  }
  if constexpr (kfunc == verifier::Kfunc::kListSize) {
    auto size = api.ListSize(regs[R1]);
    regs[R0] = size.ok() ? *size : 0;
  }
  if constexpr (kfunc == verifier::Kfunc::kListIdOf) {
    const Folio* folio =
        reinterpret_cast<const Folio*>(static_cast<uintptr_t>(regs[R1]));
    auto id = api.ListIdOf(folio);
    regs[R0] = id.ok() ? *id : 0;
  }
  if constexpr (kfunc == verifier::Kfunc::kCurrentTask) {
    const TaskContext task = api.CurrentTask();
    regs[R0] = (static_cast<uint64_t>(static_cast<uint32_t>(task.pid)) << 32) |
               static_cast<uint32_t>(task.tid);
  }
  if constexpr (kfunc == verifier::Kfunc::kListIterate ||
                kfunc == verifier::Kfunc::kListIterateScore) {
    regs[R0] = 0;  // unreachable: the verifier rejects direct calls
  }
  regs[R1] = regs[R2] = regs[R3] = regs[R4] = regs[R5] = 0;
}

inline void DoKfuncCall(verifier::Kfunc kfunc, CacheExtApi& api,
                        uint64_t* regs) {
  using verifier::Kfunc;
  switch (kfunc) {
    case Kfunc::kListCreate:
      return DoKfuncCallT<Kfunc::kListCreate>(api, regs);
    case Kfunc::kListAdd: return DoKfuncCallT<Kfunc::kListAdd>(api, regs);
    case Kfunc::kListMove: return DoKfuncCallT<Kfunc::kListMove>(api, regs);
    case Kfunc::kListDel: return DoKfuncCallT<Kfunc::kListDel>(api, regs);
    case Kfunc::kListSize: return DoKfuncCallT<Kfunc::kListSize>(api, regs);
    case Kfunc::kListIdOf: return DoKfuncCallT<Kfunc::kListIdOf>(api, regs);
    case Kfunc::kCurrentTask:
      return DoKfuncCallT<Kfunc::kCurrentTask>(api, regs);
    case Kfunc::kListIterate:
      return DoKfuncCallT<Kfunc::kListIterate>(api, regs);
    case Kfunc::kListIterateScore:
      return DoKfuncCallT<Kfunc::kListIterateScore>(api, regs);
  }
}

inline IterPlacement ToPlacement(LoopPlace place) {
  return place == LoopPlace::kMoveToTail ? IterPlacement::kMoveToTail
                                         : IterPlacement::kKeepInPlace;
}

// Loop-body verdict mapping for the simple kLoopIterate form: R0 >= 2
// stops the scan, 1 evicts the folio, anything else skips it.
inline IterVerdict VerdictFromR0(uint64_t r0) {
  if (r0 >= 2) {
    return IterVerdict::kStop;
  }
  return r0 == 1 ? IterVerdict::kEvict : IterVerdict::kSkip;
}

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_EXEC_H_
