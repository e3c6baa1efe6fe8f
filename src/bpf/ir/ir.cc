#include "src/bpf/ir/ir.h"

namespace cache_ext::bpf::ir {

namespace {

using verifier::Kfunc;

constexpr KfuncSig kUncallable{};

// clang-format off
const KfuncSig kSigs[verifier::kNumKfuncs] = {
    // kListCreate: () -> list id (0 on failure)
    {0, {}, /*takes_list_lock=*/true, /*callable=*/true},
    // kListAdd: (list id, folio, tail) -> error code
    {3, {ArgKind::kScalar, ArgKind::kFolioPtr, ArgKind::kScalar}, true, true},
    // kListMove: (list id, folio, tail) -> error code
    {3, {ArgKind::kScalar, ArgKind::kFolioPtr, ArgKind::kScalar}, true, true},
    // kListDel: (folio) -> error code
    {1, {ArgKind::kFolioPtr}, true, true},
    // kListSize: (list id) -> size (0 on bad id)
    {1, {ArgKind::kScalar}, true, true},
    // kListIdOf: (folio) -> list id (0 when unlisted)
    {1, {ArgKind::kFolioPtr}, true, true},
    // kListIterate / kListIterateScore: loop forms only, not kCall targets.
    kUncallable,
    kUncallable,
    // kCurrentTask: () -> pid<<32 | tid; lock-free, loop-body safe.
    {0, {}, /*takes_list_lock=*/false, /*callable=*/true},
};
// clang-format on

}  // namespace

const KfuncSig& SignatureOf(Kfunc kfunc) {
  return kSigs[static_cast<uint8_t>(kfunc)];
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kMovImm:            return "mov_imm";
    case Op::kMovReg:            return "mov_reg";
    case Op::kAluImm:            return "alu_imm";
    case Op::kAluReg:            return "alu_reg";
    case Op::kJmp:               return "jmp";
    case Op::kJmpImm:            return "jmp_imm";
    case Op::kJmpReg:            return "jmp_reg";
    case Op::kCtxLoad:           return "ctx_load";
    case Op::kMapLookup:         return "map_lookup";
    case Op::kMapUpdate:         return "map_update";
    case Op::kMapDelete:         return "map_delete";
    case Op::kLoad:              return "load";
    case Op::kStore:             return "store";
    case Op::kStoreImm:          return "store_imm";
    case Op::kFolioKey:          return "folio_key";
    case Op::kCall:              return "call";
    case Op::kLoopIterate:       return "loop_iterate";
    case Op::kLoopIterateScore:  return "loop_iterate_score";
    case Op::kLoopEnd:           return "loop_end";
    case Op::kExit:              return "exit";
  }
  return "?";
}

const char* AluOpName(AluOp op) {
  switch (op) {
    case AluOp::kAdd: return "add";
    case AluOp::kSub: return "sub";
    case AluOp::kMul: return "mul";
    case AluOp::kDiv: return "div";
    case AluOp::kMod: return "mod";
    case AluOp::kAnd: return "and";
    case AluOp::kOr:  return "or";
    case AluOp::kXor: return "xor";
    case AluOp::kLsh: return "lsh";
    case AluOp::kRsh: return "rsh";
  }
  return "?";
}

const char* CondName(Cond cond) {
  switch (cond) {
    case Cond::kEq: return "==";
    case Cond::kNe: return "!=";
    case Cond::kLt: return "<";
    case Cond::kLe: return "<=";
    case Cond::kGt: return ">";
    case Cond::kGe: return ">=";
  }
  return "?";
}

const char* CtxFieldName(CtxField field) {
  switch (field) {
    case CtxField::kFolio:         return "ctx.folio";
    case CtxField::kNrRequested:   return "ctx.nr_candidates_requested";
    case CtxField::kIndex:         return "ctx.index";
    case CtxField::kPrevIndex:     return "ctx.prev_index";
    case CtxField::kDefaultWindow: return "ctx.default_window";
    case CtxField::kPid:           return "ctx.pid";
    case CtxField::kTid:           return "ctx.tid";
    case CtxField::kIsWrite:       return "ctx.is_write";
    case CtxField::kTier:          return "ctx.tier";
    case CtxField::kNrPages:       return "ctx.nr_pages";
    case CtxField::kNrDirty:       return "ctx.nr_dirty";
    case CtxField::kForSync:       return "ctx.for_sync";
    case CtxField::kNrProposed:    return "ctx.nr_candidates_proposed";
  }
  return "ctx.?";
}

std::string Disasm(const Inst& inst, size_t pc) {
  auto reg = [](uint8_t r) { return "r" + std::to_string(r); };
  std::string out = std::to_string(pc) + ": ";
  switch (inst.op) {
    case Op::kMovImm:
      out += reg(inst.dst) + " = " + std::to_string(inst.imm);
      break;
    case Op::kMovReg:
      out += reg(inst.dst) + " = " + reg(inst.src);
      break;
    case Op::kAluImm:
      out += reg(inst.dst) + " " + AluOpName(inst.alu) + "= " +
             std::to_string(inst.imm);
      break;
    case Op::kAluReg:
      out += reg(inst.dst) + " " + AluOpName(inst.alu) + "= " + reg(inst.src);
      break;
    case Op::kJmp:
      out += "goto " + std::to_string(inst.target);
      break;
    case Op::kJmpImm:
      out += "if " + reg(inst.dst) + " " + CondName(inst.cond) + " " +
             std::to_string(inst.imm) + " goto " + std::to_string(inst.target);
      break;
    case Op::kJmpReg:
      out += "if " + reg(inst.dst) + " " + CondName(inst.cond) + " " +
             reg(inst.src) + " goto " + std::to_string(inst.target);
      break;
    case Op::kCtxLoad:
      out += reg(inst.dst) + " = " + CtxFieldName(inst.ctx);
      break;
    case Op::kMapLookup:
      out += "r0 = lookup(map#" + std::to_string(inst.map) + ", key=" +
             reg(inst.src) + ")";
      break;
    case Op::kMapUpdate:
      out += "update(map#" + std::to_string(inst.map) + ", key=" +
             reg(inst.dst) + ", val=" + reg(inst.src) + ")";
      break;
    case Op::kMapDelete:
      out += "delete(map#" + std::to_string(inst.map) + ", key=" +
             reg(inst.dst) + ")";
      break;
    case Op::kLoad:
      out += reg(inst.dst) + " = *(u64*)(" + reg(inst.src) + " + " +
             std::to_string(inst.off) + ")";
      break;
    case Op::kStore:
      out += "*(u64*)(" + reg(inst.dst) + " + " + std::to_string(inst.off) +
             ") = " + reg(inst.src);
      break;
    case Op::kStoreImm:
      out += "*(u64*)(" + reg(inst.dst) + " + " + std::to_string(inst.off) +
             ") = " + std::to_string(inst.imm);
      break;
    case Op::kFolioKey:
      out += reg(inst.dst) + " = folio_key(" + reg(inst.src) + ")";
      break;
    case Op::kCall:
      out += "call " + std::string(verifier::KfuncName(inst.kfunc));
      break;
    case Op::kLoopIterate:
    case Op::kLoopIterateScore:
      out += std::string(OpName(inst.op)) + "(list=" + reg(inst.dst) +
             ", bound=" +
             (inst.bound_is_reg ? reg(inst.src) : std::to_string(inst.imm)) +
             ") body=[" + std::to_string(pc + 1) + ", " +
             std::to_string(inst.target) + ")";
      break;
    case Op::kLoopEnd:
      out += "loop_end";
      break;
    case Op::kExit:
      out += "exit (r0)";
      break;
  }
  return out;
}

}  // namespace cache_ext::bpf::ir
