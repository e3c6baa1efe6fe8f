#include "src/bpf/verifier/ir_verifier.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/util/logging.h"

namespace cache_ext::bpf::verifier {

namespace {

using ir::AluOp;
using ir::ArgKind;
using ir::Cond;
using ir::CtxField;
using ir::Inst;
using ir::KfuncSig;
using ir::Op;
using ir::Program;
using ir::R0;
using ir::R1;
using ir::R5;

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

std::string U64(uint64_t v) { return std::to_string(v); }

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > kU64Max - b ? kU64Max : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  return a > kU64Max / b ? kU64Max : a * b;
}

// -----------------------------------------------------------------------
// The abstract register lattice — a miniature bpf_reg_state. A register is
// untracked garbage, an unsigned scalar interval, or a typed pointer whose
// provenance (which map / the hook's folio) the verifier uses to bound
// every dereference and kfunc argument.
// -----------------------------------------------------------------------

enum class RKind : uint8_t {
  kUninit = 0,  // never written on some path — any read is rejected
  kScalar,      // value in [min, max] (unsigned)
  kFolio,       // folio pointer from ctx or a loop body; non-null
  kMapValue,    // non-null pointer into map value `map`
  kMaybeNull,   // PTR_TO_MAP_VALUE_OR_NULL: must be null-checked first
  kNull,        // provably null (the checked branch of a lookup)
};

struct RegAbs {
  RKind kind = RKind::kUninit;
  uint64_t min = 0;
  uint64_t max = 0;
  uint32_t map = 0;

  bool operator==(const RegAbs&) const = default;
};

RegAbs Scalar(uint64_t min, uint64_t max) {
  return RegAbs{RKind::kScalar, min, max, 0};
}
RegAbs FullScalar() { return Scalar(0, kU64Max); }
RegAbs Folio() { return RegAbs{RKind::kFolio, 0, 0, 0}; }
RegAbs MapValue(uint32_t map) { return RegAbs{RKind::kMapValue, 0, 0, map}; }
RegAbs MaybeNull(uint32_t map) { return RegAbs{RKind::kMaybeNull, 0, 0, map}; }
RegAbs NullPtr(uint32_t map) { return RegAbs{RKind::kNull, 0, 0, map}; }

const char* KindName(RKind k) {
  switch (k) {
    case RKind::kUninit:    return "uninitialized";
    case RKind::kScalar:    return "scalar";
    case RKind::kFolio:     return "folio pointer";
    case RKind::kMapValue:  return "map value pointer";
    case RKind::kMaybeNull: return "possibly-null map value pointer";
    case RKind::kNull:      return "null pointer";
  }
  return "?";
}

// Join of two incoming states at a CFG merge point. Kind conflicts (other
// than the null/non-null split of one map's value pointer) collapse to
// kUninit: the merged value is unusable, and any later read reports it.
RegAbs JoinReg(const RegAbs& a, const RegAbs& b) {
  if (a.kind == RKind::kUninit || b.kind == RKind::kUninit) {
    return RegAbs{};
  }
  if (a.kind == b.kind) {
    switch (a.kind) {
      case RKind::kScalar:
        return Scalar(std::min(a.min, b.min), std::max(a.max, b.max));
      case RKind::kFolio:
        return a;
      case RKind::kMapValue:
      case RKind::kMaybeNull:
      case RKind::kNull:
        return a.map == b.map ? a : RegAbs{};
      case RKind::kUninit:
        return RegAbs{};
    }
  }
  // Null / non-null flavors of the same map's value pointer re-merge into
  // the maybe-null form.
  const bool a_mapish = a.kind == RKind::kMapValue ||
                        a.kind == RKind::kMaybeNull || a.kind == RKind::kNull;
  const bool b_mapish = b.kind == RKind::kMapValue ||
                        b.kind == RKind::kMaybeNull || b.kind == RKind::kNull;
  if (a_mapish && b_mapish && a.map == b.map) {
    return MaybeNull(a.map);
  }
  return RegAbs{};
}

struct AbsState {
  std::array<RegAbs, ir::kNumRegs> regs = {};

  bool operator==(const AbsState&) const = default;
};

AbsState JoinState(const AbsState& a, const AbsState& b) {
  AbsState out;
  for (size_t r = 0; r < ir::kNumRegs; ++r) {
    out.regs[r] = JoinReg(a.regs[r], b.regs[r]);
  }
  return out;
}

// Refine a scalar's range along the branch where `range <cond> imm` holds.
// Returns nullopt when the branch is provably never taken (empty range) —
// which doubles as the reachability proof for dead-branch detection.
std::optional<RegAbs> RefineScalar(const RegAbs& r, Cond cond, uint64_t imm) {
  uint64_t lo = r.min;
  uint64_t hi = r.max;
  switch (cond) {
    case Cond::kEq:
      if (imm < lo || imm > hi) return std::nullopt;
      lo = hi = imm;
      break;
    case Cond::kNe:
      if (lo == hi && lo == imm) return std::nullopt;
      // Shave the endpoints when the excluded value sits on one.
      if (lo == imm) ++lo;
      if (hi == imm && hi > 0) --hi;
      break;
    case Cond::kLt:
      if (imm == 0 || lo >= imm) return std::nullopt;
      hi = std::min(hi, imm - 1);
      break;
    case Cond::kLe:
      if (lo > imm) return std::nullopt;
      hi = std::min(hi, imm);
      break;
    case Cond::kGt:
      if (imm == kU64Max || hi <= imm) return std::nullopt;
      lo = std::max(lo, imm + 1);
      break;
    case Cond::kGe:
      if (hi < imm) return std::nullopt;
      lo = std::max(lo, imm);
      break;
  }
  if (lo > hi) return std::nullopt;
  return Scalar(lo, hi);
}

Cond Negate(Cond cond) {
  switch (cond) {
    case Cond::kEq: return Cond::kNe;
    case Cond::kNe: return Cond::kEq;
    case Cond::kLt: return Cond::kGe;
    case Cond::kLe: return Cond::kGt;
    case Cond::kGt: return Cond::kLe;
    case Cond::kGe: return Cond::kLt;
  }
  return Cond::kEq;
}

// Range-level provability of `l <cond> r`: true/false when every pair of
// values decides the same way, nullopt otherwise.
std::optional<bool> ProveCond(const RegAbs& l, Cond cond, const RegAbs& r) {
  switch (cond) {
    case Cond::kEq:
      if (l.min == l.max && r.min == r.max && l.min == r.min) return true;
      if (l.max < r.min || l.min > r.max) return false;
      return std::nullopt;
    case Cond::kNe: {
      auto eq = ProveCond(l, Cond::kEq, r);
      if (!eq) return std::nullopt;
      return !*eq;
    }
    case Cond::kLt:
      if (l.max < r.min) return true;
      if (l.min >= r.max) return false;
      return std::nullopt;
    case Cond::kLe:
      if (l.max <= r.min) return true;
      if (l.min > r.max) return false;
      return std::nullopt;
    case Cond::kGt:
      return ProveCond(r, Cond::kLt, l);
    case Cond::kGe:
      return ProveCond(r, Cond::kLe, l);
  }
  return std::nullopt;
}

// Interval arithmetic for the ALU ops, saturating on overflow (a range that
// wraps is widened to full, never inverted).
RegAbs AluRange(AluOp op, const RegAbs& l, const RegAbs& r) {
  switch (op) {
    case AluOp::kAdd:
      if (l.max > kU64Max - r.max) return FullScalar();  // may wrap
      return Scalar(l.min + r.min, l.max + r.max);
    case AluOp::kSub:
      if (l.min < r.max) return FullScalar();  // may underflow
      return Scalar(l.min - r.max, l.max - r.min);
    case AluOp::kMul:
      if (l.max != 0 && SatMul(l.max, r.max) == kU64Max) return FullScalar();
      return Scalar(l.min * r.min, l.max * r.max);
    case AluOp::kDiv:
      // Caller already proved r.min > 0.
      return Scalar(l.min / r.max, l.max / r.min);
    case AluOp::kMod:
      return Scalar(0, r.max - 1);
    case AluOp::kAnd:
      return Scalar(0, std::min(l.max, r.max));
    case AluOp::kOr:
    case AluOp::kXor:
      if (l.max == 0) return Scalar(r.min, r.max);
      if (r.max == 0) return Scalar(l.min, l.max);
      return Scalar(0, kU64Max);
    case AluOp::kLsh:
      if (r.max >= 64 || SatMul(l.max, uint64_t{1} << r.max) == kU64Max) {
        return FullScalar();
      }
      return Scalar(l.min << r.min, l.max << r.max);
    case AluOp::kRsh:
      if (r.max >= 64) return Scalar(0, l.max);
      return Scalar(r.max >= 64 ? 0 : l.min >> r.max, l.max >> r.min);
  }
  return FullScalar();
}

// Which hooks may read each ctx field, and the field's abstract value —
// the IR analogue of the kernel typing each program's context argument.
std::optional<RegAbs> CtxFieldIn(Hook hook, CtxField field,
                                 uint64_t candidate_cap) {
  const bool folio_hook =
      hook == Hook::kFolioAdded || hook == Hook::kFolioAccessed ||
      hook == Hook::kFolioRemoved || hook == Hook::kFolioRefaulted;
  const bool fault_hook = hook == Hook::kAdmitFolio ||
                          hook == Hook::kReadahead || hook == Hook::kAdmitOrder;
  const bool writeback_hook =
      hook == Hook::kShouldWriteback || hook == Hook::kWritebackOrder;
  switch (field) {
    case CtxField::kFolio:
      if (folio_hook) return Folio();
      break;
    case CtxField::kNrRequested:
      if (hook == Hook::kEvictFolios) return Scalar(0, candidate_cap);
      if (hook == Hook::kReadahead || hook == Hook::kAdmitOrder) {
        return Scalar(0, std::numeric_limits<uint32_t>::max());
      }
      break;
    case CtxField::kIndex:
      if (fault_hook || writeback_hook) return FullScalar();
      break;
    case CtxField::kPrevIndex:
      if (hook == Hook::kReadahead) return FullScalar();
      break;
    case CtxField::kDefaultWindow:
      if (hook == Hook::kReadahead) {
        return Scalar(0, std::numeric_limits<uint32_t>::max());
      }
      break;
    case CtxField::kPid:
    case CtxField::kTid:
      if (fault_hook) {
        return Scalar(0, std::numeric_limits<int32_t>::max());
      }
      break;
    case CtxField::kIsWrite:
      if (hook == Hook::kAdmitFolio || hook == Hook::kAdmitOrder) {
        return Scalar(0, 1);
      }
      break;
    case CtxField::kTier:
      if (hook == Hook::kFolioRefaulted) return Scalar(0, 255);
      break;
    case CtxField::kNrPages:
      // A folio spans 2^order pages, order <= kMaxFolioOrder (= 4).
      if (writeback_hook) return Scalar(1, 16);
      break;
    case CtxField::kNrDirty:
      if (writeback_hook) return FullScalar();
      break;
    case CtxField::kForSync:
      if (writeback_hook) return Scalar(0, 1);
      break;
  }
  return std::nullopt;
}

// Hooks each kfunc may be called from. list_create allocates policy state
// and is init-only; list mutation needs a live folio event. This is how
// "no list_add from readahead" becomes a *derived* fact.
bool KfuncAllowedInHook(Kfunc kfunc, Hook hook) {
  const bool folio_hook =
      hook == Hook::kFolioAdded || hook == Hook::kFolioAccessed ||
      hook == Hook::kFolioRemoved || hook == Hook::kFolioRefaulted;
  switch (kfunc) {
    case Kfunc::kListCreate:
      return hook == Hook::kPolicyInit;
    case Kfunc::kListAdd:
    case Kfunc::kListMove:
    case Kfunc::kListDel:
    case Kfunc::kListIdOf:
      return folio_hook;
    case Kfunc::kListSize:
    case Kfunc::kCurrentTask:
      return true;
    case Kfunc::kListIterate:
    case Kfunc::kListIterateScore:
      return hook == Hook::kEvictFolios;  // via the loop forms only
  }
  return false;
}

bool HookReturnsValue(Hook hook) {
  return hook == Hook::kPolicyInit || hook == Hook::kAdmitFolio ||
         hook == Hook::kReadahead || hook == Hook::kAdmitOrder ||
         hook == Hook::kShouldWriteback || hook == Hook::kWritebackOrder;
}

// -----------------------------------------------------------------------
// Per-hook analyzer: structure pass, then the abstract interpretation.
// -----------------------------------------------------------------------

class HookAnalyzer {
 public:
  HookAnalyzer(const ir::IrPolicy& policy, Hook hook, VerifierLog* log,
               uint64_t candidate_cap)
      : policy_(policy),
        prog_(policy.hook(hook)),
        hook_(hook),
        log_(log),
        candidate_cap_(candidate_cap),
        const_key_(policy.hook(hook).size(), kKeyUnvisited) {}

  // Runs every pass; returns true iff all proofs for this hook succeeded.
  // Findings (pass and fail) are appended to the log.
  bool Run();

  uint64_t max_helper_calls() const { return max_helper_calls_; }
  uint64_t max_loop_iters() const { return max_loop_iters_; }
  KfuncSet kfuncs() const { return kfuncs_; }
  uint64_t lists_created() const { return lists_created_; }
  // Worst-case candidates the hook's loops can propose (pre-clamp).
  uint64_t candidates_possible() const { return candidates_possible_; }
  bool has_side_effect() const { return side_effect_; }
  // Exported facts (HookFacts): per-pc constant lookup keys, -1 where the
  // key is not a single proven constant (or pc is not a lookup).
  std::vector<int64_t> const_lookup_keys() const {
    std::vector<int64_t> keys(const_key_.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = const_key_[i] == kKeyUnvisited ? -1 : const_key_[i];
    }
    return keys;
  }

 private:
  // Everything the interpretation carries along an edge: the register
  // state plus the worst-case helper calls / loop iterations consumed to
  // reach it (the derived-budget accounting).
  struct Flow {
    AbsState state;
    uint64_t cost = 0;
    uint64_t iters = 0;
  };
  struct ExitInfo {
    size_t pc;
    uint64_t cost;
    uint64_t iters;
    RegAbs r0;
  };
  struct RangeResult {
    bool fall_reachable = false;
    Flow fall;
  };

  void Err(Check check, size_t pc, std::string msg) {
    errors_.emplace(pc, static_cast<uint8_t>(check), std::move(msg));
  }
  bool HasErrors() const { return !errors_.empty(); }

  bool StructureCheck();
  // The innermost loop whose BODY contains pc, as an index into loops_.
  std::optional<size_t> BodyOf(size_t pc) const;

  void Interpret();
  std::optional<RangeResult> AnalyzeRange(size_t begin, size_t end,
                                          Flow entry, bool in_body);
  // Transfer one instruction; merges successor flows via `merge_to`.
  // Returns false on a hard (non-recoverable) analysis error.
  template <typename MergeFn>
  bool Transfer(size_t pc, Flow cur, bool in_body, MergeFn&& merge_to);
  template <typename MergeFn>
  bool TransferLoop(size_t pc, Flow cur, MergeFn&& merge_to);

  void CheckExits();
  void CheckDeadHook();
  void EmitFindings();

  const ir::IrPolicy& policy_;
  const Program& prog_;
  const Hook hook_;
  VerifierLog* const log_;
  const uint64_t candidate_cap_;

  // Per-pc constant-key lattice: kKeyUnvisited until a kMapLookup at pc is
  // first interpreted, then the constant (>= 0) or -1 (not constant).
  static constexpr int64_t kKeyUnvisited = -2;
  std::vector<int64_t> const_key_;

  struct LoopExtent {
    size_t header;
    size_t end;
  };
  std::vector<LoopExtent> loops_;

  // Deduplicated findings, ordered by pc: loop-body fixpoint rounds
  // re-analyze the same instructions and must not re-report.
  std::set<std::tuple<size_t, uint8_t, std::string>> errors_;
  std::vector<bool> visited_;
  std::vector<ExitInfo> exits_;

  uint64_t max_helper_calls_ = 0;
  uint64_t max_loop_iters_ = 0;
  uint64_t lists_created_ = 0;
  uint64_t candidates_possible_ = 0;
  KfuncSet kfuncs_;
  bool side_effect_ = false;
  bool fell_off_end_ = false;
  size_t nr_loops_seen_ = 0;
};

bool HookAnalyzer::StructureCheck() {
  const size_t n = prog_.size();
  std::vector<size_t> stack;  // indices into loops_
  for (size_t pc = 0; pc < n; ++pc) {
    const Inst& ins = prog_[pc];
    switch (ins.op) {
      case Op::kLoopIterate:
      case Op::kLoopIterateScore: {
        if (!stack.empty()) {
          Err(Check::kIrLoopBound, pc,
              "nested list_iterate loops are not allowed");
          break;
        }
        const int64_t t = ins.target;
        if (t < 0 || static_cast<size_t>(t) >= n) {
          Err(Check::kIrCfg, pc, "loop has no matching loop_end in range");
          break;
        }
        if (static_cast<size_t>(t) <= pc + 1) {
          Err(Check::kIrCfg, pc, "loop body is empty or ends before it starts");
          break;
        }
        if (prog_[t].op != Op::kLoopEnd) {
          Err(Check::kIrCfg, pc, "loop target is not a loop_end instruction");
          break;
        }
        loops_.push_back({pc, static_cast<size_t>(t)});
        stack.push_back(loops_.size() - 1);
        break;
      }
      case Op::kLoopEnd:
        if (stack.empty() || loops_[stack.back()].end != pc) {
          Err(Check::kIrCfg, pc, "loop_end without a matching open loop");
        } else {
          stack.pop_back();
        }
        break;
      case Op::kJmp:
      case Op::kJmpImm:
      case Op::kJmpReg: {
        const int64_t t = ins.target;
        if (t >= 0 && static_cast<size_t>(t) <= pc) {
          Err(Check::kIrLoopBound, pc,
              "backward jump — only the structured list_iterate forms may "
              "loop, so termination stays provable");
        } else if (t < 0 || static_cast<size_t>(t) >= n) {
          Err(Check::kIrCfg, pc, "jump target out of range");
        }
        break;
      }
      default:
        break;
    }
  }
  // A header whose loop_end never appeared leaves the stack non-empty; its
  // target check above already reported the malformation.

  // Jumps must respect loop-body boundaries: jumping into a body skips the
  // iteration setup, jumping out of one escapes with the list lock held.
  // The one legal cross-edge is a jump from inside a body to its own
  // loop_end (finish this iteration with the current r0).
  for (size_t pc = 0; pc < n; ++pc) {
    const Inst& ins = prog_[pc];
    if (ins.op != Op::kJmp && ins.op != Op::kJmpImm && ins.op != Op::kJmpReg) {
      continue;
    }
    const int64_t t64 = ins.target;
    if (t64 < 0 || static_cast<size_t>(t64) <= pc ||
        static_cast<size_t>(t64) >= n) {
      continue;  // already reported
    }
    const size_t t = static_cast<size_t>(t64);
    const auto src_body = BodyOf(pc);
    const auto dst_body = BodyOf(t);
    if (src_body == dst_body) {
      continue;
    }
    if (src_body && !dst_body && t == loops_[*src_body].end) {
      continue;  // early loop_end from inside the body
    }
    Err(Check::kIrCfg, pc,
        dst_body ? "jump into a loop body" : "jump out of a loop body");
  }
  for (size_t pc = 0; pc < n; ++pc) {
    if (prog_[pc].op == Op::kExit && BodyOf(pc)) {
      Err(Check::kIrCfg, pc,
          "exit inside a loop body — return a stop verdict in r0 instead");
    }
  }
  return !HasErrors();
}

std::optional<size_t> HookAnalyzer::BodyOf(size_t pc) const {
  for (size_t i = 0; i < loops_.size(); ++i) {
    if (pc > loops_[i].header && pc < loops_[i].end) {
      return i;
    }
  }
  return std::nullopt;
}

void HookAnalyzer::Interpret() {
  const size_t n = prog_.size();
  visited_.assign(n, false);
  Flow entry;  // every register starts uninitialized, like the kernel
  auto res = AnalyzeRange(0, n, entry, /*in_body=*/false);
  if (!res) {
    return;
  }
  if (res->fall_reachable) {
    fell_off_end_ = true;
    Err(Check::kIrCfg, n == 0 ? 0 : n - 1,
        "control can fall off the end of the program — every path must exit");
  }
  // Reachability: only meaningful when the walk itself was clean — an
  // errored path stops propagating and would smear bogus unreachability
  // over everything after it.
  if (!HasErrors()) {
    for (size_t pc = 0; pc < n; ++pc) {
      if (!visited_[pc]) {
        Err(Check::kIrUnreachable, pc,
            "unreachable instruction (no path from the entry reaches it)");
      }
    }
  }
  for (const ExitInfo& e : exits_) {
    max_helper_calls_ = std::max(max_helper_calls_, e.cost);
    max_loop_iters_ = std::max(max_loop_iters_, e.iters);
  }
}

std::optional<HookAnalyzer::RangeResult> HookAnalyzer::AnalyzeRange(
    size_t begin, size_t end, Flow entry, bool in_body) {
  // One incoming-flow slot per pc in [begin, end]; the `end` slot catches
  // fallthrough past the last instruction (top level: falling off the end;
  // loop body: normal completion of an iteration).
  const size_t span = end - begin + 1;
  std::vector<std::optional<Flow>> in(span);
  in[0] = std::move(entry);
  auto merge_to = [&](size_t pc, const Flow& f) {
    CHECK(pc >= begin && pc <= end);
    std::optional<Flow>& slot = in[pc - begin];
    if (!slot) {
      slot = f;
    } else {
      slot->state = JoinState(slot->state, f.state);
      slot->cost = std::max(slot->cost, f.cost);
      slot->iters = std::max(slot->iters, f.iters);
    }
  };
  // All control flow is forward, so one ascending pass visits every pc
  // after all of its predecessors: the worklist is the program order.
  for (size_t pc = begin; pc < end; ++pc) {
    if (!in[pc - begin]) {
      continue;
    }
    visited_[pc] = true;
    Flow cur = *in[pc - begin];
    if (!Transfer(pc, std::move(cur), in_body, merge_to)) {
      return std::nullopt;
    }
  }
  RangeResult rr;
  if (in[span - 1]) {
    rr.fall_reachable = true;
    rr.fall = *in[span - 1];
  }
  return rr;
}

template <typename MergeFn>
bool HookAnalyzer::Transfer(size_t pc, Flow cur, bool in_body,
                            MergeFn&& merge_to) {
  const Inst& ins = prog_[pc];
  auto at = [&]() { return " at {" + ir::Disasm(ins, pc) + "}"; };
  auto reg_name = [](uint8_t r) { return "r" + std::to_string(r); };

  // On a per-instruction proof failure the path stops here (no successor
  // flows), exactly like the kernel verifier aborting the current path —
  // this keeps one root cause from cascading into downstream noise.
  auto need_init = [&](uint8_t r) {
    if (cur.state.regs[r].kind == RKind::kUninit) {
      Err(Check::kIrRegSafety, pc,
          "read of uninitialized " + reg_name(r) + at());
      return false;
    }
    return true;
  };
  auto need_scalar = [&](uint8_t r) {
    if (!need_init(r)) {
      return false;
    }
    if (cur.state.regs[r].kind != RKind::kScalar) {
      Err(Check::kIrRegSafety, pc,
          reg_name(r) + " is a " + KindName(cur.state.regs[r].kind) +
              ", not a scalar — pointer arithmetic/comparison is rejected" +
              at());
      return false;
    }
    return true;
  };
  auto need_map = [&](uint32_t map) {
    if (map >= policy_.maps.size()) {
      Err(Check::kIrMapBounds, pc,
          "map #" + U64(map) + " is not declared (policy has " +
              U64(policy_.maps.size()) + " map(s))" + at());
      return false;
    }
    return true;
  };
  auto need_key = [&](uint8_t r, uint32_t map) {
    if (!need_scalar(r) || !need_map(map)) {
      return false;
    }
    const ir::MapDecl& decl = policy_.maps[map];
    if (decl.kind == ir::IrMapKind::kArray &&
        cur.state.regs[r].max >= decl.max_entries) {
      Err(Check::kIrMapBounds, pc,
          "array map '" + decl.name + "' key range [" +
              U64(cur.state.regs[r].min) + ", " + U64(cur.state.regs[r].max) +
              "] may reach max_entries " + U64(decl.max_entries) + at());
      return false;
    }
    return true;
  };
  auto need_value_ptr = [&](uint8_t r, int32_t off) -> bool {
    if (!need_init(r)) {
      return false;
    }
    const RegAbs& v = cur.state.regs[r];
    if (v.kind == RKind::kMaybeNull) {
      Err(Check::kIrRegSafety, pc,
          reg_name(r) +
              " may be null — null-check the lookup result before the "
              "access" +
              at());
      return false;
    }
    if (v.kind != RKind::kMapValue) {
      Err(Check::kIrRegSafety, pc,
          reg_name(r) + " is a " + KindName(v.kind) +
              ", not a map value pointer" + at());
      return false;
    }
    const ir::MapDecl& decl = policy_.maps[v.map];
    if (off < 0 || off % 8 != 0 ||
        static_cast<uint64_t>(off) + 8 > decl.value_size) {
      Err(Check::kIrMapBounds, pc,
          "access at offset " + std::to_string(off) +
              " is outside map '" + decl.name + "' value (size " +
              U64(decl.value_size) + ", 8-byte aligned)" + at());
      return false;
    }
    return true;
  };
  auto fall = [&]() { merge_to(pc + 1, cur); };

  switch (ins.op) {
    case Op::kMovImm:
      cur.state.regs[ins.dst] =
          Scalar(static_cast<uint64_t>(ins.imm), static_cast<uint64_t>(ins.imm));
      fall();
      break;
    case Op::kMovReg:
      if (!need_init(ins.src)) break;
      cur.state.regs[ins.dst] = cur.state.regs[ins.src];
      fall();
      break;
    case Op::kAluImm:
    case Op::kAluReg: {
      if (!need_scalar(ins.dst)) break;
      RegAbs rhs;
      if (ins.op == Op::kAluReg) {
        if (!need_scalar(ins.src)) break;
        rhs = cur.state.regs[ins.src];
      } else {
        rhs = Scalar(static_cast<uint64_t>(ins.imm),
                     static_cast<uint64_t>(ins.imm));
      }
      if ((ins.alu == AluOp::kDiv || ins.alu == AluOp::kMod) && rhs.min == 0) {
        Err(Check::kIrRegSafety, pc,
            "divisor range [" + U64(rhs.min) + ", " + U64(rhs.max) +
                "] admits zero" + at());
        break;
      }
      cur.state.regs[ins.dst] = AluRange(ins.alu, cur.state.regs[ins.dst], rhs);
      fall();
      break;
    }
    case Op::kJmp:
      merge_to(static_cast<size_t>(ins.target), cur);
      break;
    case Op::kJmpImm: {
      if (!need_init(ins.dst)) break;
      const RegAbs& r = cur.state.regs[ins.dst];
      const size_t target = static_cast<size_t>(ins.target);
      const uint64_t imm = static_cast<uint64_t>(ins.imm);
      if (r.kind == RKind::kScalar) {
        // Branch refinement: each side continues with the sub-range that
        // makes its direction possible; an empty sub-range proves the
        // direction dead and the flow simply does not merge there.
        if (auto taken = RefineScalar(r, ins.cond, imm)) {
          Flow f = cur;
          f.state.regs[ins.dst] = *taken;
          merge_to(target, f);
        }
        if (auto not_taken = RefineScalar(r, Negate(ins.cond), imm)) {
          Flow f = cur;
          f.state.regs[ins.dst] = *not_taken;
          merge_to(pc + 1, f);
        }
        break;
      }
      // Pointers only support the null test, like the kernel.
      if (imm != 0 || (ins.cond != Cond::kEq && ins.cond != Cond::kNe)) {
        Err(Check::kIrRegSafety, pc,
            "pointers only support == 0 / != 0 tests" + at());
        break;
      }
      const bool eq = ins.cond == Cond::kEq;
      if (r.kind == RKind::kMaybeNull) {
        Flow null_flow = cur;
        null_flow.state.regs[ins.dst] = NullPtr(r.map);
        Flow ok_flow = cur;
        ok_flow.state.regs[ins.dst] = MapValue(r.map);
        merge_to(target, eq ? null_flow : ok_flow);
        merge_to(pc + 1, eq ? ok_flow : null_flow);
      } else if (r.kind == RKind::kNull) {
        merge_to(eq ? target : pc + 1, cur);
      } else {
        // kFolio / kMapValue are non-null by construction.
        merge_to(eq ? pc + 1 : target, cur);
      }
      break;
    }
    case Op::kJmpReg: {
      if (!need_scalar(ins.dst) || !need_scalar(ins.src)) break;
      const auto proven =
          ProveCond(cur.state.regs[ins.dst], ins.cond, cur.state.regs[ins.src]);
      const size_t target = static_cast<size_t>(ins.target);
      if (!proven || *proven) {
        merge_to(target, cur);
      }
      if (!proven || !*proven) {
        merge_to(pc + 1, cur);
      }
      break;
    }
    case Op::kCtxLoad: {
      const auto value = CtxFieldIn(hook_, ins.ctx, candidate_cap_);
      if (!value) {
        Err(Check::kIrRegSafety, pc,
            std::string(ir::CtxFieldName(ins.ctx)) +
                " is not part of the " + HookName(hook_) + " context" + at());
        break;
      }
      cur.state.regs[ins.dst] = *value;
      fall();
      break;
    }
    case Op::kMapLookup: {
      if (!need_key(ins.src, ins.map)) break;
      // Compile-time fact for the JIT: a key proven to be one constant on
      // every path reaching this pc lets the backend fold the lookup to a
      // direct pointer (the kernel's map_gen_lookup inlining). Revisits
      // (loop fixpoint / joins) with a different value demote to -1.
      const RegAbs& key = cur.state.regs[ins.src];
      const int64_t konst = key.kind == RKind::kScalar && key.min == key.max
                                ? static_cast<int64_t>(key.min)
                                : -1;
      if (const_key_[pc] == kKeyUnvisited) {
        const_key_[pc] = konst;
      } else if (const_key_[pc] != konst) {
        const_key_[pc] = -1;
      }
      cur.state.regs[R0] = MaybeNull(ins.map);
      fall();
      break;
    }
    case Op::kMapUpdate:
      if (!need_key(ins.dst, ins.map) || !need_scalar(ins.src)) break;
      cur.state.regs[R0] = Scalar(0, 1);
      side_effect_ = true;
      fall();
      break;
    case Op::kMapDelete:
      if (!need_key(ins.dst, ins.map)) break;
      cur.state.regs[R0] = Scalar(0, 1);
      side_effect_ = true;
      fall();
      break;
    case Op::kLoad:
      if (!need_value_ptr(ins.src, ins.off)) break;
      cur.state.regs[ins.dst] = FullScalar();
      fall();
      break;
    case Op::kStore:
      if (!need_value_ptr(ins.dst, ins.off) || !need_scalar(ins.src)) break;
      side_effect_ = true;
      fall();
      break;
    case Op::kStoreImm:
      if (!need_value_ptr(ins.dst, ins.off)) break;
      side_effect_ = true;
      fall();
      break;
    case Op::kFolioKey:
      if (!need_init(ins.src)) break;
      if (cur.state.regs[ins.src].kind != RKind::kFolio) {
        Err(Check::kIrRegSafety, pc,
            "folio_key needs a folio pointer, " + reg_name(ins.src) +
                " is a " + KindName(cur.state.regs[ins.src].kind) + at());
        break;
      }
      cur.state.regs[ins.dst] = FullScalar();
      fall();
      break;
    case Op::kCall: {
      const KfuncSig& sig = ir::SignatureOf(ins.kfunc);
      if (!sig.callable) {
        Err(Check::kIrKfuncContext, pc,
            std::string(KfuncName(ins.kfunc)) +
                " is not callable directly — use the loop forms" + at());
        break;
      }
      if (!KfuncAllowedInHook(ins.kfunc, hook_)) {
        Err(Check::kIrKfuncContext, pc,
            std::string(KfuncName(ins.kfunc)) + " is not allowed in " +
                HookName(hook_) + at());
        break;
      }
      if (in_body && sig.takes_list_lock) {
        Err(Check::kIrKfuncContext, pc,
            std::string(KfuncName(ins.kfunc)) +
                " takes the eviction-list lock, which list_iterate already "
                "holds around the loop body — calling it here would "
                "self-deadlock" +
                at());
        break;
      }
      bool args_ok = true;
      for (uint8_t a = 0; a < sig.nr_args; ++a) {
        const uint8_t r = static_cast<uint8_t>(R1 + a);
        if (!need_init(r)) {
          args_ok = false;
          break;
        }
        const RKind kind = cur.state.regs[r].kind;
        const bool want_folio = sig.args[a] == ArgKind::kFolioPtr;
        const bool is_folio = kind == RKind::kFolio;
        const bool is_scalar = kind == RKind::kScalar;
        if (want_folio != is_folio || (!want_folio && !is_scalar)) {
          Err(Check::kIrKfuncContext, pc,
              "argument " + U64(a + 1) + " of " + KfuncName(ins.kfunc) +
                  " must be a " +
                  (want_folio ? "folio pointer" : "scalar") + ", got " +
                  KindName(kind) + at());
          args_ok = false;
          break;
        }
      }
      if (!args_ok) break;
      kfuncs_.Add(ins.kfunc);
      if (ins.kfunc == Kfunc::kListCreate) {
        ++lists_created_;
      }
      side_effect_ = side_effect_ || sig.takes_list_lock;
      cur.state.regs[R0] = FullScalar();
      for (uint8_t r = R1; r <= R5; ++r) {
        cur.state.regs[r] = RegAbs{};
      }
      cur.cost = SatAdd(cur.cost, 1);
      fall();
      break;
    }
    case Op::kLoopIterate:
    case Op::kLoopIterateScore:
      return TransferLoop(pc, std::move(cur), merge_to);
    case Op::kLoopEnd:
      // Structurally valid loop_ends are consumed by TransferLoop; an
      // executed one means flow reached it outside any loop.
      Err(Check::kIrCfg, pc, "stray loop_end reached by control flow" + at());
      break;
    case Op::kExit:
      if (in_body) {
        break;  // already reported by the structure pass
      }
      exits_.push_back({pc, cur.cost, cur.iters, cur.state.regs[R0]});
      break;
  }
  return true;
}

template <typename MergeFn>
bool HookAnalyzer::TransferLoop(size_t pc, Flow cur, MergeFn&& merge_to) {
  const Inst& ins = prog_[pc];
  auto at = [&]() { return " at {" + ir::Disasm(ins, pc) + "}"; };
  const bool score = ins.op == Op::kLoopIterateScore;
  ++nr_loops_seen_;

  if (hook_ != Hook::kEvictFolios) {
    Err(Check::kIrKfuncContext, pc,
        "list_iterate is only available in evict_folios" + at());
    return true;
  }
  // The list id must be a known scalar.
  if (cur.state.regs[ins.dst].kind != RKind::kScalar) {
    Err(Check::kIrRegSafety, pc,
        "loop list id r" + std::to_string(ins.dst) + " is " +
            KindName(cur.state.regs[ins.dst].kind) + ", expected a scalar" +
            at());
    return true;
  }
  // The termination proof: the trip bound is an immediate, or a register
  // whose abstract range is finite — range [0, 2^64) means "nothing was
  // proven", and the loop is rejected as unbounded.
  uint64_t bound_max = 0;
  if (ins.bound_is_reg) {
    const RegAbs& b = cur.state.regs[ins.src];
    if (b.kind != RKind::kScalar) {
      Err(Check::kIrLoopBound, pc,
          "loop bound r" + std::to_string(ins.src) + " is " +
              KindName(b.kind) + ", expected a scalar" + at());
      return true;
    }
    if (b.max == kU64Max) {
      Err(Check::kIrLoopBound, pc,
          "loop bound register has an unbounded range — derive it from a "
          "bounded source (e.g. ctx.nr_candidates_requested) or mask it "
          "first" +
              at());
      return true;
    }
    if (b.max == 0) {
      Err(Check::kIrLoopBound, pc, "loop bound is provably zero" + at());
      return true;
    }
    bound_max = b.max;
  } else {
    if (ins.imm <= 0) {
      Err(Check::kIrLoopBound, pc,
          "loop bound immediate must be positive" + at());
      return true;
    }
    bound_max = static_cast<uint64_t>(ins.imm);
  }

  const size_t body_begin = pc + 1;
  const size_t body_end = static_cast<size_t>(ins.target);  // the kLoopEnd
  visited_[body_end] = true;

  // Fixpoint over the loop body: iterate the body's transfer until the
  // entry state stops changing, widening oscillating scalars to full range
  // after the first round so convergence is guaranteed (classic
  // widening-after-one-bounded-round abstract interpretation).
  Flow body_entry;
  body_entry.state = cur.state;
  body_entry.state.regs[R1] = Folio();
  std::optional<RangeResult> body;
  const size_t errors_before_body = errors_.size();
  for (int round = 0; round < 4; ++round) {
    body = AnalyzeRange(body_begin, body_end, body_entry, /*in_body=*/true);
    if (!body) {
      return false;
    }
    if (!body->fall_reachable) {
      // An erroring instruction cuts its outgoing flow, so a body error
      // also strands the loop_end; only report the unreachable loop_end
      // when it is the PRIMARY problem, not that cascade.
      if (errors_.size() == errors_before_body) {
        Err(Check::kIrCfg, pc,
            "loop body never reaches its loop_end" + at());
      }
      return true;
    }
    AbsState next = JoinState(body_entry.state, body->fall.state);
    next.regs[R1] = Folio();
    if (next == body_entry.state) {
      break;
    }
    if (round >= 1) {
      for (size_t r = 0; r < ir::kNumRegs; ++r) {
        if (!(next.regs[r] == body_entry.state.regs[r]) &&
            next.regs[r].kind == RKind::kScalar) {
          next.regs[r] = FullScalar();
        }
      }
    }
    body_entry.state = next;
    body_entry.cost = 0;
    body_entry.iters = 0;
  }
  // The body's obligation: leave a scalar verdict (simple form) or score
  // (score form) in r0 at loop_end on every path.
  const RegAbs body_r0 = body->fall.state.regs[R0];
  if (body_r0.kind != RKind::kScalar) {
    Err(Check::kIrRegSafety, pc,
        std::string("loop body must leave a scalar ") +
            (score ? "score" : "verdict") + " in r0 at loop_end, got " +
            KindName(body_r0.kind) + at());
    return true;
  }

  kfuncs_.Add(score ? Kfunc::kListIterateScore : Kfunc::kListIterate);
  side_effect_ = true;

  // Derived accounting, matching the runtime to the call: list_iterate
  // charges one helper call for itself plus one per examined folio, and
  // each iteration additionally pays for the kfuncs its body calls.
  const uint64_t per_iter = SatAdd(1, body->fall.cost);
  cur.cost = SatAdd(cur.cost, SatAdd(1, SatMul(bound_max, per_iter)));
  cur.iters = SatAdd(cur.iters, bound_max);

  // Candidate capability: the score form always proposes; the simple form
  // proposes iff some body path can return a verdict >= 1 (evict).
  if (score || body_r0.max >= 1) {
    candidates_possible_ = SatAdd(candidates_possible_, bound_max);
  }

  // Post-loop state: the loop may run zero iterations (empty list), so the
  // registers join the pre-loop state with the body fixpoint; the runtime
  // contract is that the loop clobbers r0 (status) and r1-r5, while r6/r7
  // survive.
  Flow after = std::move(cur);
  after.state = JoinState(after.state, body_entry.state);
  after.state.regs[R0] = Scalar(0, 255);
  for (uint8_t r = R1; r <= R5; ++r) {
    after.state.regs[r] = RegAbs{};
  }
  merge_to(body_end + 1, after);
  return true;
}

void HookAnalyzer::CheckExits() {
  if (!HookReturnsValue(hook_)) {
    return;
  }
  for (const ExitInfo& e : exits_) {
    if (e.r0.kind != RKind::kScalar) {
      Err(Check::kIrRegSafety, e.pc,
          std::string(HookName(hook_)) + " returns a value, but r0 is " +
              KindName(e.r0.kind) + " at {" + ir::Disasm(prog_[e.pc], e.pc) +
              "}");
    }
  }
}

void HookAnalyzer::CheckDeadHook() {
  // Only the optional hooks: a required hook is dispatched regardless, but
  // an optional one that provably does nothing only adds dispatch cost.
  if (hook_ != Hook::kAdmitFolio && hook_ != Hook::kFolioRefaulted &&
      hook_ != Hook::kReadahead && hook_ != Hook::kAdmitOrder &&
      hook_ != Hook::kShouldWriteback && hook_ != Hook::kWritebackOrder) {
    return;
  }
  if (HasErrors() || side_effect_ || exits_.empty()) {
    return;
  }
  if (hook_ == Hook::kFolioRefaulted) {
    Err(Check::kIrDeadHook, 0,
        "folio_refaulted has no observable effect (no kfunc calls, no map "
        "writes) — drop the hook");
    return;
  }
  if (hook_ == Hook::kAdmitFolio) {
    bool always_admit = true;
    for (const ExitInfo& e : exits_) {
      if (e.r0.kind != RKind::kScalar || e.r0.min == 0) {
        always_admit = false;
        break;
      }
    }
    if (always_admit) {
      Err(Check::kIrDeadHook, 0,
          "admit_folio provably always admits (every exit returns r0 >= 1) "
          "and has no side effects — drop the hook");
    }
    return;
  }
  if (hook_ == Hook::kAdmitOrder) {
    // admit_order: every exit provably returns 0 ("plain order-0 folios"),
    // which is exactly what the page cache does with the hook absent.
    bool always_zero = true;
    for (const ExitInfo& e : exits_) {
      if (e.r0.kind != RKind::kScalar || e.r0.min != 0 || e.r0.max != 0) {
        always_zero = false;
        break;
      }
    }
    if (always_zero) {
      Err(Check::kIrDeadHook, 0,
          "admit_order provably always returns order 0 and has no side "
          "effects — drop the hook");
    }
    return;
  }
  if (hook_ == Hook::kShouldWriteback) {
    // should_writeback: every exit provably returns nonzero ("flush it"),
    // which is exactly what the flusher does with the hook absent.
    bool always_flush = true;
    for (const ExitInfo& e : exits_) {
      if (e.r0.kind != RKind::kScalar || e.r0.min == 0) {
        always_flush = false;
        break;
      }
    }
    if (always_flush) {
      Err(Check::kIrDeadHook, 0,
          "should_writeback provably always flushes (every exit returns "
          "r0 >= 1) and has no side effects — drop the hook");
    }
    return;
  }
  if (hook_ == Hook::kWritebackOrder) {
    // writeback_order: every exit provably returns a negative key ("defer
    // to file-offset order"), the hook-absent behaviour.
    bool always_offset_order = true;
    for (const ExitInfo& e : exits_) {
      const bool negative = e.r0.kind == RKind::kScalar &&
                            e.r0.min == e.r0.max &&
                            static_cast<int64_t>(e.r0.min) < 0;
      if (!negative) {
        always_offset_order = false;
        break;
      }
    }
    if (always_offset_order) {
      Err(Check::kIrDeadHook, 0,
          "writeback_order provably always defers to file-offset order and "
          "has no side effects — drop the hook");
    }
    return;
  }
  // readahead: every exit provably returns a negative window ("defer to
  // the kernel heuristic").
  bool always_defer = true;
  for (const ExitInfo& e : exits_) {
    const bool negative = e.r0.kind == RKind::kScalar && e.r0.min == e.r0.max &&
                          static_cast<int64_t>(e.r0.min) < 0;
    if (!negative) {
      always_defer = false;
      break;
    }
  }
  if (always_defer) {
    Err(Check::kIrDeadHook, 0,
        std::string(HookName(hook_)) +
            " provably always defers to the kernel window and has no side "
            "effects — drop the hook");
  }
}

void HookAnalyzer::EmitFindings() {
  const std::string hook_name = HookName(hook_);
  if (HasErrors()) {
    for (const auto& [pc, check, msg] : errors_) {
      log_->Fail(static_cast<Check>(check), hook_name, msg);
    }
    return;
  }
  log_->Pass(Check::kIrCfg, hook_name,
             U64(prog_.size()) + " insn(s), forward CFG, all paths exit");
  log_->Pass(Check::kIrUnreachable, hook_name, "every instruction reachable");
  log_->Pass(Check::kIrRegSafety, hook_name,
             "registers typed and initialized on every path");
  if (nr_loops_seen_ > 0) {
    log_->Pass(Check::kIrLoopBound, hook_name,
               U64(nr_loops_seen_) + " loop(s), derived trip bound " +
                   U64(max_loop_iters_) + " — termination proven");
  }
  if (!kfuncs_.Empty()) {
    log_->Pass(Check::kIrKfuncContext, hook_name,
               "kfunc call sites typed and context-legal: " +
                   kfuncs_.ToString());
  }
  if (hook_ == Hook::kAdmitFolio || hook_ == Hook::kFolioRefaulted ||
      hook_ == Hook::kReadahead || hook_ == Hook::kAdmitOrder ||
      hook_ == Hook::kShouldWriteback || hook_ == Hook::kWritebackOrder) {
    log_->Pass(Check::kIrDeadHook, hook_name, "hook has a provable effect");
  }
}

bool HookAnalyzer::Run() {
  if (prog_.empty()) {
    return true;
  }
  if (StructureCheck()) {
    Interpret();
    CheckExits();
    CheckDeadHook();
  }
  EmitFindings();
  return !HasErrors();
}

}  // namespace

Expected<IrAnalysis> AnalyzeIrPolicy(const ir::IrPolicy& policy,
                                     VerifierLog* log,
                                     const IrAnalysisOptions& opts) {
  CHECK(log != nullptr);
  bool ok = true;

  // Map declarations first: the per-hook walks bound accesses against them.
  bool maps_ok = true;
  for (size_t i = 0; i < policy.maps.size(); ++i) {
    const ir::MapDecl& m = policy.maps[i];
    if (m.name.empty()) {
      log->Fail(Check::kIrMapBounds, "", "map #" + U64(i) + " has no name");
      maps_ok = false;
    }
    if (m.max_entries == 0) {
      log->Fail(Check::kIrMapBounds, "",
                "map '" + m.name + "' declares zero capacity");
      maps_ok = false;
    }
    if (m.value_size == 0 || m.value_size % 8 != 0) {
      log->Fail(Check::kIrMapBounds, "",
                "map '" + m.name + "' value_size " + U64(m.value_size) +
                    " is not a positive multiple of 8");
      maps_ok = false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (policy.maps[j].name == m.name) {
        log->Fail(Check::kIrMapBounds, "",
                  "duplicate map name '" + m.name + "' (maps #" + U64(j) +
                      " and #" + U64(i) + ")");
        maps_ok = false;
      }
    }
  }
  if (maps_ok && !policy.maps.empty()) {
    log->Pass(Check::kIrMapBounds, "",
              U64(policy.maps.size()) + " map declaration(s) well-formed");
  }
  ok = ok && maps_ok;

  ProgramSpec spec;
  std::array<HookFacts, kNumHooks> facts = {};
  uint64_t lists = 0;
  uint64_t candidates = 0;
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    if (!policy.HookPresent(hook)) {
      continue;
    }
    HookAnalyzer analyzer(policy, hook, log, opts.candidate_cap);
    if (!analyzer.Run()) {
      ok = false;
      continue;
    }
    spec.DeclareHook(hook, analyzer.max_helper_calls(), analyzer.kfuncs(),
                     analyzer.max_loop_iters());
    facts[i].const_lookup_key = analyzer.const_lookup_keys();
    if (hook == Hook::kPolicyInit) {
      lists = analyzer.lists_created();
    }
    if (hook == Hook::kEvictFolios) {
      candidates = std::min(analyzer.candidates_possible(), opts.candidate_cap);
    }
    // The derived worst case must fit the policy's own budget: this is the
    // proof that the program cannot be killed mid-flight by the breaker.
    if (analyzer.max_helper_calls() > policy.helper_budget) {
      log->Fail(Check::kIrDerivedBudget, HookName(hook),
                "derived worst case of " + U64(analyzer.max_helper_calls()) +
                    " helper call(s) exceeds helper_budget " +
                    U64(policy.helper_budget));
      ok = false;
    } else {
      log->Pass(Check::kIrDerivedBudget, HookName(hook),
                "derived worst case: " + U64(analyzer.max_helper_calls()) +
                    " helper call(s), " + U64(analyzer.max_loop_iters()) +
                    " loop iter(s) — fits helper_budget " +
                    U64(policy.helper_budget));
    }
  }

  for (const ir::MapDecl& m : policy.maps) {
    // IR maps are budgeted like hash maps: capacity == declared worst case
    // (the interpreter's map rejects inserts beyond max_entries, so the
    // bound is enforced, not assumed).
    spec.DeclareMap(m.name, m.max_entries, m.max_entries, MapKind::kHash);
  }
  spec.DeclareLists(lists);
  spec.DeclareCandidates(candidates);

  if (!ok) {
    return InvalidArgument("ir verification failed: " + log->FailureSummary());
  }
  IrAnalysis analysis;
  analysis.spec = std::move(spec);
  analysis.facts = std::move(facts);
  return analysis;
}

}  // namespace cache_ext::bpf::verifier
