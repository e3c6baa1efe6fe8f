// Differential testing of the two IR execution backends: the JIT
// (src/bpf/jit/) against the reference interpreter (src/bpf/ir/interp.h).
// Both lower to the same semantic kernel (src/bpf/ir/exec.h), so every
// observable of a hook invocation must be bit-identical across them:
//
//   - the returned r0 (the generator pins r0 to a scalar at every exit,
//     so the pointer-at-exit caveat of non-value hooks never applies),
//   - helper-call charges against the ambient RunContext (and whether a
//     deliberately tiny budget aborts the program),
//   - final map contents AND per-map lookup counts (the JIT's inlined /
//     const-folded array steps must keep probe accounting via
//     CountLookup()).
//
// Programs come from a seeded block-structured generator: straight-line
// gadgets (ALU, forward branches, ctx loads, array/hash map round trips,
// kfunc calls) stitched together so the register file is scalar-typed at
// every gadget boundary. Generated programs are run through the real
// verifier first; only programs the verifier accepts count toward the
// target (the verifier's job is to reject, not ours to avoid).
//
// CACHE_EXT_IR_DIFF_N overrides the verified-program target (default
// 1000; tools/check.sh --analyze runs a quick small-N configuration).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/bpf/ir/builder.h"
#include "src/bpf/ir/compile.h"
#include "src/bpf/ir/exec.h"
#include "src/bpf/ir/interp.h"
#include "src/bpf/ir/ir.h"
#include "src/bpf/ir/ir_map.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/prog.h"
#include "src/bpf/verifier/ir_verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"
#include "src/mm/folio.h"
#include "src/pagecache/current_task.h"
#include "src/policies/ir_policies.h"

namespace cache_ext {
namespace {

using bpf::ir::AluOp;
using bpf::ir::Cond;
using bpf::ir::CtxField;
using bpf::ir::HookCtx;
using bpf::ir::IrMap;
using bpf::ir::IrMapKind;
using bpf::ir::IrPolicy;
using bpf::ir::IrRuntime;
using bpf::ir::MapDecl;
using bpf::ir::ProgramBuilder;
using bpf::ir::R0;
using bpf::ir::R1;
using bpf::ir::R2;
using bpf::ir::R3;
using bpf::ir::R4;
using bpf::ir::R5;
using bpf::ir::R6;
using bpf::ir::R7;
using bpf::ir::Reg;
using bpf::verifier::Hook;
using bpf::verifier::Kfunc;
using bpf::verifier::VerifierLog;
namespace jit = bpf::jit;

int DiffTarget() {
  const char* s = std::getenv("CACHE_EXT_IR_DIFF_N");
  if (s != nullptr) {
    const int n = std::atoi(s);
    if (n > 0) {
      return n;
    }
  }
  return 1000;
}

uint64_t DiffSeed() {
  const char* s = std::getenv("CACHE_EXT_IR_DIFF_SEED");
  if (s != nullptr) {
    return std::strtoull(s, nullptr, 10);
  }
  return 0xcafef00d2026ULL;
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  // Uniform in [lo, hi] inclusive.
  uint64_t U(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(gen_);
  }
  bool Chance(int percent) { return U(1, 100) <= static_cast<uint64_t>(percent); }

 private:
  std::mt19937_64 gen_;
};

constexpr Reg kRegs[8] = {R0, R1, R2, R3, R4, R5, R6, R7};
constexpr uint32_t kArrMap = 0;   // array, 4 slots, 8-byte values
constexpr uint32_t kHashMap = 1;  // hash, 8 entries, 16-byte values

// --- generator ----------------------------------------------------------

// Emits one program for `hook`. Invariant maintained between gadgets: every
// register holds a SCALAR (pointers produced by lookups / ctx folio loads
// are consumed inside the gadget and the register re-initialized), so any
// register is a legal ALU/branch/key operand for the next gadget and r0 is
// a scalar at every exit.
class ProgramGen {
 public:
  ProgramGen(Rng& rng, Hook hook) : rng_(rng), hook_(hook) {}

  bpf::ir::Program Generate() {
    // Preamble: initialize the whole register file with random constants.
    for (const Reg r : kRegs) {
      b_.MovImm(r, static_cast<int64_t>(rng_.U(0, 1u << 20)));
    }
    const int nr_gadgets = static_cast<int>(rng_.U(3, 12));
    bool wrote_map = false;
    for (int i = 0; i < nr_gadgets; ++i) {
      wrote_map |= EmitGadget();
    }
    if (!wrote_map) {
      // admit_folio without side effects can trip the dead-hook analysis;
      // one map write makes every generated program side-effecting.
      EmitArrayRoundTrip();
    }
    // Epilogue: pin r0 to a masked scalar taken from a random register.
    b_.MovReg(R0, kRegs[rng_.U(4, 7)]);
    b_.Alu(AluOp::kAnd, R0, 0xffff);
    b_.Exit();
    return b_.Build();
  }

 private:
  bool IsFolioHook() const {
    return hook_ == Hook::kFolioAdded || hook_ == Hook::kFolioAccessed ||
           hook_ == Hook::kFolioRemoved;
  }

  Reg AnyReg() { return kRegs[rng_.U(0, 7)]; }
  Reg AnyHighReg() { return kRegs[rng_.U(4, 7)]; }

  // Returns true when the gadget wrote to a map.
  bool EmitGadget() {
    switch (rng_.U(0, 9)) {
      case 0: EmitAluImm(); return false;
      case 1: EmitAluReg(); return false;
      case 2: b_.MovReg(AnyReg(), AnyReg()); return false;
      case 3: EmitBranchImm(); return false;
      case 4: EmitBranchReg(); return false;
      case 5: EmitCtxLoad(); return false;
      case 6: EmitArrayRoundTrip(); return true;
      case 7: EmitHashRoundTrip(); return true;
      case 8: EmitKfunc(); return false;
      default: EmitAluImm(); return false;
    }
  }

  void EmitAluImm() {
    const AluOp op = static_cast<AluOp>(rng_.U(0, 9));
    int64_t imm;
    if (op == AluOp::kDiv || op == AluOp::kMod) {
      imm = static_cast<int64_t>(rng_.U(1, 1000));  // verifier rejects /0
    } else if (op == AluOp::kLsh || op == AluOp::kRsh) {
      imm = static_cast<int64_t>(rng_.U(0, 63));
    } else {
      imm = static_cast<int64_t>(rng_.U(0, 1u << 24));
    }
    b_.Alu(op, AnyReg(), imm);
  }

  void EmitAluReg() {
    // div/mod/shift by a register with unconstrained range is a verifier
    // error; stick to the closed ops.
    static constexpr AluOp kSafe[] = {AluOp::kAdd, AluOp::kSub, AluOp::kMul,
                                      AluOp::kAnd, AluOp::kOr, AluOp::kXor};
    b_.AluReg(kSafe[rng_.U(0, 5)], AnyReg(), AnyReg());
  }

  void EmitBranchImm() {
    const auto done = b_.NewLabel();
    b_.JmpImm(static_cast<Cond>(rng_.U(0, 5)), AnyReg(),
              static_cast<int64_t>(rng_.U(0, 1u << 16)), done);
    b_.Alu(AluOp::kAdd, AnyReg(), static_cast<int64_t>(rng_.U(1, 99)));
    b_.Bind(done);
  }

  void EmitBranchReg() {
    const auto done = b_.NewLabel();
    b_.JmpReg(static_cast<Cond>(rng_.U(0, 5)), AnyReg(), AnyReg(), done);
    b_.Alu(AluOp::kXor, AnyReg(), static_cast<int64_t>(rng_.U(1, 99)));
    b_.Bind(done);
  }

  void EmitCtxLoad() {
    if (hook_ == Hook::kEvictFolios) {
      b_.CtxLoad(AnyReg(), rng_.Chance(50) ? CtxField::kNrRequested
                                           : CtxField::kNrProposed);
      return;
    }
    if (IsFolioHook()) {
      // folio hooks: the only readable field is the folio pointer; turn it
      // into its identity key and restore the scalar invariant.
      b_.CtxLoad(R1, CtxField::kFolio);
      b_.FolioKey(AnyHighReg(), R1);
      b_.MovImm(R1, static_cast<int64_t>(rng_.U(0, 999)));
      return;
    }
    static constexpr CtxField kAdmitFields[] = {CtxField::kIndex,
                                                CtxField::kPid, CtxField::kTid,
                                                CtxField::kIsWrite};
    b_.CtxLoad(AnyReg(), kAdmitFields[rng_.U(0, 3)]);
  }

  // arr[k1] = reg; then a (constant-key, so JIT-foldable) lookup of arr[k2]
  // with the standard null-check + read-modify-write shape.
  void EmitArrayRoundTrip() {
    const auto skip = b_.NewLabel();
    b_.MovImm(R3, static_cast<int64_t>(rng_.U(0, 3)));
    b_.MapUpdate(kArrMap, R3, AnyHighReg());
    b_.MovImm(R3, static_cast<int64_t>(rng_.U(0, 3)));
    b_.MapLookup(kArrMap, R3);
    b_.JmpImm(Cond::kEq, R0, 0, skip);
    b_.Load(R5, R0, 0);
    b_.Alu(AluOp::kAdd, R5, static_cast<int64_t>(rng_.U(1, 1u << 10)));
    if (rng_.Chance(30)) {
      b_.StoreImm(R0, 0, static_cast<int64_t>(rng_.U(0, 1u << 10)));
    } else {
      b_.Store(R0, 0, R5);
    }
    b_.Bind(skip);
    b_.MovImm(R0, static_cast<int64_t>(rng_.U(0, 9)));
  }

  // hash[reg] round trip keyed by whatever scalar a register holds; the
  // map is small (8 entries) so updates legitimately fail when it fills —
  // both backends must agree on that, too. 16-byte values exercise the
  // off=8 word.
  void EmitHashRoundTrip() {
    const auto skip = b_.NewLabel();
    const Reg key = AnyHighReg();
    b_.MapUpdate(kHashMap, key, AnyHighReg());
    b_.MapLookup(kHashMap, key);
    b_.JmpImm(Cond::kEq, R0, 0, skip);
    const int32_t off = rng_.Chance(50) ? 0 : 8;
    b_.Load(R5, R0, off);
    b_.Alu(AluOp::kXor, R5, static_cast<int64_t>(rng_.U(1, 1u << 12)));
    b_.Store(R0, off, R5);
    b_.Bind(skip);
    b_.MovImm(R0, static_cast<int64_t>(rng_.U(0, 9)));
    if (rng_.Chance(25)) {
      b_.MapDelete(kHashMap, key);
      b_.MovImm(R0, 0);
    }
  }

  void EmitKfunc() {
    if (IsFolioHook() && rng_.Chance(60)) {
      // List mutation against list id 1 (pre-created by the harness) or a
      // bogus id — the failure return is part of the compared surface.
      const int64_t list_id = rng_.Chance(70) ? 1 : 7;
      if (rng_.Chance(30)) {
        b_.CtxLoad(R1, CtxField::kFolio);
        b_.Call(Kfunc::kListDel);
      } else {
        b_.MovImm(R1, list_id);
        b_.CtxLoad(R2, CtxField::kFolio);
        b_.MovImm(R3, rng_.Chance(50) ? 1 : 0);
        b_.Call(rng_.Chance(50) ? Kfunc::kListAdd : Kfunc::kListMove);
      }
    } else if (rng_.Chance(50)) {
      b_.MovImm(R1, static_cast<int64_t>(rng_.U(0, 3)));
      b_.Call(Kfunc::kListSize);
    } else {
      b_.Call(Kfunc::kCurrentTask);
    }
    // Calls clobber r1-r5; restore the all-scalar invariant.
    for (const Reg r : {R1, R2, R3, R4, R5}) {
      b_.MovImm(r, static_cast<int64_t>(rng_.U(0, 999)));
    }
  }

  Rng& rng_;
  Hook hook_;
  ProgramBuilder b_;
};

IrPolicy GenPolicy(Rng& rng, Hook hook, int serial) {
  IrPolicy p;
  p.name = "diff_gen_" + std::to_string(serial);
  MapDecl arr;
  arr.name = "arr";
  arr.kind = IrMapKind::kArray;
  arr.max_entries = 4;
  arr.value_size = 8;
  p.maps.push_back(arr);
  MapDecl hash;
  hash.name = "hash";
  hash.kind = IrMapKind::kHash;
  hash.max_entries = 8;
  hash.value_size = 16;
  p.maps.push_back(hash);
  p.hook(hook) = ProgramGen(rng, hook).Generate();
  return p;
}

// --- execution harness --------------------------------------------------

struct InvokeResult {
  int64_t r0 = 0;
  uint64_t charges = 0;
  bool aborted = false;
};

InvokeResult Invoke(IrRuntime* interp, jit::JitRuntime* jit, Hook hook,
                    CacheExtApi& api, const HookCtx& hctx, uint64_t budget) {
  InvokeResult out;
  bpf::RunContext rc(budget);
  out.r0 = jit != nullptr ? jit->Execute(hook, api, hctx)
                          : interp->Execute(hook, api, hctx);
  out.charges = rc.helper_calls();
  out.aborted = rc.aborted();
  return out;
}

// Full-state comparison: sizes, contents, and per-map probe counts.
void ExpectMapsEqual(const IrRuntime& a, const IrRuntime& b,
                     const std::string& what) {
  ASSERT_EQ(a.nr_maps(), b.nr_maps()) << what;
  for (size_t m = 0; m < a.nr_maps(); ++m) {
    IrMap* ma = a.map(m);
    IrMap* mb = b.map(m);
    EXPECT_EQ(ma->Size(), mb->Size()) << what << " map " << m;
    EXPECT_EQ(ma->lookups(), mb->lookups())
        << what << " map " << m << " probe accounting diverged";
    std::map<uint64_t, std::vector<uint64_t>> ca;
    std::map<uint64_t, std::vector<uint64_t>> cb;
    const size_t words = ma->words();
    ma->ForEach([&](uint64_t key, const uint64_t* value) {
      ca[key] = std::vector<uint64_t>(value, value + words);
    });
    mb->ForEach([&](uint64_t key, const uint64_t* value) {
      cb[key] = std::vector<uint64_t>(value, value + words);
    });
    EXPECT_EQ(ca, cb) << what << " map " << m << " contents diverged";
  }
}

// One backend pair over one verified policy: the oracle interpreter and a
// JIT whose fallback interpreter owns an independent map instance set.
struct BackendPair {
  std::shared_ptr<IrRuntime> oracle;
  std::shared_ptr<IrRuntime> jit_interp;
  std::unique_ptr<jit::JitRuntime> jit;

  explicit BackendPair(const IrPolicy& policy,
                       const bpf::verifier::IrAnalysis& analysis)
      : oracle(std::make_shared<IrRuntime>(policy)),
        jit_interp(std::make_shared<IrRuntime>(policy)),
        jit(std::make_unique<jit::JitRuntime>(jit_interp, analysis)) {}
};

class IrDiffTest : public ::testing::Test {
 protected:
  IrDiffTest()
      : mapping_(1, 1, "diff"),
        registry_a_(64),
        registry_b_(64),
        api_a_(&registry_a_),
        api_b_(&registry_b_) {
    for (int i = 0; i < 4; ++i) {
      folios_.push_back(std::make_unique<Folio>());
      Folio* folio = folios_.back().get();
      folio->mapping = &mapping_;
      folio->index = static_cast<uint64_t>(i) * 17;
      registry_a_.Insert(folio);
      registry_b_.Insert(folio);
    }
    // List id 1 exists on both sides so generated list kfuncs can succeed.
    auto la = api_a_.ListCreate();
    auto lb = api_b_.ListCreate();
    EXPECT_TRUE(la.ok() && lb.ok());
    EXPECT_EQ(*la, *lb);
  }

  // Drives `pair` with identical HookCtx streams through both backends and
  // asserts every observable matches. Returns the number of invocations.
  int DrivePair(BackendPair& pair, Hook hook, Rng& rng,
                const std::string& what) {
    const int kInvocations = 8;
    for (int i = 0; i < kInvocations; ++i) {
      // Mostly roomy budgets; every 4th invocation runs with a tiny one so
      // overrun/abort behaviour is compared too.
      const uint64_t budget = (i % 4 == 3) ? rng.U(0, 2) : (1u << 16);
      HookCtx ha;
      HookCtx hb;
      AdmissionCtx admit;
      EvictionCtx evict;
      if (hook == Hook::kEvictFolios) {
        // No generated program loops, so nothing writes the ctx back.
        evict.nr_candidates_requested = rng.U(1, kMaxEvictionBatch);
        evict.nr_candidates_proposed =
            rng.U(0, evict.nr_candidates_requested);
        ha.evict = &evict;
        hb.evict = &evict;
      } else if (hook == Hook::kAdmitFolio) {
        admit.index = rng.U(0, 1u << 20);
        admit.is_write = rng.Chance(50);
        ha.admit = &admit;
        hb.admit = &admit;
      } else {
        Folio* folio = folios_[rng.U(0, folios_.size() - 1)].get();
        ha.folio = folio;
        hb.folio = folio;
      }
      const InvokeResult ra =
          Invoke(pair.oracle.get(), nullptr, hook, api_a_, ha, budget);
      const InvokeResult rb =
          Invoke(nullptr, pair.jit.get(), hook, api_b_, hb, budget);
      EXPECT_EQ(ra.r0, rb.r0) << what << " invocation " << i;
      EXPECT_EQ(ra.charges, rb.charges) << what << " invocation " << i;
      EXPECT_EQ(ra.aborted, rb.aborted) << what << " invocation " << i;
    }
    ExpectMapsEqual(*pair.oracle, *pair.jit_interp, what);
    return kInvocations;
  }

  AddressSpace mapping_;
  FolioRegistry registry_a_;
  FolioRegistry registry_b_;
  CacheExtApi api_a_;
  CacheExtApi api_b_;
  std::vector<std::unique_ptr<Folio>> folios_;
};

// --- the randomized differential run ------------------------------------

TEST_F(IrDiffTest, RandomizedProgramsAgreeAcrossBackends) {
  const int target = DiffTarget();
  Rng rng(DiffSeed());
  int verified = 0;
  int rejected = 0;
  static constexpr Hook kHooks[] = {Hook::kAdmitFolio, Hook::kFolioAdded,
                                    Hook::kFolioAccessed, Hook::kFolioRemoved,
                                    Hook::kEvictFolios};
  for (int attempt = 0; attempt < target * 4 && verified < target; ++attempt) {
    const Hook hook = kHooks[rng.U(0, 4)];
    const IrPolicy policy = GenPolicy(rng, hook, attempt);
    VerifierLog log;
    auto analysis = bpf::verifier::AnalyzeIrPolicy(policy, &log);
    if (!analysis.ok()) {
      ++rejected;
      continue;
    }
    ++verified;
    BackendPair pair(policy, *analysis);
    DrivePair(pair, hook, rng, policy.name);
    if (::testing::Test::HasFailure()) {
      // One diverging program is enough signal; its name carries the
      // attempt number for replay with the same seed.
      break;
    }
  }
  EXPECT_GE(verified, target)
      << "generator verify rate collapsed (" << rejected << " rejected)";
}

// --- deterministic diffs over the shipped IR policies --------------------

TEST_F(IrDiffTest, BuiltinPoliciesAgreeAcrossBackends) {
  struct Case {
    const char* what;
    IrPolicy policy;
  };
  constexpr TaskContext kScanTask{77, 78};
  constexpr TaskContext kOtherTask{100, 101};
  std::vector<Case> cases;
  cases.push_back({"noop", policies::IrNoopPolicy()});
  cases.push_back({"ir_fifo", policies::IrFifoPolicy()});
  cases.push_back({"ir_lru", policies::IrLruPolicy()});
  cases.push_back({"ir_lfu", policies::IrLfuPolicy(policies::IrLfuParams{})});
  // A one-folio skip, so four folios exercise both verdicts.
  cases.push_back({"mru", policies::IrMruPolicy({.skip_fresh = 1})});
  cases.push_back(
      {"get_scan", policies::IrGetScanPolicy({.scan_pids = {kScanTask.pid},
                                              .capacity_pages = 16})});
  cases.push_back({"admission_filter",
                   policies::IrAdmissionFilterPolicy(
                       {.filtered_tids = {kScanTask.tid}})});

  Rng rng(DiffSeed() ^ 0x5151);
  for (Case& c : cases) {
    VerifierLog log;
    auto analysis = bpf::verifier::AnalyzeIrPolicy(c.policy, &log);
    ASSERT_TRUE(analysis.ok()) << c.what;
    BackendPair pair(c.policy, *analysis);

    // init on both sides, then a folio-event stream.
    const InvokeResult ia = Invoke(pair.oracle.get(), nullptr,
                                   Hook::kPolicyInit, api_a_, {}, 1u << 16);
    const InvokeResult ib = Invoke(nullptr, pair.jit.get(), Hook::kPolicyInit,
                                   api_b_, {}, 1u << 16);
    EXPECT_EQ(ia.r0, ib.r0) << c.what;
    EXPECT_EQ(ia.charges, ib.charges) << c.what;

    static constexpr Hook kEvents[] = {Hook::kFolioAdded, Hook::kFolioAccessed,
                                       Hook::kFolioAccessed,
                                       Hook::kFolioRemoved};
    for (int round = 0; round < 6; ++round) {
      // GET-SCAN routes by the acting pid; the filter keys on the tid.
      ScopedCurrentTask task(rng.Chance(50) ? kScanTask : kOtherTask);
      for (const Hook hook : kEvents) {
        Folio* folio = folios_[rng.U(0, folios_.size() - 1)].get();
        HookCtx hctx;
        hctx.folio = folio;
        const InvokeResult ra =
            Invoke(pair.oracle.get(), nullptr, hook, api_a_, hctx, 1u << 16);
        const InvokeResult rb =
            Invoke(nullptr, pair.jit.get(), hook, api_b_, hctx, 1u << 16);
        // Folio hooks can leave a map-value pointer in r0 (ir_lfu's
        // accessed program exits with the lookup result); pointers differ
        // across runtimes by construction, so only charges are compared.
        EXPECT_EQ(ra.charges, rb.charges) << c.what;
        EXPECT_EQ(ra.aborted, rb.aborted) << c.what;
      }
      // An eviction request: both backends propose the same folios, in the
      // same order, for the same charges.
      EvictionCtx ea;
      EvictionCtx eb;
      ea.nr_candidates_requested = eb.nr_candidates_requested = rng.U(1, 4);
      HookCtx evict_a;
      HookCtx evict_b;
      evict_a.evict = &ea;
      evict_b.evict = &eb;
      const InvokeResult va = Invoke(pair.oracle.get(), nullptr,
                                     Hook::kEvictFolios, api_a_, evict_a,
                                     1u << 16);
      const InvokeResult vb = Invoke(nullptr, pair.jit.get(),
                                     Hook::kEvictFolios, api_b_, evict_b,
                                     1u << 16);
      EXPECT_EQ(va.charges, vb.charges) << c.what;
      EXPECT_EQ(ea.nr_candidates_proposed, eb.nr_candidates_proposed)
          << c.what;
      EXPECT_EQ(ea.candidates, eb.candidates) << c.what;
      if (c.policy.HookPresent(Hook::kAdmitFolio)) {
        AdmissionCtx admit;
        admit.tid = rng.Chance(50) ? kScanTask.tid : kOtherTask.tid;
        admit.is_write = rng.Chance(30);
        HookCtx admit_ctx;
        admit_ctx.admit = &admit;
        const InvokeResult aa = Invoke(pair.oracle.get(), nullptr,
                                       Hook::kAdmitFolio, api_a_, admit_ctx,
                                       1u << 16);
        const InvokeResult ab = Invoke(nullptr, pair.jit.get(),
                                       Hook::kAdmitFolio, api_b_, admit_ctx,
                                       1u << 16);
        EXPECT_EQ(aa.r0, ab.r0) << c.what;
        EXPECT_EQ(aa.charges, ab.charges) << c.what;
      }
    }
    ExpectMapsEqual(*pair.oracle, *pair.jit_interp, c.what);
  }
}

// The JIT must actually engage on the shipped policies: the whole-shape
// specializations (const return, LFU frequency bump, list op) plus the
// generic token-threaded lowering all land somewhere in this set.
TEST_F(IrDiffTest, JitCompilesTheShippedHookShapes) {
  IrPolicy lfu = policies::IrLfuPolicy(policies::IrLfuParams{});
  VerifierLog log;
  auto analysis = bpf::verifier::AnalyzeIrPolicy(lfu, &log);
  ASSERT_TRUE(analysis.ok());
  BackendPair pair(lfu, *analysis);
  EXPECT_TRUE(pair.jit->HookCompiled(Hook::kPolicyInit));
  EXPECT_TRUE(pair.jit->HookCompiled(Hook::kFolioAdded));
  EXPECT_TRUE(pair.jit->HookCompiled(Hook::kFolioAccessed));
  EXPECT_TRUE(pair.jit->HookCompiled(Hook::kFolioRemoved));
  EXPECT_TRUE(pair.jit->HookCompiled(Hook::kEvictFolios));
  EXPECT_GE(pair.jit->compiles(), 5u);
  EXPECT_EQ(pair.jit->interp_fallbacks(), 0u);
}

}  // namespace
}  // namespace cache_ext
