// Rejection-path tests for the IR abstract interpreter
// (src/bpf/verifier/ir_verifier.cc): one deliberately malformed program per
// analysis pass, each asserting the specific Check the verifier reports.
// The positive paths are covered by ir_test.cc (the three IR built-ins
// verify end-to-end); this file proves the analyses actually bite.

#include <gtest/gtest.h>

#include <string>

#include "src/bpf/ir/builder.h"
#include "src/bpf/ir/ir.h"
#include "src/bpf/verifier/ir_verifier.h"
#include "src/bpf/verifier/log.h"

namespace cache_ext {
namespace {

using bpf::ir::AluOp;
using bpf::ir::Cond;
using bpf::ir::CtxField;
using bpf::ir::IrMapKind;
using bpf::ir::IrPolicy;
using bpf::ir::MapDecl;
using bpf::ir::Program;
using bpf::ir::ProgramBuilder;
using bpf::ir::R0;
using bpf::ir::R1;
using bpf::ir::R2;
using bpf::ir::R3;
using bpf::ir::R6;
using bpf::verifier::AnalyzeIrPolicy;
using bpf::verifier::Check;
using bpf::verifier::Hook;
using bpf::verifier::Kfunc;
using bpf::verifier::VerifierLog;

MapDecl SmallArrayMap(const char* name = "m") {
  MapDecl decl;
  decl.name = name;
  decl.kind = IrMapKind::kArray;
  decl.max_entries = 1;
  decl.value_size = 8;
  return decl;
}

IrPolicy PolicyWith(Hook hook, Program prog) {
  IrPolicy p;
  p.name = "reject_me";
  p.maps.push_back(SmallArrayMap());
  p.hook(hook) = std::move(prog);
  return p;
}

// Expects AnalyzeIrPolicy to fail, with at least one failed finding of
// `check` whose message contains `fragment`.
void ExpectRejected(const IrPolicy& policy, Check check,
                    const std::string& fragment) {
  VerifierLog log;
  auto analysis = AnalyzeIrPolicy(policy, &log);
  EXPECT_FALSE(analysis.ok()) << log.ToString();
  bool found = false;
  for (const auto& finding : log.findings()) {
    if (!finding.passed && finding.check == check &&
        finding.message.find(fragment) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "wanted failed " << bpf::verifier::CheckName(check)
                     << " containing \"" << fragment << "\" in:\n"
                     << log.ToString();
}

// --- Structure / CFG ----------------------------------------------------

TEST(IrStructureTest, BackwardJumpIsRejected) {
  ProgramBuilder b;
  const auto top = b.NewLabel();
  b.Bind(top);
  b.MovImm(R0, 0);
  b.Jmp(top);  // while(true)
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrLoopBound, "backward jump");
}

TEST(IrStructureTest, NestedLoopsAreRejected) {
  ProgramBuilder b;
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 4);
  b.BeginIterate(R6, 4);
  b.MovImm(R0, 0);
  b.EndIterate();
  b.MovImm(R0, 0);
  b.EndIterate();
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrLoopBound, "nested");
}

TEST(IrStructureTest, ExitInsideLoopBodyIsRejected) {
  ProgramBuilder b;
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 4);
  b.Exit();  // must return a stop verdict instead
  b.EndIterate();
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()), Check::kIrCfg,
                 "exit inside a loop body");
}

TEST(IrStructureTest, JumpOutOfLoopBodyIsRejected) {
  ProgramBuilder b;
  const auto escape = b.NewLabel();
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 4);
  b.Jmp(escape);  // past the loop_end, not to it
  b.EndIterate();
  b.MovImm(R0, 0);
  b.Bind(escape);
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()), Check::kIrCfg,
                 "jump out of a loop body");
}

TEST(IrStructureTest, FallingOffTheEndIsRejected) {
  ProgramBuilder b;
  b.MovImm(R0, 0);  // no exit
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()), Check::kIrCfg,
                 "fall off the end");
}

TEST(IrStructureTest, UnreachableInstructionIsReported) {
  ProgramBuilder b;
  b.MovImm(R0, 0);
  b.Exit();
  b.MovImm(R0, 1);  // nothing reaches this
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrUnreachable, "unreachable");
}

// --- Register safety ----------------------------------------------------

TEST(IrRegSafetyTest, UninitializedReadIsRejected) {
  ProgramBuilder b;
  b.MovReg(R0, R3);  // r3 never written
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrRegSafety, "uninitialized r3");
}

TEST(IrRegSafetyTest, MissingNullCheckIsRejected) {
  ProgramBuilder b;
  b.MovImm(R1, 0);
  b.MapLookup(0, R1);
  b.Load(R2, R0, 0);  // lookup result used without a null check
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrRegSafety, "may be null");
}

TEST(IrRegSafetyTest, DivisionByPossiblyZeroIsRejected) {
  ProgramBuilder b;
  b.CtxLoad(R1, CtxField::kNrRequested);  // range includes 0
  b.MovImm(R2, 64);
  b.AluReg(AluOp::kDiv, R2, R1);
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrRegSafety, "admits zero");
}

TEST(IrRegSafetyTest, CtxFieldForeignToHookIsRejected) {
  ProgramBuilder b;
  b.CtxLoad(R1, CtxField::kFolio);  // policy_init has no folio
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrRegSafety, "not part of the policy_init context");
}

// --- Loop bounds --------------------------------------------------------

TEST(IrLoopBoundTest, UnprovenRegisterBoundIsRejected) {
  ProgramBuilder b;
  const auto have = b.NewLabel();
  b.MovImm(R1, 0);
  b.MapLookup(0, R1);
  b.JmpImm(Cond::kNe, R0, 0, have);
  b.Exit();
  b.Bind(have);
  b.Load(R6, R0, 0);      // full-range scalar from the map
  b.BeginIterateReg(R6, R6);
  b.MovImm(R0, 1);
  b.EndIterate();
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrLoopBound, "unbounded range");
}

TEST(IrLoopBoundTest, NonPositiveImmediateBoundIsRejected) {
  ProgramBuilder b;
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 0);
  b.MovImm(R0, 0);
  b.EndIterate();
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrLoopBound, "must be positive");
}

TEST(IrLoopBoundTest, MaskedRegisterBoundIsAccepted) {
  // The fix for the unbounded case above: mask the loose scalar first.
  ProgramBuilder b;
  const auto have = b.NewLabel();
  b.MovImm(R1, 0);
  b.MapLookup(0, R1);
  b.JmpImm(Cond::kNe, R0, 0, have);
  b.Exit();
  b.Bind(have);
  b.Load(R6, R0, 0);
  b.Alu(AluOp::kAnd, R6, 63);
  const auto nonzero = b.NewLabel();
  b.JmpImm(Cond::kNe, R6, 0, nonzero);
  b.Exit();
  b.Bind(nonzero);
  b.BeginIterateReg(R6, R6);
  b.MovImm(R0, 1);
  b.EndIterate();
  b.Exit();
  VerifierLog log;
  auto analysis = AnalyzeIrPolicy(PolicyWith(Hook::kEvictFolios, b.Build()),
                                  &log);
  EXPECT_TRUE(analysis.ok()) << log.ToString();
  EXPECT_EQ(analysis->spec.hook(Hook::kEvictFolios).max_loop_iters, 63u);
}

// --- Kfunc context ------------------------------------------------------

TEST(IrKfuncTest, ListAddFromReadaheadIsRejected) {
  ProgramBuilder b;
  b.MovImm(R1, 1);
  b.MovImm(R2, 0);
  b.MovImm(R3, 1);
  b.Call(Kfunc::kListAdd);
  b.MovImm(R0, -1).Exit();
  ExpectRejected(PolicyWith(Hook::kReadahead, b.Build()),
                 Check::kIrKfuncContext, "not allowed in readahead");
}

TEST(IrKfuncTest, LockTakingKfuncInLoopBodyIsRejected) {
  // list_size takes the list lock the surrounding iterate already holds:
  // the deadlock is proven statically instead of hit at runtime.
  ProgramBuilder b;
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 4);
  b.MovImm(R1, 1);
  b.Call(Kfunc::kListSize);
  b.MovImm(R0, 1);
  b.EndIterate();
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrKfuncContext, "self-deadlock");
}

TEST(IrKfuncTest, IterateKfuncIsNotDirectlyCallable) {
  ProgramBuilder b;
  b.Call(Kfunc::kListIterate);
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kEvictFolios, b.Build()),
                 Check::kIrKfuncContext, "not callable directly");
}

TEST(IrKfuncTest, ScalarWhereFolioExpectedIsRejected) {
  ProgramBuilder b;
  b.MovImm(R1, 1);
  b.MovImm(R2, 7);  // list_add arg 2 must be a folio pointer
  b.MovImm(R3, 1);
  b.Call(Kfunc::kListAdd);
  b.Exit();
  ExpectRejected(PolicyWith(Hook::kFolioAdded, b.Build()),
                 Check::kIrKfuncContext, "must be a folio pointer");
}

// --- Map bounds ---------------------------------------------------------

TEST(IrMapBoundsTest, ArrayKeyOutOfRangeIsRejected) {
  ProgramBuilder b;
  b.MovImm(R1, 5);  // array has max_entries = 1
  b.MapLookup(0, R1);
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrMapBounds, "may reach max_entries");
}

TEST(IrMapBoundsTest, ValueOffsetOutOfRangeIsRejected) {
  ProgramBuilder b;
  const auto have = b.NewLabel();
  b.MovImm(R1, 0);
  b.MapLookup(0, R1);
  b.JmpImm(Cond::kNe, R0, 0, have);
  b.MovImm(R0, 0).Exit();
  b.Bind(have);
  b.Load(R2, R0, 8);  // value_size is 8: word 1 is out of bounds
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrMapBounds, "outside map");
}

TEST(IrMapBoundsTest, UndeclaredMapIdIsRejected) {
  ProgramBuilder b;
  b.MovImm(R1, 0);
  b.MapLookup(7, R1);
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrMapBounds, "not declared");
}

TEST(IrMapBoundsTest, DuplicateMapNameIsRejected) {
  IrPolicy p;
  p.name = "dup_maps";
  p.maps.push_back(SmallArrayMap("twice"));
  p.maps.push_back(SmallArrayMap("twice"));
  ProgramBuilder b;
  b.MovImm(R0, 0).Exit();
  p.hook(Hook::kPolicyInit) = b.Build();
  ExpectRejected(p, Check::kIrMapBounds, "duplicate map name");
}

// --- Dead hooks ---------------------------------------------------------

TEST(IrDeadHookTest, AlwaysAdmittingAdmitHookIsRejected) {
  ProgramBuilder b;
  b.MovImm(R0, 1).Exit();
  ExpectRejected(PolicyWith(Hook::kAdmitFolio, b.Build()), Check::kIrDeadHook,
                 "always admits");
}

TEST(IrDeadHookTest, AlwaysDeferringPrefetchHookIsRejected) {
  ProgramBuilder b;
  b.MovImm(R0, -1).Exit();
  ExpectRejected(PolicyWith(Hook::kReadahead, b.Build()), Check::kIrDeadHook,
                 "always defers");
}

TEST(IrDeadHookTest, AlwaysFlushingShouldWritebackIsRejected) {
  ProgramBuilder b;
  b.MovImm(R0, 1).Exit();
  ExpectRejected(PolicyWith(Hook::kShouldWriteback, b.Build()),
                 Check::kIrDeadHook, "always flushes");
}

TEST(IrDeadHookTest, AlwaysDeferringWritebackOrderIsRejected) {
  ProgramBuilder b;
  b.MovImm(R0, -1).Exit();
  ExpectRejected(PolicyWith(Hook::kWritebackOrder, b.Build()),
                 Check::kIrDeadHook, "file-offset order");
}

TEST(IrRegSafetyTest, WritebackCtxFieldForeignToHookIsRejected) {
  ProgramBuilder b;
  b.CtxLoad(R1, CtxField::kNrDirty);  // policy_init has no writeback ctx
  b.MovImm(R0, 0).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrRegSafety, "not part of the policy_init context");
}

TEST(IrDeadHookTest, EffectfulAdmitHookPasses) {
  ProgramBuilder b;
  const auto admit = b.NewLabel();
  b.CtxLoad(R1, CtxField::kIsWrite);
  b.JmpImm(Cond::kEq, R1, 0, admit);
  b.MovImm(R0, 0).Exit();  // reject writes
  b.Bind(admit);
  b.MovImm(R0, 1).Exit();
  VerifierLog log;
  auto analysis =
      AnalyzeIrPolicy(PolicyWith(Hook::kAdmitFolio, b.Build()), &log);
  EXPECT_TRUE(analysis.ok()) << log.ToString();
}

// --- Derived budget -----------------------------------------------------

TEST(IrDerivedBudgetTest, DerivedWorstCaseMustFitPolicyBudget) {
  ProgramBuilder b;
  b.MovImm(R6, 1);
  b.BeginIterate(R6, 512);
  b.MovImm(R0, 1);
  b.EndIterate();
  b.Exit();
  IrPolicy p = PolicyWith(Hook::kEvictFolios, b.Build());
  p.helper_budget = 10;  // derived worst case is 513
  ExpectRejected(p, Check::kIrDerivedBudget, "exceeds helper_budget");
}

// --- Dead-branch refinement ---------------------------------------------

TEST(IrRefinementTest, ProvablyDeadBranchMakesTargetUnreachable) {
  // r1 = 3; if (r1 > 5) goto dead — refinement proves the branch never
  // taken, so the target block is unreachable.
  ProgramBuilder b;
  const auto dead = b.NewLabel();
  b.MovImm(R1, 3);
  b.JmpImm(Cond::kGt, R1, 5, dead);
  b.MovImm(R0, 0).Exit();
  b.Bind(dead);
  b.MovImm(R0, -1).Exit();
  ExpectRejected(PolicyWith(Hook::kPolicyInit, b.Build()),
                 Check::kIrUnreachable, "unreachable");
}

}  // namespace
}  // namespace cache_ext
