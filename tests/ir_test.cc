// End-to-end tests for the policy IR (src/bpf/ir/): the builder, the
// interpreter, CompileToOps, and the IR built-ins loaded through the real
// loader. The headline property: the ProgramSpec these policies attach with
// is DERIVED by the abstract interpreter, and the derived numbers match the
// specs the std::function versions of FIFO, MRU, GET-SCAN and the admission
// filter used to hand-declare, exactly.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bpf/ir/builder.h"
#include "src/bpf/ir/compile.h"
#include "src/bpf/ir/interp.h"
#include "src/bpf/ir/ir.h"
#include "src/bpf/verifier/verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/ir_policies.h"
#include "src/policies/policy_factory.h"

namespace cache_ext {
namespace {

using bpf::ir::Cond;
using bpf::ir::CtxField;
using bpf::ir::HookCtx;
using bpf::ir::IrRuntime;
using bpf::ir::ProgramBuilder;
using bpf::ir::R0;
using bpf::ir::R1;
using bpf::ir::R2;
using bpf::verifier::Check;
using bpf::verifier::Hook;
using bpf::verifier::Kfunc;
using bpf::verifier::KfuncSet;
using bpf::verifier::VerifierLog;
using bpf::verifier::VerifyPolicy;
using policies::MakePolicy;
using policies::PolicyParams;

constexpr uint64_t kLimitPages = 32;

// --- Builder ------------------------------------------------------------

TEST(IrBuilderTest, ForwardLabelsArePatched) {
  ProgramBuilder b;
  const auto skip = b.NewLabel();
  b.MovImm(R0, 7);
  b.JmpImm(Cond::kEq, R0, 7, skip);
  b.MovImm(R0, 1);
  b.Bind(skip);
  b.Exit();
  const auto prog = b.Build();
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog[1].target, 3);  // jump lands on the exit
}

TEST(IrBuilderTest, LoopHeaderTargetsItsLoopEnd) {
  ProgramBuilder b;
  b.MovImm(R2, 1);
  b.BeginIterate(R2, 8);
  b.MovImm(R0, 0);
  b.EndIterate();
  b.Exit();
  const auto prog = b.Build();
  ASSERT_EQ(prog.size(), 5u);
  EXPECT_EQ(prog[1].op, bpf::ir::Op::kLoopIterate);
  EXPECT_EQ(prog[1].target, 3);  // the kLoopEnd
  EXPECT_EQ(prog[3].op, bpf::ir::Op::kLoopEnd);
}

// --- Interpreter --------------------------------------------------------

// Run a standalone admit_folio program through the interpreter: arithmetic,
// branches, and map round-trips, no kfuncs involved.
TEST(IrInterpTest, ArithmeticBranchesAndMaps) {
  bpf::ir::IrPolicy p;
  p.name = "interp_unit";
  bpf::ir::MapDecl m;
  m.name = "scratch";
  m.kind = bpf::ir::IrMapKind::kArray;
  m.max_entries = 4;
  p.maps.push_back(m);

  ProgramBuilder b;
  const auto big = b.NewLabel();
  b.CtxLoad(R1, CtxField::kIndex);     // admission ctx page index
  b.Alu(bpf::ir::AluOp::kMul, R1, 3);
  b.MovImm(R2, 2);
  b.MapUpdate(0, R2, R1);              // scratch[2] = index * 3
  b.MapLookup(0, R2);
  b.JmpImm(Cond::kEq, R0, 0, big);     // never taken (array slot exists)
  b.Load(R0, R0, 0);
  b.JmpImm(Cond::kGt, R0, 100, big);
  b.MovImm(R0, 1).Exit();              // small index: admit
  b.Bind(big);
  b.MovImm(R0, 0).Exit();              // large index: reject
  p.hook(Hook::kAdmitFolio) = b.Build();

  FolioRegistry registry(16);
  CacheExtApi api(&registry);
  IrRuntime runtime(p);

  AdmissionCtx small;
  small.index = 5;  // 15 <= 100
  HookCtx hctx;
  hctx.admit = &small;
  EXPECT_EQ(runtime.Execute(Hook::kAdmitFolio, api, hctx), 1);

  AdmissionCtx large;
  large.index = 50;  // 150 > 100
  hctx.admit = &large;
  EXPECT_EQ(runtime.Execute(Hook::kAdmitFolio, api, hctx), 0);
  EXPECT_GT(runtime.MapLookups(), 0u);
}

// --- Derived specs ------------------------------------------------------

TEST(IrDerivedSpecTest, FifoMatchesHandDeclaredNumbers) {
  auto ops = bpf::ir::CompileToOps(policies::IrFifoPolicy());
  ASSERT_TRUE(ops.ok()) << ops.status().message();
  const auto& spec = ops->spec;
  ASSERT_TRUE(spec.declared);

  // policy_init: exactly the list_create call.
  EXPECT_EQ(spec.hook(Hook::kPolicyInit).max_helper_calls, 1u);
  EXPECT_EQ(spec.hook(Hook::kPolicyInit).kfuncs,
            KfuncSet({Kfunc::kListCreate}));
  // folio_added: one list_add.
  EXPECT_EQ(spec.hook(Hook::kFolioAdded).max_helper_calls, 1u);
  EXPECT_EQ(spec.hook(Hook::kFolioAdded).kfuncs, KfuncSet({Kfunc::kListAdd}));
  // FIFO ignores accesses.
  EXPECT_EQ(spec.hook(Hook::kFolioAccessed).max_helper_calls, 0u);
  // evict_folios: 1 for the iterate itself + 4 * batch(32) per-folio
  // charges = 129/128, what the std::function FIFO declared by hand.
  EXPECT_EQ(spec.hook(Hook::kEvictFolios).max_helper_calls, 129u);
  EXPECT_EQ(spec.hook(Hook::kEvictFolios).max_loop_iters, 128u);
  EXPECT_TRUE(spec.hook(Hook::kEvictFolios).kfuncs.ContainsIterator());

  EXPECT_EQ(spec.max_lists, 1u);
  EXPECT_EQ(spec.max_candidates_per_evict, kMaxEvictionBatch);
  ASSERT_EQ(spec.maps.size(), 1u);
  EXPECT_EQ(spec.maps[0].name, "state");
  EXPECT_EQ(spec.maps[0].max_entries, 1u);
}

// MRU, GET-SCAN and the admission filter derive exactly the specs their
// std::function versions declared by hand: same bounds, kfuncs and lists.
TEST(IrDerivedSpecTest, PortedPoliciesMatchTheirFormerDeclarations) {
  PolicyParams params;
  params.capacity_pages = kLimitPages;
  params.scan_pids = {7};
  params.filter_tids = {8, 9};

  auto mru = MakePolicy("mru", params);
  ASSERT_TRUE(mru.ok()) << mru.status().message();
  const uint64_t scan = 4 + 4 * kMaxEvictionBatch;  // skip_fresh clamps to 4
  EXPECT_EQ(mru->ops.spec.hook(Hook::kEvictFolios).max_helper_calls, 1 + scan);
  EXPECT_EQ(mru->ops.spec.hook(Hook::kEvictFolios).max_loop_iters, scan);
  EXPECT_EQ(mru->ops.spec.hook(Hook::kFolioAccessed).kfuncs,
            KfuncSet({Kfunc::kListMove}));
  EXPECT_EQ(mru->ops.spec.max_lists, 1u);

  auto get_scan = MakePolicy("get_scan", params);
  ASSERT_TRUE(get_scan.ok()) << get_scan.status().message();
  const auto& gs = get_scan->ops.spec;
  EXPECT_EQ(gs.max_lists, 2u);
  EXPECT_EQ(gs.max_candidates_per_evict, kMaxEvictionBatch);
  EXPECT_EQ(gs.hook(Hook::kPolicyInit).max_helper_calls, 2u);
  EXPECT_EQ(gs.hook(Hook::kFolioAdded).max_helper_calls, 2u);
  EXPECT_EQ(gs.hook(Hook::kFolioAdded).kfuncs,
            KfuncSet({Kfunc::kCurrentTask, Kfunc::kListAdd}));
  EXPECT_EQ(gs.hook(Hook::kFolioAccessed).max_helper_calls, 0u);
  EXPECT_EQ(gs.hook(Hook::kFolioRemoved).max_helper_calls, 0u);
  // SCAN pass (1 + 4 * batch) plus the GET score pass (1 + nr_scan).
  EXPECT_EQ(gs.hook(Hook::kEvictFolios).max_helper_calls,
            (1 + 4 * kMaxEvictionBatch) + (1 + 512));
  EXPECT_EQ(gs.hook(Hook::kEvictFolios).max_loop_iters,
            4 * kMaxEvictionBatch + 512);
  EXPECT_EQ(gs.hook(Hook::kEvictFolios).kfuncs,
            KfuncSet({Kfunc::kListIterate, Kfunc::kListIterateScore}));

  auto filter = MakePolicy("admission_filter", params);
  ASSERT_TRUE(filter.ok()) << filter.status().message();
  const auto& af = filter->ops.spec;
  EXPECT_TRUE(af.hook(Hook::kAdmitFolio).declared);
  EXPECT_EQ(af.hook(Hook::kAdmitFolio).max_helper_calls, 0u);
  EXPECT_TRUE(af.hook(Hook::kAdmitFolio).kfuncs.Empty());
  EXPECT_EQ(af.hook(Hook::kEvictFolios).max_helper_calls, 0u);
  EXPECT_EQ(af.max_lists, 0u);
  EXPECT_EQ(af.max_candidates_per_evict, 0u);
}

TEST(IrDerivedSpecTest, LruAddsListMoveOnAccess) {
  auto ops = bpf::ir::CompileToOps(policies::IrLruPolicy());
  ASSERT_TRUE(ops.ok()) << ops.status().message();
  EXPECT_EQ(ops->spec.hook(Hook::kFolioAccessed).max_helper_calls, 1u);
  EXPECT_EQ(ops->spec.hook(Hook::kFolioAccessed).kfuncs,
            KfuncSet({Kfunc::kListMove}));
}

TEST(IrDerivedSpecTest, LfuMatchesHandDeclaredNumbers) {
  policies::IrLfuParams params;  // nr_scan = 512
  auto ops = bpf::ir::CompileToOps(policies::IrLfuPolicy(params));
  ASSERT_TRUE(ops.ok()) << ops.status().message();
  const auto& spec = ops->spec;
  // Score loop: 1 + nr_scan, like the hand-written MakeLfuOps.
  EXPECT_EQ(spec.hook(Hook::kEvictFolios).max_helper_calls, 513u);
  EXPECT_EQ(spec.hook(Hook::kEvictFolios).max_loop_iters, 512u);
  // folio_accessed bumps the frequency with pure map ops: zero helpers.
  EXPECT_EQ(spec.hook(Hook::kFolioAccessed).max_helper_calls, 0u);
  ASSERT_EQ(spec.maps.size(), 2u);
  EXPECT_EQ(spec.maps[1].name, "lfu_freq");
}

// --- Full verification pipeline -----------------------------------------

TEST(IrVerifyTest, EveryIrPolicyPassesAllPasses) {
  for (const char* name :
       {"noop", "fifo", "mru", "get_scan", "admission_filter", "ir_fifo",
        "ir_lru", "ir_lfu", "ir_readahead", "ir_wb_lsm"}) {
    PolicyParams params;
    params.capacity_pages = kLimitPages;
    auto bundle = MakePolicy(name, params);
    ASSERT_TRUE(bundle.ok()) << name;
    VerifierLog log;
    EXPECT_TRUE(VerifyPolicy(bundle->ops, &log).ok())
        << name << "\n" << log.ToString();
    // Pass 0 ran and agreed with the embedded spec.
    bool derived_pass = false;
    for (const auto& finding : log.findings()) {
      if (finding.check == Check::kIrDerivedBudget && finding.passed) {
        derived_pass = true;
      }
    }
    EXPECT_TRUE(derived_pass) << name;
  }
}

TEST(IrVerifyTest, TamperedEmbeddedSpecIsRejected) {
  auto ops = bpf::ir::CompileToOps(policies::IrFifoPolicy());
  ASSERT_TRUE(ops.ok());
  // Claim a smaller worst case than the program can reach: the re-derived
  // spec no longer matches the embedded one.
  ops->spec.hook(Hook::kEvictFolios).max_helper_calls = 2;
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(*ops, &log).ok());
  bool found = false;
  for (const auto& finding : log.findings()) {
    if (!finding.passed && finding.check == Check::kIrDerivedBudget) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << log.ToString();
}

// --- Behaviour through a real page cache --------------------------------

class IrPolicyHarness {
 public:
  IrPolicyHarness() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 0;
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/ir", kLimitPages * kPageSize);
    auto as = pc_->OpenFile("/ir_data");
    CHECK(as.ok());
    as_ = *as;
    CHECK(disk_.Truncate(as_->file(), 4096 * kPageSize).ok());
    lane_ = std::make_unique<Lane>(0, TaskContext{500, 500}, 0x91a);
  }

  void Attach(std::string_view name) {
    PolicyParams params;
    params.capacity_pages = kLimitPages;
    auto bundle = MakePolicy(name, params);
    CHECK(bundle.ok());
    auto attached = loader_->Attach(cg_, std::move(bundle->ops));
    CHECK(attached.ok());
  }

  void Touch(uint64_t page) {
    std::vector<uint8_t> buf(64);
    CHECK(pc_->Read(*lane_, as_, cg_, page * kPageSize,
                    std::span<uint8_t>(buf))
              .ok());
  }

  bool Resident(uint64_t page) const {
    return as_->FindFolio(page) != nullptr;
  }

 private:
  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
  AddressSpace* as_;
  std::unique_ptr<Lane> lane_;
};

TEST(IrPolicyBehaviourTest, FifoEvictsInInsertionOrder) {
  IrPolicyHarness h;
  h.Attach("ir_fifo");
  for (uint64_t i = 0; i < kLimitPages; ++i) {
    h.Touch(i);
  }
  for (int i = 0; i < 10; ++i) {
    h.Touch(0);  // FIFO ignores the heat
  }
  for (uint64_t i = kLimitPages; i < kLimitPages + 8; ++i) {
    h.Touch(i);
  }
  EXPECT_FALSE(h.Resident(0));
  EXPECT_TRUE(h.Resident(kLimitPages + 7));
}

TEST(IrPolicyBehaviourTest, LruKeepsTheHotPage) {
  IrPolicyHarness h;
  h.Attach("ir_lru");
  for (uint64_t i = 0; i < kLimitPages; ++i) {
    h.Touch(i);
  }
  for (int i = 0; i < 10; ++i) {
    h.Touch(0);  // promote to the tail
  }
  for (uint64_t i = kLimitPages; i < kLimitPages + 8; ++i) {
    h.Touch(i);
  }
  EXPECT_TRUE(h.Resident(0));
  EXPECT_FALSE(h.Resident(1));  // coldest page went first
}

TEST(IrPolicyBehaviourTest, LfuKeepsFrequentPagesUnderPressure) {
  IrPolicyHarness h;
  h.Attach("ir_lfu");
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 8; ++i) {
      h.Touch(i);
    }
  }
  for (uint64_t i = 100; i < 100 + 3 * kLimitPages; ++i) {
    h.Touch(i);
  }
  uint64_t hot_resident = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (h.Resident(i)) {
      ++hot_resident;
    }
  }
  EXPECT_EQ(hot_resident, 8u);
}

}  // namespace
}  // namespace cache_ext
