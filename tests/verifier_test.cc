// Tests for the load-time policy verifier (src/bpf/verifier/).
//
// Pass 1 (spec checking): static proofs over the declared ProgramSpec —
// name charset, coverage, budget fit, loop bounds, map capacity, candidate
// bound, kfunc consistency. Pass 2 (symbolic dry run): the instrumented
// execution against poisoned folios — termination, helper-trace divergence,
// list-op violations, fabricated candidates, folio-pointer leaks.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/bpf/verifier/verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/loader.h"
#include "src/cache_ext/ops.h"
#include "src/policies/policy_factory.h"

namespace cache_ext {
namespace {

using bpf::verifier::Check;
using bpf::verifier::Hook;
using bpf::verifier::Kfunc;
using bpf::verifier::VerifierLog;
using bpf::verifier::VerifyPolicy;

bool LogHasFailure(const VerifierLog& log, Check check) {
  for (const auto& finding : log.findings()) {
    if (!finding.passed && finding.check == check) {
      return true;
    }
  }
  return false;
}

bool LogHasPass(const VerifierLog& log, Check check) {
  for (const auto& finding : log.findings()) {
    if (finding.passed && finding.check == check) {
      return true;
    }
  }
  return false;
}

// A legacy policy: all required programs, no ProgramSpec.
Ops UndeclaredOps(std::string name) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  return ops;
}

// A correct FIFO-style policy with a fully declared spec: one list, folios
// added at the tail, eviction from the head. Passes both verifier passes;
// the negative tests below each break it in exactly one way.
Ops DeclaredFifoOps() {
  struct State {
    uint64_t list = 0;
  };
  auto st = std::make_shared<State>();

  Ops ops;
  ops.name = "vt_fifo";
  ops.policy_init = [st](CacheExtApi& api, MemCgroup*) -> int32_t {
    auto list = api.ListCreate();
    if (!list.ok()) {
      return -1;
    }
    st->list = *list;
    return 0;
  };
  ops.folio_added = [st](CacheExtApi& api, Folio* folio) {
    (void)api.ListAdd(st->list, folio, /*tail=*/true);
  };
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  ops.evict_folios = [st](CacheExtApi& api, EvictionCtx* ctx, MemCgroup*) {
    IterOpts opts;
    opts.nr_scan = 2 * ctx->nr_candidates_requested;
    (void)api.ListIterate(st->list, opts, ctx,
                          [](Folio*) { return IterVerdict::kEvict; });
  };
  ops.spec.DeclareLists(1)
      .DeclareCandidates(kMaxEvictionBatch)
      .DeclareHook(Hook::kPolicyInit, 1, {Kfunc::kListCreate})
      .DeclareHook(Hook::kFolioAdded, 1, {Kfunc::kListAdd})
      .DeclareHook(Hook::kFolioAccessed, 0)
      .DeclareHook(Hook::kFolioRemoved, 0)
      .DeclareHook(Hook::kEvictFolios, 1 + 2 * kMaxEvictionBatch,
                   {Kfunc::kListIterate},
                   /*max_loop_iters=*/2 * kMaxEvictionBatch);
  return ops;
}

// --- Pass 1: spec checking ---------------------------------------------------

TEST(VerifierPass1Test, NameCharsetIsKernelObjectName) {
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(UndeclaredOps("has-hyphen"), &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kName));

  VerifierLog ok_log;
  EXPECT_TRUE(VerifyPolicy(UndeclaredOps("has_underscore_2"), &ok_log).ok());
  EXPECT_TRUE(LogHasPass(ok_log, Check::kName));
}

TEST(VerifierPass1Test, CoverageRejectsPresentButUndeclaredHook) {
  Ops ops = DeclaredFifoOps();
  // An admission filter the spec never mentions: unverifiable program.
  ops.admit_folio = [](CacheExtApi&, const AdmissionCtx&) { return true; };
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecCoverage));
}

TEST(VerifierPass1Test, CoverageRejectsDeclaredButMissingHook) {
  Ops ops = DeclaredFifoOps();
  // The spec describes a readahead program that does not exist.
  ops.spec.DeclareHook(Hook::kReadahead, 0);
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecCoverage));
}

TEST(VerifierPass1Test, DeclaredWorstCaseMustFitHelperBudget) {
  Ops ops = DeclaredFifoOps();
  ops.helper_budget = 8;  // evict_folios declares 1 + 2*32 = 65 calls
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecBudgetFit));
}

TEST(VerifierPass1Test, LoopBoundRules) {
  // Iterator kfunc without a loop bound: unbounded loop by declaration.
  Ops ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kEvictFolios).max_loop_iters = 0;
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecLoopBound));

  // Loop bound exceeding the declared helper calls: each examined folio
  // charges one helper call, so the bound cannot outrun the ceiling.
  ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kEvictFolios).max_loop_iters =
      ops.spec.hook(Hook::kEvictFolios).max_helper_calls + 1;
  VerifierLog log2;
  EXPECT_FALSE(VerifyPolicy(ops, &log2).ok());
  EXPECT_TRUE(LogHasFailure(log2, Check::kSpecLoopBound));

  // Loop bound on a hook that declares no iterator kfunc.
  ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kFolioAdded).max_loop_iters = 1;
  VerifierLog log3;
  EXPECT_FALSE(VerifyPolicy(ops, &log3).ok());
  EXPECT_TRUE(LogHasFailure(log3, Check::kSpecLoopBound));
}

TEST(VerifierPass1Test, MapCapacityRules) {
  Ops ops = DeclaredFifoOps();
  ops.spec.DeclareMap("zero_cap", 0, 0);
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecMapCapacity));

  ops = DeclaredFifoOps();
  ops.spec.DeclareMap("overfull", /*max_entries=*/64,
                      /*worst_case_entries=*/65);
  VerifierLog log2;
  EXPECT_FALSE(VerifyPolicy(ops, &log2).ok());
  EXPECT_TRUE(LogHasFailure(log2, Check::kSpecMapCapacity));

  ops = DeclaredFifoOps();
  ops.spec.DeclareMap("fits", /*max_entries=*/64, /*worst_case_entries=*/64);
  VerifierLog log3;
  EXPECT_TRUE(VerifyPolicy(ops, &log3).ok());
  EXPECT_TRUE(LogHasPass(log3, Check::kSpecMapCapacity));
}

TEST(VerifierPass1Test, DuplicateMapNamesAreRejected) {
  Ops ops = DeclaredFifoOps();
  ops.spec.DeclareMap("twice", /*max_entries=*/128, /*worst_case_entries=*/64)
      .DeclareMap("twice", /*max_entries=*/64, /*worst_case_entries=*/32);
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecMapDuplicate));

  Ops ok_ops = DeclaredFifoOps();
  ok_ops.spec.DeclareMap("once", 128, 64).DeclareMap("other", 64, 32);
  VerifierLog ok_log;
  EXPECT_TRUE(VerifyPolicy(ok_ops, &ok_log).ok());
  EXPECT_TRUE(LogHasPass(ok_log, Check::kSpecMapDuplicate));
}

TEST(VerifierPass1Test, CandidateBoundMustFitBuffer) {
  Ops ops = DeclaredFifoOps();
  ops.spec.DeclareCandidates(kMaxEvictionBatch + 1);
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecCandidateBound));
}

TEST(VerifierPass1Test, KfuncConsistencyRules) {
  // Lists declared but policy_init may not call list_create.
  Ops ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kPolicyInit).kfuncs = {};
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kSpecKfuncs));

  // list_create outside policy_init.
  ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kFolioAdded).kfuncs.Add(Kfunc::kListCreate);
  VerifierLog log2;
  EXPECT_FALSE(VerifyPolicy(ops, &log2).ok());
  EXPECT_TRUE(LogHasFailure(log2, Check::kSpecKfuncs));

  // Candidates declared but no iterator reachable from evict_folios —
  // any candidate would be a fabricated pointer.
  ops = DeclaredFifoOps();
  ops.spec.hook(Hook::kEvictFolios).kfuncs = {};
  ops.spec.hook(Hook::kEvictFolios).max_loop_iters = 0;
  VerifierLog log3;
  EXPECT_FALSE(VerifyPolicy(ops, &log3).ok());
  EXPECT_TRUE(LogHasFailure(log3, Check::kSpecKfuncs));
}

TEST(VerifierPass1Test, UndeclaredSpecSkipsDeepChecksButKeepsBasics) {
  // Legacy ad-hoc policies keep loading: basics only, deep passes skipped.
  VerifierLog log;
  EXPECT_TRUE(VerifyPolicy(UndeclaredOps("legacy_policy"), &log).ok());
  EXPECT_TRUE(LogHasPass(log, Check::kSpecCoverage));  // the "skipped" row
  for (const auto& finding : log.findings()) {
    EXPECT_NE(finding.check, Check::kDryRunInit);
    EXPECT_NE(finding.check, Check::kDryRunTermination);
  }
  // Basics still enforced on the legacy path.
  Ops ops = UndeclaredOps("legacy_policy");
  ops.helper_budget = 0;
  VerifierLog log2;
  EXPECT_FALSE(VerifyPolicy(ops, &log2).ok());
  EXPECT_TRUE(LogHasFailure(log2, Check::kHelperBudget));
}

// --- Pass 2: symbolic dry run ------------------------------------------------

TEST(VerifierPass2Test, WellBehavedPolicyPassesBothPasses) {
  VerifierLog log;
  EXPECT_TRUE(VerifyPolicy(DeclaredFifoOps(), &log).ok());
  // The dry run actually ran and proved the runtime properties.
  EXPECT_TRUE(LogHasPass(log, Check::kDryRunInit));
  EXPECT_TRUE(LogHasPass(log, Check::kDryRunTermination));
  EXPECT_TRUE(LogHasPass(log, Check::kDryRunHelperTrace));
  EXPECT_TRUE(LogHasPass(log, Check::kDryRunFolioLeak));
  EXPECT_TRUE(LogHasPass(log, Check::kDryRunCandidates));
}

TEST(VerifierPass2Test, InitFailureIsRejected) {
  Ops ops = DeclaredFifoOps();
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return -22; };
  ops.spec.hook(Hook::kPolicyInit).kfuncs = {Kfunc::kListCreate};
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunInit));
}

TEST(VerifierPass2Test, CreatingMoreListsThanDeclaredIsRejected) {
  Ops ops = DeclaredFifoOps();
  ops.policy_init = [](CacheExtApi& api, MemCgroup*) -> int32_t {
    (void)api.ListCreate();
    (void)api.ListCreate();  // spec declares max_lists = 1
    return 0;
  };
  ops.spec.hook(Hook::kPolicyInit).max_helper_calls = 2;
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunListOps));
}

TEST(VerifierPass2Test, BudgetExhaustionIsATerminationFailure) {
  // A spin loop that burns one helper call per probe: the declaration is
  // coherent (16 <= budget 16), but the dry run hits the budget wall — the
  // runtime equivalent of a program the verifier cannot prove terminates.
  Ops ops = DeclaredFifoOps();
  ops.helper_budget = 16;
  ops.evict_folios = [](CacheExtApi& api, EvictionCtx*, MemCgroup*) {
    for (int spin = 0; spin < 4096; ++spin) {
      (void)api.ListSize(0);
    }
  };
  auto& evict = ops.spec.hook(Hook::kEvictFolios);
  evict.max_helper_calls = 16;
  evict.max_loop_iters = 0;
  evict.kfuncs = {Kfunc::kListSize};
  ops.spec.max_candidates_per_evict = 0;
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunTermination));
}

TEST(VerifierPass2Test, HelperTraceCountDivergenceIsRejected) {
  Ops ops = DeclaredFifoOps();
  ops.folio_accessed = [](CacheExtApi& api, Folio*) {
    (void)api.ListSize(0);
    (void)api.ListSize(0);
    (void)api.ListSize(0);
  };
  // Declared 1 call with the right kfunc — the count diverges, not the set.
  ops.spec.DeclareHook(Hook::kFolioAccessed, 1, {Kfunc::kListSize});
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunHelperTrace));
}

TEST(VerifierPass2Test, UndeclaredKfuncIsRejectedAndNamedInTheLog) {
  Ops ops = DeclaredFifoOps();
  ops.folio_accessed = [](CacheExtApi& api, Folio*) {
    (void)api.ListSize(0);  // spec declares folio_accessed with no kfuncs
  };
  ops.spec.DeclareHook(Hook::kFolioAccessed, 4);
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunHelperTrace));
  EXPECT_NE(log.ToString().find("cache_ext_list_size"), std::string::npos);
}

TEST(VerifierPass2Test, LeakedFolioPointerIsRejected) {
  // folio_removed stashes the raw pointer; a later eviction proposes it —
  // the use-after-remove the kernel verifier's reference tracking forbids.
  Ops ops = DeclaredFifoOps();
  struct Stash {
    Folio* last_removed = nullptr;
  };
  auto stash = std::make_shared<Stash>();
  ops.folio_removed = [stash](CacheExtApi&, Folio* folio) {
    stash->last_removed = folio;
  };
  ops.evict_folios = [stash](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    if (stash->last_removed != nullptr) {
      ctx->Propose(stash->last_removed);
    }
  };
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunFolioLeak));
}

TEST(VerifierPass2Test, FabricatedCandidatePointerIsRejected) {
  Ops ops = DeclaredFifoOps();
  static Folio fabricated;  // never admitted to the page cache
  ops.evict_folios = [](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    ctx->Propose(&fabricated);
  };
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  EXPECT_TRUE(LogHasFailure(log, Check::kDryRunCandidates));
}

// --- End to end --------------------------------------------------------------

TEST(VerifierEndToEndTest, AllBuiltinPoliciesDeclareAndPass) {
  for (const auto name : policies::AvailablePolicies()) {
    policies::PolicyParams params;
    params.capacity_pages = 128;
    auto bundle = policies::MakePolicy(name, params);
    ASSERT_TRUE(bundle.ok()) << name;
    EXPECT_TRUE(bundle->ops.spec.declared) << name;
    VerifierLog log;
    EXPECT_TRUE(VerifyPolicy(bundle->ops, &log).ok())
        << name << "\n"
        << log.ToString();
    // Full verification, not the legacy skip: the dry run must have run.
    EXPECT_TRUE(LogHasPass(log, Check::kDryRunTermination)) << name;
  }
}

TEST(VerifierEndToEndTest, LoaderVerifyExposesTheLog) {
  bpf::verifier::VerifierLog log;
  Ops ops = UndeclaredOps("bad-name");
  EXPECT_FALSE(CacheExtLoader::Verify(ops, &log).ok());
  ASSERT_NE(log.FirstFailure(), nullptr);
  EXPECT_EQ(log.FirstFailure()->check, Check::kName);
  EXPECT_FALSE(log.FailureSummary().empty());
}

TEST(VerifierEndToEndTest, LogRendersPassAndFailLinesWithTrace) {
  Ops ops = DeclaredFifoOps();
  ops.helper_budget = 16;
  ops.evict_folios = [](CacheExtApi& api, EvictionCtx*, MemCgroup*) {
    for (int spin = 0; spin < 64; ++spin) {
      (void)api.ListSize(0);
    }
  };
  auto& evict = ops.spec.hook(Hook::kEvictFolios);
  evict.max_helper_calls = 16;
  evict.max_loop_iters = 0;
  evict.kfuncs = {Kfunc::kListSize};
  ops.spec.max_candidates_per_evict = 0;
  VerifierLog log;
  EXPECT_FALSE(VerifyPolicy(ops, &log).ok());
  const std::string report = log.ToString();
  EXPECT_NE(report.find("PASS"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  EXPECT_NE(report.find("dry_run_termination"), std::string::npos);
  // The counterexample trace names the kfunc that burned the budget.
  EXPECT_NE(report.find("cache_ext_list_size"), std::string::npos);
  EXPECT_NE(report.find("helper calls charged"), std::string::npos);
}

}  // namespace
}  // namespace cache_ext
