#include "src/bpf/verifier/verifier.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/bpf/ir/ir.h"
#include "src/bpf/prog.h"
#include "src/bpf/verifier/ir_verifier.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/registry.h"
#include "src/cgroup/memcg.h"
#include "src/mm/address_space.h"
#include "src/mm/folio.h"
#include "src/pagecache/eviction.h"

namespace cache_ext::bpf::verifier {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Pass 1: spec checking — static proofs over the declaration.
// ---------------------------------------------------------------------------

// Kernel BPF object names: [A-Za-z0-9_] only (kernel bpf_obj_name_cpy).
bool ValidNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool CheckName(const cache_ext::Ops& ops, VerifierLog* log,
               const VerifyOptions& opts) {
  if (ops.name.empty()) {
    log->Fail(Check::kName, "", "ops.name must not be empty");
    return false;
  }
  if (ops.name.size() >= opts.name_max_len) {
    log->Fail(Check::kName, "",
              "ops.name exceeds CACHE_EXT_OPS_NAME_LEN (" +
                  U64(ops.name.size()) + " >= " + U64(opts.name_max_len) +
                  ")");
    return false;
  }
  for (const char c : ops.name) {
    if (!ValidNameChar(c)) {
      log->Fail(Check::kName, "",
                std::string("ops.name contains '") + c +
                    "'; kernel BPF object names allow only [A-Za-z0-9_]");
      return false;
    }
  }
  log->Pass(Check::kName, "", "'" + ops.name + "' is a valid object name");
  return true;
}

bool CheckRequiredPrograms(const cache_ext::Ops& ops, VerifierLog* log) {
  bool ok = true;
  if (!ops.policy_init) {
    log->Fail(Check::kRequiredPrograms, HookName(Hook::kPolicyInit),
              "policy_init program is required");
    ok = false;
  }
  if (!ops.evict_folios) {
    log->Fail(Check::kRequiredPrograms, HookName(Hook::kEvictFolios),
              "evict_folios program is required");
    ok = false;
  }
  if (!ops.folio_added || !ops.folio_accessed || !ops.folio_removed) {
    log->Fail(Check::kRequiredPrograms, "",
              "folio event programs (added/accessed/removed) are required");
    ok = false;
  }
  if (ok) {
    log->Pass(Check::kRequiredPrograms, "", "all required programs present");
  }
  return ok;
}

bool HookPresent(const cache_ext::Ops& ops, Hook hook) {
  switch (hook) {
    case Hook::kPolicyInit:
      return static_cast<bool>(ops.policy_init);
    case Hook::kEvictFolios:
      return static_cast<bool>(ops.evict_folios);
    case Hook::kFolioAdded:
      return static_cast<bool>(ops.folio_added);
    case Hook::kFolioAccessed:
      return static_cast<bool>(ops.folio_accessed);
    case Hook::kFolioRemoved:
      return static_cast<bool>(ops.folio_removed);
    case Hook::kAdmitFolio:
      return static_cast<bool>(ops.admit_folio);
    case Hook::kFolioRefaulted:
      return static_cast<bool>(ops.folio_refaulted);
    case Hook::kReadahead:
      return static_cast<bool>(ops.readahead);
    case Hook::kAdmitOrder:
      return static_cast<bool>(ops.admit_order);
    case Hook::kShouldWriteback:
      return static_cast<bool>(ops.should_writeback);
    case Hook::kWritebackOrder:
      return static_cast<bool>(ops.writeback_order);
  }
  return false;
}

bool CheckSpec(const cache_ext::Ops& ops, VerifierLog* log,
               const VerifyOptions& opts) {
  const ProgramSpec& spec = ops.spec;
  bool ok = true;

  // Coverage: the spec and the ops struct must agree on which programs
  // exist — an undeclared program is unverifiable, a declared-but-missing
  // one means the spec describes a different policy.
  bool coverage_ok = true;
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    const bool present = HookPresent(ops, hook);
    const bool declared = spec.hook(hook).declared;
    if (present && !declared) {
      log->Fail(Check::kSpecCoverage, HookName(hook),
                "program present but not declared in the ProgramSpec");
      coverage_ok = false;
    } else if (!present && declared) {
      log->Fail(Check::kSpecCoverage, HookName(hook),
                "declared in the ProgramSpec but no program is present");
      coverage_ok = false;
    }
  }
  if (coverage_ok) {
    log->Pass(Check::kSpecCoverage, "",
              "spec declares exactly the programs present");
  }
  ok = ok && coverage_ok;

  // Budget fit: the declared worst case of every hook must fit the runtime
  // helper budget — the analogue of the verifier's instruction limit.
  bool budget_ok = true;
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    const HookSpec& hs = spec.hook(hook);
    if (!hs.declared) {
      continue;
    }
    if (hs.max_helper_calls > ops.helper_budget) {
      log->Fail(Check::kSpecBudgetFit, HookName(hook),
                "declared worst-case helper calls (" +
                    U64(hs.max_helper_calls) + ") exceed helper_budget (" +
                    U64(ops.helper_budget) + ")");
      budget_ok = false;
    }
  }
  if (budget_ok) {
    log->Pass(Check::kSpecBudgetFit, "",
              "every declared worst case fits helper_budget " +
                  U64(ops.helper_budget));
  }
  ok = ok && budget_ok;

  // Loop bounds: finite, consistent with the declared kfuncs, and covered
  // by the helper ceiling (each examined folio charges one helper call —
  // that is how the runtime enforces the bound the verifier proves).
  bool loop_ok = true;
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    const HookSpec& hs = spec.hook(hook);
    if (!hs.declared) {
      continue;
    }
    if (hs.kfuncs.ContainsIterator() && hs.max_loop_iters == 0) {
      log->Fail(Check::kSpecLoopBound, HookName(hook),
                "declares list_iterate but no loop bound (max_loop_iters)");
      loop_ok = false;
    }
    if (!hs.kfuncs.ContainsIterator() && hs.max_loop_iters > 0) {
      log->Fail(Check::kSpecLoopBound, HookName(hook),
                "declares a loop bound but no iterator kfunc");
      loop_ok = false;
    }
    if (hs.max_loop_iters > hs.max_helper_calls) {
      log->Fail(Check::kSpecLoopBound, HookName(hook),
                "loop bound " + U64(hs.max_loop_iters) +
                    " exceeds declared helper calls " +
                    U64(hs.max_helper_calls) +
                    " (each examined folio charges one helper call)");
      loop_ok = false;
    }
  }
  if (loop_ok) {
    log->Pass(Check::kSpecLoopBound, "",
              "all declared loops are bounded and budget-covered");
  }
  ok = ok && loop_ok;

  // Map capacity: worst-case occupancy must fit the allocation.
  bool maps_ok = true;
  for (const MapSpec& map : spec.maps) {
    if (map.max_entries == 0) {
      log->Fail(Check::kSpecMapCapacity, "",
                "map '" + map.name + "' declares zero capacity");
      maps_ok = false;
    } else if (map.worst_case_entries > map.max_entries) {
      log->Fail(Check::kSpecMapCapacity, "",
                "map '" + map.name + "' worst-case occupancy " +
                    U64(map.worst_case_entries) + " exceeds max_entries " +
                    U64(map.max_entries));
      maps_ok = false;
    }
  }
  if (maps_ok) {
    log->Pass(Check::kSpecMapCapacity, "",
              U64(spec.maps.size()) + " map(s), worst case fits capacity");
  }
  ok = ok && maps_ok;

  // Map names must be unique: downstream consumers (counter aggregation,
  // the dry run's occupancy accounting, log rendering) key maps by name,
  // so two maps sharing one silently alias each other's budgets.
  bool map_names_ok = true;
  std::unordered_set<std::string> seen_map_names;
  for (const MapSpec& map : spec.maps) {
    if (!seen_map_names.insert(map.name).second) {
      log->Fail(Check::kSpecMapDuplicate, "",
                "duplicate map name '" + map.name +
                    "' — every declared map needs a distinct name");
      map_names_ok = false;
    }
  }
  if (map_names_ok && !spec.maps.empty()) {
    log->Pass(Check::kSpecMapDuplicate, "",
              "all " + U64(spec.maps.size()) + " map name(s) unique");
  }
  ok = ok && map_names_ok;

  // Local storage: declared folio-local maps must fit the per-folio
  // slot array. Slot demand above the array would silently push maps
  // onto their hash fallback, so the load is rejected instead — the
  // policy author either drops a map or accepts explicit hash maps.
  uint64_t nr_local_storage = 0;
  for (const MapSpec& map : spec.maps) {
    if (map.kind == MapKind::kFolioLocalStorage) {
      ++nr_local_storage;
    }
  }
  if (nr_local_storage > kFolioLocalStorageSlots) {
    log->Fail(Check::kSpecLocalStorage, "",
              U64(nr_local_storage) +
                  " folio-local storage map(s) declared, but folios carry "
                  "only " +
                  U64(kFolioLocalStorageSlots) + " storage slots");
    ok = false;
  } else if (nr_local_storage > 0) {
    log->Pass(Check::kSpecLocalStorage, "",
              U64(nr_local_storage) + " local-storage map(s) fit the " +
                  U64(kFolioLocalStorageSlots) +
                  "-slot folio array (hash fallback budgeted at the same "
                  "max_entries)");
  }

  // Candidate bound: the declared batch must fit the candidate buffer.
  if (spec.max_candidates_per_evict > opts.candidate_cap) {
    log->Fail(Check::kSpecCandidateBound, HookName(Hook::kEvictFolios),
              "declared candidates per eviction (" +
                  U64(spec.max_candidates_per_evict) +
                  ") exceed the candidate buffer (" +
                  U64(opts.candidate_cap) + ")");
    ok = false;
  } else {
    log->Pass(Check::kSpecCandidateBound, "",
              U64(spec.max_candidates_per_evict) + " candidate(s) fit the " +
                  U64(opts.candidate_cap) + "-entry buffer");
  }

  // Kfunc reachability and consistency.
  bool kfuncs_ok = true;
  const HookSpec& init = spec.hook(Hook::kPolicyInit);
  if (spec.max_lists > 0 && !init.kfuncs.Contains(Kfunc::kListCreate)) {
    log->Fail(Check::kSpecKfuncs, HookName(Hook::kPolicyInit),
              "declares " + U64(spec.max_lists) +
                  " list(s) but policy_init may not call list_create");
    kfuncs_ok = false;
  }
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = static_cast<Hook>(i);
    const HookSpec& hs = spec.hook(hook);
    if (!hs.declared) {
      continue;
    }
    if (hook != Hook::kPolicyInit && hs.kfuncs.Contains(Kfunc::kListCreate)) {
      log->Fail(Check::kSpecKfuncs, HookName(hook),
                "list_create is only permitted in policy_init");
      kfuncs_ok = false;
    }
    if (spec.max_lists == 0 && hs.kfuncs.ContainsAnyListOp()) {
      log->Fail(Check::kSpecKfuncs, HookName(hook),
                "declares list kfuncs but the policy declares no lists");
      kfuncs_ok = false;
    }
  }
  if (spec.max_candidates_per_evict > 0 &&
      !spec.hook(Hook::kEvictFolios).kfuncs.ContainsIterator()) {
    log->Fail(Check::kSpecKfuncs, HookName(Hook::kEvictFolios),
              "declares candidates but no list_iterate kfunc is reachable "
              "from evict_folios — candidates would be fabricated pointers");
    kfuncs_ok = false;
  }
  if (kfuncs_ok) {
    log->Pass(Check::kSpecKfuncs, "",
              "kfunc declarations are consistent and candidate-producing "
              "kfuncs are reachable from evict_folios");
  }
  ok = ok && kfuncs_ok;

  return ok;
}

// ---------------------------------------------------------------------------
// Pass 2: symbolic dry run against poisoned folios.
// ---------------------------------------------------------------------------

// Mapping id for poisoned folios: far outside the page cache's id space so
// ghost keys and stream keys derived from it cannot collide with real ones.
constexpr uint64_t kPoisonMappingId = 0xEBFu << 12;

std::string RenderEvent(const KfuncEvent& e) {
  std::string out = KfuncName(e.kfunc);
  out += "(list=" + U64(e.list_id) + ")";
  if (e.iterations > 0) {
    out += " examined=" + U64(e.iterations);
  }
  out += " -> ";
  out += ErrorCodeName(e.code);
  return out;
}

class RecordingObserver : public ApiObserver {
 public:
  void OnKfunc(const KfuncEvent& event) override {
    events_.push_back(event);
  }

  std::vector<KfuncEvent> Take() {
    std::vector<KfuncEvent> out;
    out.swap(events_);
    return out;
  }

 private:
  std::vector<KfuncEvent> events_;
};

// One hook invocation's observed behaviour.
struct Invocation {
  Hook hook;
  uint64_t helper_calls = 0;
  bool aborted = false;
  std::vector<KfuncEvent> events;

  // Readable counterexample: long repetitive traces (a spin loop burning
  // hundreds of calls) are elided in the middle.
  static constexpr size_t kTraceHead = 6;
  static constexpr size_t kTraceTail = 3;

  std::vector<std::string> Trace() const {
    std::vector<std::string> out;
    if (events.size() <= kTraceHead + kTraceTail + 1) {
      for (const KfuncEvent& e : events) {
        out.push_back(RenderEvent(e));
      }
    } else {
      for (size_t i = 0; i < kTraceHead; ++i) {
        out.push_back(RenderEvent(events[i]));
      }
      out.push_back("... (" + U64(events.size() - kTraceHead - kTraceTail) +
                    " more kfunc calls elided)");
      for (size_t i = events.size() - kTraceTail; i < events.size(); ++i) {
        out.push_back(RenderEvent(events[i]));
      }
    }
    out.push_back("helper calls charged: " + U64(helper_calls));
    return out;
  }

  uint64_t Iterations() const {
    uint64_t total = 0;
    for (const KfuncEvent& e : events) {
      total += e.iterations;
    }
    return total;
  }
};

class DryRunner {
 public:
  DryRunner(const cache_ext::Ops& ops, VerifierLog* log,
            const VerifyOptions& opts)
      : ops_(ops),
        log_(log),
        opts_(opts),
        cg_(/*id=*/0, "cache_ext_verifier", /*limit_pages=*/256),
        mapping_(kPoisonMappingId, /*file=*/0, "cache_ext_verifier_poison"),
        registry_(/*nr_buckets=*/64),
        api_(&registry_) {
    api_.set_observer(&recorder_);
    folios_.resize(std::max<uint64_t>(opts.dry_run_folios, 2));
    for (size_t i = 0; i < folios_.size(); ++i) {
      folios_[i].mapping = &mapping_;
      folios_[i].index = i;
      folios_[i].memcg = &cg_;
    }
  }

  void Run() {
    if (!RunInit()) {
      return;  // no point exercising data hooks on a failed init
    }
    AdmitAndAccess();
    EvictWithResidents();
    RemoveOneAndProbe();
    TeardownAndProbe();
    EmitAggregates();
  }

 private:
  template <typename Fn>
  Invocation RunHook(Hook hook, Fn&& fn) {
    recorder_.Take();  // drop anything stale
    Invocation inv;
    inv.hook = hook;
    {
      RunContext run(ops_.helper_budget);
      fn();
      inv.helper_calls = run.helper_calls();
      inv.aborted = run.aborted();
    }
    inv.events = recorder_.Take();
    Aggregate(inv);
    return inv;
  }

  void Aggregate(const Invocation& inv) {
    const size_t i = static_cast<size_t>(inv.hook);
    exercised_[i] = true;
    HookStats& stats = stats_[i];
    if (inv.helper_calls > stats.max_helper_calls) {
      stats.max_helper_calls = inv.helper_calls;
      stats.worst = inv;
    }
    stats.max_iterations = std::max(stats.max_iterations, inv.Iterations());
    for (const KfuncEvent& e : inv.events) {
      stats.used.Add(e.kfunc);
      if (e.code != ErrorCode::kOk &&
          e.code != ErrorCode::kResourceExhausted && !stats.bad_op) {
        // ResourceExhausted is the budget guard tripping; it is reported by
        // the termination check with the full trace instead.
        stats.bad_op = true;
        stats.bad_op_trace = inv.Trace();
        stats.bad_op_message = RenderEvent(e);
      }
    }
    if (inv.aborted && !aborted_reported_[i]) {
      aborted_reported_[i] = true;
      log_->Fail(Check::kDryRunTermination, HookName(inv.hook),
                 "helper budget (" + U64(ops_.helper_budget) +
                     ") exhausted in a single invocation — the runtime "
                     "equivalent of a verifier termination failure",
                 inv.Trace());
    }
  }

  bool RunInit() {
    int32_t rc = -1;
    const Invocation inv =
        RunHook(Hook::kPolicyInit, [&] { rc = ops_.policy_init(api_, &cg_); });
    if (rc != 0) {
      log_->Fail(Check::kDryRunInit, HookName(Hook::kPolicyInit),
                 "policy_init returned " + std::to_string(rc), inv.Trace());
      return false;
    }
    if (api_.nr_lists() > ops_.spec.max_lists) {
      log_->Fail(Check::kDryRunListOps, HookName(Hook::kPolicyInit),
                 "policy_init created " + U64(api_.nr_lists()) +
                     " list(s), spec declares max_lists=" +
                     U64(ops_.spec.max_lists),
                 inv.Trace());
      return false;
    }
    log_->Pass(Check::kDryRunInit, HookName(Hook::kPolicyInit),
               "returned 0; created " + U64(api_.nr_lists()) + " list(s)");
    return true;
  }

  void AdmitAndAccess() {
    for (Folio& folio : folios_) {
      // Framework order (framework.cc): register, then run the program.
      registry_.Insert(&folio);
      RunHook(Hook::kFolioAdded, [&] { ops_.folio_added(api_, &folio); });
    }
    for (Folio& folio : folios_) {
      RunHook(Hook::kFolioAccessed,
              [&] { ops_.folio_accessed(api_, &folio); });
    }
    if (ops_.admit_folio) {
      cache_ext::AdmissionCtx actx;
      actx.mapping = &mapping_;
      actx.index = folios_.size();
      actx.memcg = &cg_;
      RunHook(Hook::kAdmitFolio, [&] { (void)ops_.admit_folio(api_, actx); });
    }
    if (ops_.readahead) {
      cache_ext::ReadaheadCtx rctx;
      rctx.mapping = &mapping_;
      rctx.index = 1;
      rctx.prev_index = 0;
      rctx.default_window = 4;
      rctx.nr_requested = 8;
      RunHook(Hook::kReadahead, [&] { (void)ops_.readahead(api_, rctx); });
    }
    if (ops_.admit_order) {
      cache_ext::AdmitOrderCtx octx;
      octx.mapping = &mapping_;
      octx.index = folios_.size();
      octx.memcg = &cg_;
      octx.nr_requested = 16;
      RunHook(Hook::kAdmitOrder, [&] { (void)ops_.admit_order(api_, octx); });
    }
    if (ops_.should_writeback) {
      cache_ext::WritebackCtx wctx;
      wctx.mapping = &mapping_;
      wctx.index = 1;
      wctx.nr_pages = 1;
      wctx.nr_dirty = folios_.size();
      wctx.memcg = &cg_;
      wctx.for_sync = false;
      RunHook(Hook::kShouldWriteback,
              [&] { (void)ops_.should_writeback(api_, wctx); });
    }
    if (ops_.writeback_order) {
      cache_ext::WritebackCtx wctx;
      wctx.mapping = &mapping_;
      wctx.index = 1;
      wctx.nr_pages = 1;
      wctx.nr_dirty = folios_.size();
      wctx.memcg = &cg_;
      wctx.for_sync = false;
      RunHook(Hook::kWritebackOrder,
              [&] { (void)ops_.writeback_order(api_, wctx); });
    }
    if (ops_.folio_refaulted) {
      RunHook(Hook::kFolioRefaulted,
              [&] { ops_.folio_refaulted(api_, &folios_[0], /*tier=*/0); });
    }
  }

  // Run evict_folios and check the proposed candidates: count within the
  // buffer and the declaration, every pointer registry-backed, and never a
  // poisoned (removed) pointer.
  void RunEvict(const std::string& stage) {
    cache_ext::EvictionCtx ctx;
    ctx.nr_candidates_requested =
        std::min<uint64_t>(folios_.size(), opts_.candidate_cap);
    const Invocation inv = RunHook(
        Hook::kEvictFolios, [&] { ops_.evict_folios(api_, &ctx, &cg_); });

    const std::string hook = HookName(Hook::kEvictFolios);
    if (ctx.nr_candidates_proposed > opts_.candidate_cap ||
        ctx.nr_candidates_proposed > ctx.nr_candidates_requested) {
      log_->Fail(Check::kDryRunCandidates, hook,
                 stage + ": proposed " + U64(ctx.nr_candidates_proposed) +
                     " candidates for a request of " +
                     U64(ctx.nr_candidates_requested) + " (buffer holds " +
                     U64(opts_.candidate_cap) + ")",
                 inv.Trace());
    }
    if (ops_.spec.declared &&
        ctx.nr_candidates_proposed > ops_.spec.max_candidates_per_evict) {
      log_->Fail(Check::kDryRunCandidates, hook,
                 stage + ": proposed " + U64(ctx.nr_candidates_proposed) +
                     " candidates, spec declares max " +
                     U64(ops_.spec.max_candidates_per_evict),
                 inv.Trace());
    }
    const uint64_t readable = std::min<uint64_t>(
        ctx.nr_candidates_proposed, ctx.candidates.size());
    for (uint64_t i = 0; i < readable; ++i) {
      Folio* candidate = ctx.candidates[i];
      if (removed_.count(candidate) > 0) {
        log_->Fail(Check::kDryRunFolioLeak, hook,
                   stage + ": candidate #" + U64(i) +
                       " is a folio the policy already saw removed — the "
                       "program retained a raw folio pointer across a hook "
                       "boundary (reference-tracking violation)",
                   inv.Trace());
      } else if (!registry_.Contains(candidate)) {
        log_->Fail(Check::kDryRunCandidates, hook,
                   stage + ": candidate #" + U64(i) +
                       " is not a registered folio (fabricated pointer)",
                   inv.Trace());
      }
    }
  }

  void EvictWithResidents() { RunEvict("residents"); }

  // Framework removal order (framework.cc FolioRemoved): program first, then
  // forced unlink + registry drop.
  void RemoveFolio(Folio* folio) {
    RunHook(Hook::kFolioRemoved, [&] { ops_.folio_removed(api_, folio); });
    api_.UnlinkForRemoval(folio);
    registry_.Remove(folio);
    removed_.insert(folio);
  }

  void RemoveOneAndProbe() {
    RemoveFolio(&folios_[0]);
    RunEvict("after one removal");
  }

  void TeardownAndProbe() {
    for (size_t i = 1; i < folios_.size(); ++i) {
      RemoveFolio(&folios_[i]);
    }
    // Every dry-run folio is dead now; any candidate the policy still
    // proposes must come from a leaked pointer.
    RunEvict("after teardown");
  }

  // After the whole scenario, compare each exercised hook's observed trace
  // with its declaration.
  void EmitAggregates() {
    bool trace_ok = true;
    bool loops_ok = true;
    bool list_ops_ok = true;
    bool leak_seen = false;
    for (size_t i = 0; i < kNumHooks; ++i) {
      if (!exercised_[i]) {
        continue;
      }
      const Hook hook = static_cast<Hook>(i);
      const HookSpec& declared = ops_.spec.hook(hook);
      const HookStats& stats = stats_[i];
      if (stats.max_helper_calls > declared.max_helper_calls) {
        log_->Fail(Check::kDryRunHelperTrace, HookName(hook),
                   "observed " + U64(stats.max_helper_calls) +
                       " helper calls in one invocation, spec declares " +
                       U64(declared.max_helper_calls) +
                       " (helper-trace divergence)",
                   stats.worst.Trace());
        trace_ok = false;
      }
      const KfuncSet undeclared = stats.used.Minus(declared.kfuncs);
      if (!undeclared.Empty()) {
        log_->Fail(Check::kDryRunHelperTrace, HookName(hook),
                   "called undeclared kfunc(s): " + undeclared.ToString(),
                   stats.worst.Trace());
        trace_ok = false;
      }
      if (stats.max_iterations > declared.max_loop_iters) {
        log_->Fail(Check::kDryRunLoopBound, HookName(hook),
                   "examined " + U64(stats.max_iterations) +
                       " folios in one invocation, spec declares a loop "
                       "bound of " +
                       U64(declared.max_loop_iters),
                   stats.worst.Trace());
        loops_ok = false;
      }
      if (stats.bad_op) {
        log_->Fail(Check::kDryRunListOps, HookName(hook),
                   "eviction-list op failed: " + stats.bad_op_message,
                   stats.bad_op_trace);
        list_ops_ok = false;
      }
    }
    for (const Finding& finding : log_->findings()) {
      leak_seen = leak_seen || (!finding.passed &&
                                finding.check == Check::kDryRunFolioLeak);
    }
    if (trace_ok) {
      log_->Pass(Check::kDryRunHelperTrace, "",
                 "observed helper traces match the declarations");
    }
    if (loops_ok) {
      log_->Pass(Check::kDryRunLoopBound, "",
                 "observed list walks stay within declared loop bounds");
    }
    if (list_ops_ok) {
      log_->Pass(Check::kDryRunListOps, "",
                 "no invalid eviction-list operation observed");
    }
    if (!leak_seen) {
      log_->Pass(Check::kDryRunFolioLeak, "",
                 "no removed folio pointer crossed a hook boundary");
    }
    bool aborted_any = false;
    for (size_t i = 0; i < kNumHooks; ++i) {
      aborted_any = aborted_any || aborted_reported_[i];
    }
    if (!aborted_any) {
      log_->Pass(Check::kDryRunTermination, "",
                 "every invocation stayed within the helper budget");
    }
    bool candidates_ok = true;
    for (const Finding& finding : log_->findings()) {
      candidates_ok = candidates_ok &&
                      (finding.passed ||
                       finding.check != Check::kDryRunCandidates);
    }
    if (candidates_ok) {
      log_->Pass(Check::kDryRunCandidates, "",
                 "all proposed candidates were registry-backed and within "
                 "bounds");
    }
  }

  struct HookStats {
    uint64_t max_helper_calls = 0;
    uint64_t max_iterations = 0;
    KfuncSet used;
    bool bad_op = false;
    std::string bad_op_message;
    std::vector<std::string> bad_op_trace;
    Invocation worst;
  };

  const cache_ext::Ops& ops_;
  VerifierLog* log_;
  const VerifyOptions& opts_;

  cache_ext::MemCgroup cg_;
  cache_ext::AddressSpace mapping_;
  cache_ext::FolioRegistry registry_;
  cache_ext::CacheExtApi api_;
  RecordingObserver recorder_;
  // deque: Folio is neither copyable nor movable (intrusive list node), and
  // the poisoned folios need stable addresses anyway.
  std::deque<cache_ext::Folio> folios_;
  std::unordered_set<const cache_ext::Folio*> removed_;

  std::array<HookStats, kNumHooks> stats_ = {};
  std::array<bool, kNumHooks> exercised_ = {};
  std::array<bool, kNumHooks> aborted_reported_ = {};
};

}  // namespace

Status VerifyPolicy(const cache_ext::Ops& ops, VerifierLog* log,
                    const VerifyOptions& opts) {
  assert(log != nullptr);
  bool basics_ok = CheckName(ops, log, opts);
  basics_ok = CheckRequiredPrograms(ops, log) && basics_ok;
  if (ops.helper_budget == 0) {
    log->Fail(Check::kHelperBudget, "", "helper budget must be positive");
    basics_ok = false;
  } else {
    log->Pass(Check::kHelperBudget, "",
              "helper budget " + U64(ops.helper_budget));
  }

  // Pass 0 — IR static analysis. A policy carrying its program as IR gets
  // its spec DERIVED from the instructions; the embedded spec (set by
  // CompileToOps) must agree exactly, so nothing between compile and
  // attach can loosen the declaration the later passes verify against.
  if (ops.ir != nullptr) {
    IrAnalysisOptions ir_opts;
    ir_opts.candidate_cap = opts.candidate_cap;
    auto analysis = AnalyzeIrPolicy(*ops.ir, log, ir_opts);
    if (!analysis.ok()) {
      basics_ok = false;
    } else if (!(analysis->spec == ops.spec)) {
      log->Fail(Check::kIrDerivedBudget, "",
                "embedded ProgramSpec does not match the spec derived from "
                "the IR program — the declaration was edited after "
                "CompileToOps");
      basics_ok = false;
    } else {
      log->Pass(Check::kIrDerivedBudget, "",
                "embedded spec matches the independently re-derived spec");
    }
  }

  if (!ops.spec.declared) {
    // Legacy path: nothing declared, nothing further to prove. Shipped
    // policies all declare a spec; ad-hoc test policies keep loading.
    log->Pass(Check::kSpecCoverage, "",
              "no ProgramSpec declared; spec checking and dry run skipped");
  } else if (basics_ok) {
    const bool spec_ok = CheckSpec(ops, log, opts);
    // Only dry-run a policy whose declaration is itself coherent: the dry
    // run judges behaviour against the declaration.
    if (spec_ok && opts.dry_run) {
      DryRunner(ops, log, opts).Run();
    }
  }

  if (!log->ok()) {
    return InvalidArgument("policy rejected by verifier: " +
                           log->FailureSummary());
  }
  return OkStatus();
}

}  // namespace cache_ext::bpf::verifier
