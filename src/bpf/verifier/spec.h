// ProgramSpec: the declarative contract a policy loads with (§4.4).
//
// A kernel eBPF program carries its safety obligations implicitly — the
// verifier derives instruction counts, loop bounds, and map accesses from
// the bytecode. C++ callables are opaque, so cache_ext policies declare the
// same facts explicitly: which eviction-list kfuncs each hook may call, the
// worst-case helper calls and loop iterations per invocation, the maps they
// allocate, and how many candidates an eviction round may propose. The
// load-time verifier (src/bpf/verifier/verifier.h) then proves the declared
// worst case fits the runtime budgets (pass 1) and cross-checks the
// declarations against an instrumented dry run (pass 2).
//
// This header is pure data — no dependency on the cache_ext framework — so
// both the bpf runtime (the kfunc observer) and the loader can include it.

#ifndef SRC_BPF_VERIFIER_SPEC_H_
#define SRC_BPF_VERIFIER_SPEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cache_ext::bpf::verifier {

// The policy-function hooks of struct cache_ext_ops (Fig. 3 + extensions).
enum class Hook : uint8_t {
  kPolicyInit = 0,
  kEvictFolios,
  kFolioAdded,
  kFolioAccessed,
  kFolioRemoved,
  kAdmitFolio,
  kFolioRefaulted,
  kReadahead,
  kAdmitOrder,
  kShouldWriteback,
  kWritebackOrder,
};
inline constexpr size_t kNumHooks = 11;

inline const char* HookName(Hook hook) {
  switch (hook) {
    case Hook::kPolicyInit:
      return "policy_init";
    case Hook::kEvictFolios:
      return "evict_folios";
    case Hook::kFolioAdded:
      return "folio_added";
    case Hook::kFolioAccessed:
      return "folio_accessed";
    case Hook::kFolioRemoved:
      return "folio_removed";
    case Hook::kAdmitFolio:
      return "admit_folio";
    case Hook::kFolioRefaulted:
      return "folio_refaulted";
    case Hook::kReadahead:
      return "readahead";
    case Hook::kAdmitOrder:
      return "admit_order";
    case Hook::kShouldWriteback:
      return "should_writeback";
    case Hook::kWritebackOrder:
      return "writeback_order";
  }
  return "?";
}

// The kfunc surface of Table 2 (CacheExtApi).
enum class Kfunc : uint8_t {
  kListCreate = 0,
  kListAdd,
  kListMove,
  kListDel,
  kListSize,
  kListIdOf,
  kListIterate,
  kListIterateScore,
  kCurrentTask,  // bpf_get_current_pid_tgid() analogue (CurrentPid/Tid)
};
inline constexpr size_t kNumKfuncs = 9;

inline const char* KfuncName(Kfunc kfunc) {
  switch (kfunc) {
    case Kfunc::kListCreate:
      return "cache_ext_list_create";
    case Kfunc::kListAdd:
      return "cache_ext_list_add";
    case Kfunc::kListMove:
      return "cache_ext_list_move";
    case Kfunc::kListDel:
      return "cache_ext_list_del";
    case Kfunc::kListSize:
      return "cache_ext_list_size";
    case Kfunc::kListIdOf:
      return "cache_ext_list_id_of";
    case Kfunc::kListIterate:
      return "cache_ext_list_iterate";
    case Kfunc::kListIterateScore:
      return "cache_ext_list_iterate_score";
    case Kfunc::kCurrentTask:
      return "bpf_get_current_pid_tgid";
  }
  return "?";
}

// A set of kfuncs, as a bitmask (kNumKfuncs <= 32).
class KfuncSet {
 public:
  constexpr KfuncSet() = default;
  constexpr KfuncSet(std::initializer_list<Kfunc> kfuncs) {
    for (const Kfunc k : kfuncs) {
      bits_ |= Bit(k);
    }
  }

  constexpr bool Contains(Kfunc k) const { return (bits_ & Bit(k)) != 0; }
  constexpr bool Empty() const { return bits_ == 0; }
  constexpr void Add(Kfunc k) { bits_ |= Bit(k); }
  // kfuncs in `this` that are not in `other`.
  constexpr KfuncSet Minus(KfuncSet other) const {
    KfuncSet out;
    out.bits_ = bits_ & ~other.bits_;
    return out;
  }
  constexpr bool ContainsAnyListOp() const {
    return Contains(Kfunc::kListAdd) || Contains(Kfunc::kListMove) ||
           Contains(Kfunc::kListDel) || Contains(Kfunc::kListIterate) ||
           Contains(Kfunc::kListIterateScore);
  }
  constexpr bool ContainsIterator() const {
    return Contains(Kfunc::kListIterate) ||
           Contains(Kfunc::kListIterateScore);
  }

  // "cache_ext_list_add, cache_ext_list_move" — for log messages.
  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < kNumKfuncs; ++i) {
      const Kfunc k = static_cast<Kfunc>(i);
      if (Contains(k)) {
        if (!out.empty()) {
          out += ", ";
        }
        out += KfuncName(k);
      }
    }
    return out.empty() ? "(none)" : out;
  }

  constexpr bool operator==(const KfuncSet& other) const = default;

 private:
  static constexpr uint32_t Bit(Kfunc k) {
    return 1u << static_cast<uint8_t>(k);
  }
  uint32_t bits_ = 0;
};

// Per-hook declaration: the worst case a single invocation may reach.
struct HookSpec {
  bool declared = false;
  // Worst-case kfunc/helper calls in one invocation. Note list_iterate
  // charges one call per examined folio, so for looping hooks this must
  // cover max_loop_iters as well.
  uint64_t max_helper_calls = 0;
  // Worst-case folios examined by list_iterate()/list_iterate_score() in
  // one invocation (the verifier's loop bound; 0 = the hook does not loop).
  uint64_t max_loop_iters = 0;
  // kfuncs this hook is allowed to call.
  KfuncSet kfuncs;

  constexpr bool operator==(const HookSpec& other) const = default;
};

// Map flavors the verifier reasons about. Local-storage maps resolve
// per-folio state through a folio-embedded slot (O(1), no hashing), but
// degrade to a hash map when the process runs out of folio slots — so
// the verifier budgets them like hash maps (same max_entries bound on
// both paths) AND proves the declared slot demand fits the per-folio
// slot array.
enum class MapKind : uint8_t {
  kHash = 0,          // bpf::HashMap / bpf::LruHashMap / ArrayMap / RingBuf
  kFolioLocalStorage, // bpf::FolioLocalStorage
};

// A map the policy allocates, with its declared worst-case occupancy.
struct MapSpec {
  std::string name;
  // Capacity the map is constructed with (bpf max_entries).
  uint64_t max_entries = 0;
  // Worst-case live entries the policy needs (e.g. one per resident folio
  // plus one per ghost). Must fit max_entries.
  uint64_t worst_case_entries = 0;
  MapKind kind = MapKind::kHash;

  bool operator==(const MapSpec& other) const = default;
};

struct ProgramSpec {
  // False until the policy author declares anything; undeclared policies
  // only receive the legacy presence/name checks from the loader.
  bool declared = false;

  // Eviction lists created by policy_init (list ids handed out at init).
  uint64_t max_lists = 0;
  // Worst-case candidates one evict_folios invocation proposes. Must be in
  // [0, kMaxEvictionBatch) + 1, i.e. <= the candidate-buffer capacity.
  uint64_t max_candidates_per_evict = 0;

  std::vector<MapSpec> maps;
  std::array<HookSpec, kNumHooks> hooks = {};

  HookSpec& hook(Hook h) { return hooks[static_cast<size_t>(h)]; }
  const HookSpec& hook(Hook h) const {
    return hooks[static_cast<size_t>(h)];
  }

  // Fluent builders so Make*Ops() reads declaratively.
  ProgramSpec& DeclareHook(Hook h, uint64_t max_helper_calls,
                           KfuncSet kfuncs = {},
                           uint64_t max_loop_iters = 0) {
    declared = true;
    HookSpec& spec = hook(h);
    spec.declared = true;
    spec.max_helper_calls = max_helper_calls;
    spec.max_loop_iters = max_loop_iters;
    spec.kfuncs = kfuncs;
    return *this;
  }

  ProgramSpec& DeclareMap(std::string name, uint64_t max_entries,
                          uint64_t worst_case_entries,
                          MapKind kind = MapKind::kHash) {
    declared = true;
    maps.push_back(
        MapSpec{std::move(name), max_entries, worst_case_entries, kind});
    return *this;
  }

  // A bpf::FolioLocalStorage map. Budgeted like a hash map (the
  // fallback path shares max_entries) plus the slot-demand proof
  // (Check::kSpecLocalStorage).
  ProgramSpec& DeclareLocalStorageMap(std::string name, uint64_t max_entries,
                                      uint64_t worst_case_entries) {
    return DeclareMap(std::move(name), max_entries, worst_case_entries,
                      MapKind::kFolioLocalStorage);
  }

  ProgramSpec& DeclareLists(uint64_t nr_lists) {
    declared = true;
    max_lists = nr_lists;
    return *this;
  }

  ProgramSpec& DeclareCandidates(uint64_t nr_candidates) {
    declared = true;
    max_candidates_per_evict = nr_candidates;
    return *this;
  }

  bool operator==(const ProgramSpec& other) const = default;
};

}  // namespace cache_ext::bpf::verifier

#endif  // SRC_BPF_VERIFIER_SPEC_H_
