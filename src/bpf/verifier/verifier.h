// The load-time policy verifier (§4.4): prove a cache_ext policy safe
// BEFORE it is attached, the way the kernel eBPF verifier proves a program
// safe before it is installed.
//
// Two passes:
//
//  1. Spec checking — static proofs over the policy's declared ProgramSpec:
//     every declared worst-case helper count fits ops.helper_budget, loop
//     bounds are finite and covered by the helper ceiling (list_iterate
//     charges one call per examined folio), declared map occupancy fits map
//     capacity, the candidate declaration fits the eviction batch buffer,
//     and the kfuncs that produce candidates are reachable from
//     evict_folios.
//
//  2. Symbolic dry run — execute every hook once against a scratch cgroup,
//     a scratch registry, and *poisoned* folios (verifier-owned, never part
//     of any real page cache), with an observer recording every kfunc call.
//     Detects: policy_init failure, budget exhaustion (termination),
//     helper-trace divergence from the declaration, undeclared kfunc use,
//     loop-bound overrun, invalid eviction-list operations (bad list ids,
//     unregistered folios), candidate-buffer violations, and folio-pointer
//     leaks — a removed folio's pointer re-proposed across a hook boundary,
//     the userspace analogue of the kernel verifier's reference tracking.
//
// Violations produce a structured VerifierLog; the first failure is also
// surfaced through the returned Status. Policies without a declared spec
// only receive the pass-1 presence/name/budget checks (legacy behaviour),
// so ad-hoc test policies keep loading; every shipped policy declares one.
//
// Physically this lives under src/bpf/ (it is the static half of the bpf
// runtime's safety story) but it verifies cache_ext ops structs, so it
// includes cache_ext headers; the CMake cycle between the two static
// libraries is declared explicitly and is supported by CMake.

#ifndef SRC_BPF_VERIFIER_VERIFIER_H_
#define SRC_BPF_VERIFIER_VERIFIER_H_

#include <cstdint>

#include "src/bpf/verifier/log.h"
#include "src/bpf/verifier/spec.h"
#include "src/cache_ext/ops.h"
#include "src/util/status.h"

namespace cache_ext::bpf::verifier {

// Run both passes over `ops`, appending findings to `log` (required).
// ops.name must be shorter than kCacheExtOpsNameLen, and proposals must fit
// the kMaxEvictionBatch candidate buffer. Returns OK iff every check
// passed; otherwise InvalidArgument carrying the first failure's summary.
Status VerifyPolicy(const cache_ext::Ops& ops, VerifierLog* log);

}  // namespace cache_ext::bpf::verifier

#endif  // SRC_BPF_VERIFIER_VERIFIER_H_
