// Built-in policies expressed in the policy IR: noop, FIFO, MRU, GET-SCAN,
// the admission filter, and the LRU / LFU / readahead / writeback demos.
//
// Each policy is an ir::Program per hook, lowered through
// ir::CompileToOps — so its ProgramSpec (worst-case helper calls, loop
// bounds, kfunc sets, list/candidate counts) is DERIVED by the
// static-analysis engine instead of hand-declared. Loading one of these
// runs the full three-pass pipeline: IR abstract interpretation (pass 0),
// spec checking over the derived spec (pass 1), instrumented dry run
// cross-checking the derived bounds (pass 2). Like an eBPF program, a
// policy keeps its state in maps: list ids sit in a "state" array map
// written by policy_init, and userspace-supplied pid/tid sets are written
// into hash maps by that same policy_init.
//
// Each builder returns the raw program, so tests and the static-rejection
// example can inspect and perturb the instruction stream;
// bpf::ir::CompileToOps (or MakePolicy, by name) verifies and loads it — a
// policy the verifier rejects never becomes an Ops at all.

#ifndef SRC_POLICIES_IR_POLICIES_H_
#define SRC_POLICIES_IR_POLICIES_H_

#include <cstdint>
#include <vector>

#include "src/bpf/ir/ir.h"

namespace cache_ext::policies {

// No-op (Table 4's baseline, §6.3.2): every required hook present and
// empty, so the framework maintains the registry and charges dispatch
// overhead, but eviction is left to the kernel's default policy through
// the under-proposal fallback.
bpf::ir::IrPolicy IrNoopPolicy();

// FIFO (§5.4): one list, added folios appended at the tail, eviction scans
// 4x the requested batch from the head and rotates proposed folios to the
// tail (129 helper calls, 128 iterations for a full batch). Named
// "ir_fifo"; MakePolicy("fifo") runs the same program as "fifo".
bpf::ir::IrPolicy IrFifoPolicy();

// LRU: FIFO plus move-to-tail on access, so the head is the least recently
// used.
bpf::ir::IrPolicy IrLruPolicy();

struct MruParams {
  // Freshly-inserted folios to skip at the head of the list, §5.4: "we skip
  // a small fixed number of folios ... before proposing eviction
  // candidates" (they may still be in use by the kernel for I/O).
  uint64_t skip_fresh = 24;
};
// MRU (§5.4): added and accessed folios go to the head, eviction walks
// skip_fresh + 4x the batch from the head, leaving the first skip_fresh
// in place. The skip counter lives in the state map's second slot.
bpf::ir::IrPolicy IrMruPolicy(const MruParams& params = {});

struct IrLfuParams {
  // Frequency-map capacity; size to the cgroup's page limit (plus slack).
  uint32_t max_folios = 1 << 20;
  // Batch-scoring window (§4.2.5): examine the first N, evict the lowest-
  // frequency C.
  uint64_t nr_scan = 512;
};
// LFU via the batch-scoring loop form, frequencies in an IR hash map.
bpf::ir::IrPolicy IrLfuPolicy(const IrLfuParams& params = {});

struct GetScanParams {
  // PIDs of the SCAN thread pool, written into the pid map by policy_init
  // (the userspace loader's step before attach, §5.5).
  std::vector<int32_t> scan_pids;
  uint64_t capacity_pages = 1 << 20;
  uint64_t nr_scan = 512;  // LFU batch-scoring window for the GET list
};
// GET-SCAN (§5.5): folios faulted in by a scan pid go to a SCAN list that
// is drained first, in insertion order; the GET list keeps an approximate
// LFU (Fig. 5) and is scored only when the SCAN pass left the batch short.
bpf::ir::IrPolicy IrGetScanPolicy(const GetScanParams& params);

struct AdmissionFilterParams {
  // TIDs whose reads bypass the page cache (compaction threads).
  std::vector<int32_t> filtered_tids;
};
// Admission filter (§5.6): reads by a filtered tid are not admitted (served
// like direct I/O); writes always are, so compaction output stays cached.
// Eviction is left to the kernel's default policy.
bpf::ir::IrPolicy IrAdmissionFilterPolicy(const AdmissionFilterParams& params);

// LRU plus IR programs on the fault-side hooks: `readahead` (double the
// heuristic's window for sequential runs, suppress on backward seeks) and
// `admit_order` (order 4/2/0 by alignment and run length). The verifier
// derives both hooks' specs — ctx-field legality, zero helper cost,
// dead-hook analysis — from the instruction stream.
bpf::ir::IrPolicy IrReadaheadPolicy();

// LRU plus IR programs on the writeback hooks: `should_writeback` (defer
// small cold blocks under mild dirty pressure so they coalesce) and
// `writeback_order` (flush SSTable blocks in key order — page index as the
// key). Both specs are derived; the dead-hook analysis proves the veto and
// the ordering are real effects.
bpf::ir::IrPolicy IrWbLsmPolicy();

}  // namespace cache_ext::policies

#endif  // SRC_POLICIES_IR_POLICIES_H_
