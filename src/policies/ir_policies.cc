#include "src/policies/ir_policies.h"

#include <algorithm>
#include <vector>

#include "src/bpf/ir/builder.h"

namespace cache_ext::policies {

namespace {

using bpf::ir::Cond;
using bpf::ir::CtxField;
using bpf::ir::IrMapKind;
using bpf::ir::IrPolicy;
using bpf::ir::LoopPlace;
using bpf::ir::MapDecl;
using bpf::ir::ProgramBuilder;
using bpf::ir::R0;
using bpf::ir::R1;
using bpf::ir::R2;
using bpf::ir::R3;
using bpf::ir::R4;
using bpf::ir::R6;
using bpf::ir::R7;
using bpf::verifier::Hook;
using bpf::verifier::Kfunc;

// Map #0 in the list-keeping policies here: an array of list ids that
// policy_init fills (IR programs have no captured state — everything lives
// in maps, like real eBPF). kFreqMap is the LFU-style frequency hash map.
constexpr uint32_t kStateMap = 0;
constexpr uint32_t kFreqMap = 1;

MapDecl StateMapDecl(uint32_t slots = 1) {
  return MapDecl{"state", IrMapKind::kArray, slots};
}

// map[key] = 1 for every key: how policy_init loads the pid/tid sets
// userspace handed over before attach. A failed update (a fault) leaves
// that key out, as a loader ignoring bpf_map_update_elem's result would.
void EmitSetMembers(ProgramBuilder& b, uint32_t map,
                    const std::vector<int32_t>& keys) {
  for (const int32_t key : keys) {
    b.MovImm(R6, static_cast<uint32_t>(key));
    b.MovImm(R7, 1);
    b.MapUpdate(map, R6, R7);
  }
}

// dst = state[r6], the list id policy_init stored; exits the program when
// the lookup finds nothing.
void EmitLoadListAt(ProgramBuilder& b, bpf::ir::Reg dst) {
  const auto have_list = b.NewLabel();
  b.MapLookup(kStateMap, R6);
  b.JmpImm(Cond::kNe, R0, 0, have_list);
  b.Exit();
  b.Bind(have_list);
  b.Load(dst, R0, 0);
}

void EmitLoadList(ProgramBuilder& b, bpf::ir::Reg dst, int64_t slot) {
  b.MovImm(R6, slot);
  EmitLoadListAt(b, dst);
}

// policy_init: create the list, stash its id in state[0], return 0 — or -1
// when either step fails (list_create returning 0 / map full).
bpf::ir::Program InitProgram() {
  ProgramBuilder b;
  const auto created = b.NewLabel();
  const auto stored = b.NewLabel();
  b.Call(Kfunc::kListCreate);
  b.JmpImm(Cond::kNe, R0, 0, created);
  b.MovImm(R0, -1).Exit();
  b.Bind(created);
  b.MovReg(R6, R0);            // the new list id
  b.MovImm(R1, 0);             // state[] key
  b.MapUpdate(kStateMap, R1, R6);
  b.JmpImm(Cond::kEq, R0, 0, stored);
  b.MovImm(R0, -1).Exit();
  b.Bind(stored);
  b.MovImm(R0, 0).Exit();
  return b.Build();
}

// Shared folio-event shape: load the list id, bail if init never stored
// one, then call `kfunc`(list, folio, tail).
bpf::ir::Program ListOpProgram(Kfunc kfunc, bool tail) {
  ProgramBuilder b;
  EmitLoadList(b, R1, 0);
  b.CtxLoad(R2, CtxField::kFolio);
  b.MovImm(R3, tail ? 1 : 0);
  b.Call(kfunc);
  b.Exit();
  return b.Build();
}

bpf::ir::Program EmptyHook() {
  ProgramBuilder b;
  b.Exit();
  return b.Build();
}

bpf::ir::Program ReturnZero() {
  ProgramBuilder b;
  b.MovImm(R0, 0).Exit();
  return b.Build();
}

// evict_folios, simple form: scan up to 4x the requested batch from the
// head, evict everything examined (FIFO/LRU order is maintained by the
// other hooks). The loop bound is a REGISTER: the verifier must prove
// 4 * ctx.nr_candidates_requested is finite from the ctx field's range.
// Proposed folios rotate to the tail: evicted ones are unlinked by the
// framework anyway, and folios the kernel refused don't clog the head.
void EmitEvictAll(ProgramBuilder& b, bpf::ir::Reg list) {
  b.CtxLoad(R7, CtxField::kNrRequested);  // range [0, 32]
  b.Alu(bpf::ir::AluOp::kMul, R7, 4);     // range [0, 128]
  ProgramBuilder::LoopOpts opts;
  opts.on_evict = LoopPlace::kMoveToTail;
  b.BeginIterateReg(list, R7, opts);
  b.MovImm(R0, 1);                         // verdict: evict
  b.EndIterate();
}

bpf::ir::Program EvictAllProgram() {
  ProgramBuilder b;
  EmitLoadList(b, R6, 0);
  EmitEvictAll(b, R6);
  b.Exit();
  return b.Build();
}

// LFU scoring over the list in `list`: score the first nr_scan folios by
// freq[key(folio)], 0 when untracked; the framework proposes the lowest
// and rotates every examined folio to the tail (Fig. 4's lfu_evict).
void EmitFreqScoreLoop(ProgramBuilder& b, bpf::ir::Reg list,
                       uint64_t nr_scan) {
  const auto tracked = b.NewLabel();
  const auto scored = b.NewLabel();
  ProgramBuilder::LoopOpts opts;
  opts.on_skip = LoopPlace::kMoveToTail;
  opts.on_evict = LoopPlace::kMoveToTail;
  b.BeginIterateScore(list, static_cast<int64_t>(nr_scan), opts);
  b.FolioKey(R2, R1);
  b.MapLookup(kFreqMap, R2);
  b.JmpImm(Cond::kNe, R0, 0, tracked);
  b.MovImm(R0, 0);     // untracked folios score 0: evicted first
  b.Jmp(scored);       // early loop_end — r0 is the score
  b.Bind(tracked);
  b.Load(R0, R0, 0);   // score = frequency count
  b.Bind(scored);      // binds to the loop_end pc
  b.EndIterate();
}

// folio_added for the frequency-keeping policies, after `b` has put the
// state slot of the folio's list in r6: link the folio at that list's tail,
// then freq[key(folio)] = 1. A full freq map is tolerated (the folio just
// scores 0 later).
bpf::ir::Program FreqAddedProgram(ProgramBuilder& b) {
  EmitLoadListAt(b, R1);
  b.CtxLoad(R2, CtxField::kFolio);
  b.MovImm(R3, 1);
  b.Call(Kfunc::kListAdd);
  b.CtxLoad(R1, CtxField::kFolio);
  b.FolioKey(R6, R1);
  b.MovImm(R7, 1);
  b.MapUpdate(kFreqMap, R6, R7);
  b.Exit();
  return b.Build();
}

// folio_accessed: ++freq[key(folio)], via a null-checked lookup — no
// kfunc calls at all, so the derived helper cost is zero.
bpf::ir::Program FreqBumpProgram() {
  ProgramBuilder b;
  const auto tracked = b.NewLabel();
  b.CtxLoad(R1, CtxField::kFolio);
  b.FolioKey(R6, R1);
  b.MapLookup(kFreqMap, R6);
  b.JmpImm(Cond::kNe, R0, 0, tracked);
  b.Exit();
  b.Bind(tracked);
  b.Load(R2, R0, 0);
  b.Alu(bpf::ir::AluOp::kAdd, R2, 1);
  b.Store(R0, 0, R2);
  b.Exit();
  return b.Build();
}

// folio_removed: drop the folio's frequency entry.
bpf::ir::Program FreqDeleteProgram() {
  ProgramBuilder b;
  b.CtxLoad(R1, CtxField::kFolio);
  b.FolioKey(R6, R1);
  b.MapDelete(kFreqMap, R6);
  b.Exit();
  return b.Build();
}

IrPolicy IrFifoLruCommon(const char* name, bool move_on_access) {
  IrPolicy p;
  p.name = name;
  p.program_cost_ns = 60;
  p.maps.push_back(StateMapDecl());
  p.hook(Hook::kPolicyInit) = InitProgram();
  p.hook(Hook::kFolioAdded) = ListOpProgram(Kfunc::kListAdd, /*tail=*/true);
  p.hook(Hook::kFolioAccessed) =
      move_on_access ? ListOpProgram(Kfunc::kListMove, /*tail=*/true)
                     : EmptyHook();
  p.hook(Hook::kFolioRemoved) = EmptyHook();
  p.hook(Hook::kEvictFolios) = EvictAllProgram();
  return p;
}

// MRU evict_folios: walk skip + 4x the batch from the head (newest first).
// state[1] counts the folios examined in this call, reset before the walk;
// the first `skip` stay in place — they may still be in use by the kernel
// to service the I/O that inserted them (§5.4) — and the rest are proposed
// and rotated to the tail.
bpf::ir::Program MruEvictProgram(uint64_t skip) {
  ProgramBuilder b;
  const auto counted = b.NewLabel();
  const auto verdict = b.NewLabel();
  EmitLoadList(b, R6, 0);
  b.MovImm(R7, 1);
  b.MovImm(R2, 0);
  b.MapUpdate(kStateMap, R7, R2);          // seen = 0
  b.CtxLoad(R7, CtxField::kNrRequested);   // range [0, 32]
  b.Alu(bpf::ir::AluOp::kMul, R7, 4);
  b.Alu(bpf::ir::AluOp::kAdd, R7, static_cast<int64_t>(skip));
  ProgramBuilder::LoopOpts opts;
  opts.on_evict = LoopPlace::kMoveToTail;  // skipped folios stay put
  b.BeginIterateReg(R6, R7, opts);
  b.MovImm(R2, 1);
  b.MapLookup(kStateMap, R2);
  b.JmpImm(Cond::kNe, R0, 0, counted);
  b.MovImm(R0, 0);
  b.Jmp(verdict);
  b.Bind(counted);
  b.Load(R3, R0, 0);                       // seen, before this folio
  b.MovReg(R4, R3);
  b.Alu(bpf::ir::AluOp::kAdd, R4, 1);
  b.Store(R0, 0, R4);
  b.MovImm(R0, 1);                         // evict...
  b.JmpImm(Cond::kGe, R3, static_cast<int64_t>(skip), verdict);
  b.MovImm(R0, 0);                         // ...unless still in the skip
  b.Bind(verdict);
  b.EndIterate();
  b.Exit();
  return b.Build();
}

// readahead: suppress on a backward seek, defer to the heuristic on a
// large forward gap, and double the heuristic's window (capped at 64) for
// a sequential run. Everything the verifier needs — the ctx fields legal
// in this hook, the absence of list kfuncs, the zero helper cost — is
// derived from these instructions.
bpf::ir::Program ReadaheadProgram() {
  ProgramBuilder b;
  const auto forward = b.NewLabel();
  const auto sequential = b.NewLabel();
  const auto capped = b.NewLabel();
  b.CtxLoad(R6, CtxField::kIndex);
  b.CtxLoad(R7, CtxField::kPrevIndex);
  b.JmpReg(Cond::kGt, R6, R7, forward);
  b.MovImm(R0, 0).Exit();              // backward / repeat: suppress
  b.Bind(forward);
  b.AluReg(bpf::ir::AluOp::kSub, R6, R7);
  b.JmpImm(Cond::kLe, R6, 32, sequential);
  b.MovImm(R0, -1).Exit();             // long seek: defer to the heuristic
  b.Bind(sequential);
  b.CtxLoad(R0, CtxField::kDefaultWindow);
  b.Alu(bpf::ir::AluOp::kMul, R0, 2);
  b.JmpImm(Cond::kLe, R0, 64, capped);
  b.MovImm(R0, 64);
  b.Bind(capped);
  b.Exit();
  return b.Build();
}

// admit_order: order 4 for an aligned index inside a run wanting at least
// a full order-4 span, order 2 when at least an order-2 span is wanted,
// order 0 otherwise. (The page cache independently re-checks alignment and
// memcg pressure; this program encodes the policy's *intent*.)
bpf::ir::Program AdmitOrderProgram() {
  ProgramBuilder b;
  const auto aligned = b.NewLabel();
  const auto big = b.NewLabel();
  const auto small = b.NewLabel();
  b.CtxLoad(R6, CtxField::kIndex);
  b.Alu(bpf::ir::AluOp::kAnd, R6, 3);
  b.JmpImm(Cond::kEq, R6, 0, aligned);
  b.MovImm(R0, 0).Exit();              // misaligned even for order 2
  b.Bind(aligned);
  b.CtxLoad(R7, CtxField::kNrRequested);
  b.JmpImm(Cond::kGe, R7, 16, big);
  b.JmpImm(Cond::kGe, R7, 4, small);
  b.MovImm(R0, 0).Exit();
  b.Bind(big);
  b.CtxLoad(R6, CtxField::kIndex);
  b.Alu(bpf::ir::AluOp::kAnd, R6, 15);
  b.JmpImm(Cond::kNe, R6, 0, small);   // 4-aligned but not 16-aligned
  b.MovImm(R0, 4).Exit();
  b.Bind(small);
  b.MovImm(R0, 2).Exit();
  return b.Build();
}

// should_writeback: always flush a sync harvest; in the background, defer
// sub-order-2 blocks while dirty pressure is mild (<= 64 pages in the
// cgroup) so small SSTable blocks sit dirty long enough to coalesce with
// their neighbours into one extent. Both outcomes are reachable, so the
// dead-hook analysis proves the veto is real.
bpf::ir::Program ShouldWritebackProgram() {
  ProgramBuilder b;
  const auto flush = b.NewLabel();
  b.CtxLoad(R6, CtxField::kForSync);
  b.JmpImm(Cond::kNe, R6, 0, flush);
  b.CtxLoad(R6, CtxField::kNrPages);
  b.JmpImm(Cond::kGe, R6, 4, flush);
  b.CtxLoad(R7, CtxField::kNrDirty);
  b.JmpImm(Cond::kGt, R7, 64, flush);
  b.MovImm(R0, 0).Exit();              // defer: let small blocks batch up
  b.Bind(flush);
  b.MovImm(R0, 1).Exit();
  return b.Build();
}

// writeback_order: SSTable blocks flush in key order — in this demo layout
// the page index IS the key — so the flusher writes the keyspace in the
// order an LSM compaction would, merging runs across the whole harvest.
// The key is clamped into the non-negative range (a negative return means
// "defer to file-offset order").
bpf::ir::Program WritebackOrderProgram() {
  ProgramBuilder b;
  const auto in_range = b.NewLabel();
  b.CtxLoad(R0, CtxField::kIndex);
  b.JmpImm(Cond::kLe, R0, 0x7fffffff, in_range);
  b.MovImm(R0, 0x7fffffff);
  b.Bind(in_range);
  b.Exit();
  return b.Build();
}

}  // namespace

IrPolicy IrNoopPolicy() {
  IrPolicy p;
  p.name = "noop";
  p.program_cost_ns = 30;
  p.hook(Hook::kPolicyInit) = ReturnZero();
  p.hook(Hook::kFolioAdded) = EmptyHook();
  p.hook(Hook::kFolioAccessed) = EmptyHook();
  p.hook(Hook::kFolioRemoved) = EmptyHook();
  p.hook(Hook::kEvictFolios) = EmptyHook();  // the fallback evicts
  return p;
}

IrPolicy IrFifoPolicy() { return IrFifoLruCommon("ir_fifo", false); }

IrPolicy IrWbLsmPolicy() {
  IrPolicy p = IrFifoLruCommon("ir_wb_lsm", /*move_on_access=*/true);
  p.hook(Hook::kShouldWriteback) = ShouldWritebackProgram();
  p.hook(Hook::kWritebackOrder) = WritebackOrderProgram();
  return p;
}

IrPolicy IrLruPolicy() { return IrFifoLruCommon("ir_lru", true); }

IrPolicy IrReadaheadPolicy() {
  IrPolicy p = IrFifoLruCommon("ir_readahead", /*move_on_access=*/true);
  p.hook(Hook::kReadahead) = ReadaheadProgram();
  p.hook(Hook::kAdmitOrder) = AdmitOrderProgram();
  return p;
}

IrPolicy IrMruPolicy(const MruParams& params) {
  IrPolicy p;
  p.name = "mru";
  p.program_cost_ns = 80;
  p.maps.push_back(StateMapDecl(/*slots=*/2));  // list id, skip counter
  p.hook(Hook::kPolicyInit) = InitProgram();
  // The head is the newest end: added and accessed folios go there.
  p.hook(Hook::kFolioAdded) = ListOpProgram(Kfunc::kListAdd, /*tail=*/false);
  p.hook(Hook::kFolioAccessed) =
      ListOpProgram(Kfunc::kListMove, /*tail=*/false);
  p.hook(Hook::kFolioRemoved) = EmptyHook();
  p.hook(Hook::kEvictFolios) = params.skip_fresh == 0
                                   ? EvictAllProgram()
                                   : MruEvictProgram(params.skip_fresh);
  return p;
}

IrPolicy IrLfuPolicy(const IrLfuParams& params) {
  IrPolicy p;
  p.name = "ir_lfu";
  p.program_cost_ns = 110;
  p.maps.push_back(StateMapDecl());
  p.maps.push_back({"lfu_freq", IrMapKind::kHash, params.max_folios});
  p.hook(Hook::kPolicyInit) = InitProgram();
  {
    ProgramBuilder b;
    b.MovImm(R6, 0);
    p.hook(Hook::kFolioAdded) = FreqAddedProgram(b);
  }
  p.hook(Hook::kFolioAccessed) = FreqBumpProgram();
  p.hook(Hook::kFolioRemoved) = FreqDeleteProgram();
  {
    ProgramBuilder b;
    EmitLoadList(b, R6, 0);
    EmitFreqScoreLoop(b, R6, params.nr_scan);
    b.Exit();
    p.hook(Hook::kEvictFolios) = b.Build();
  }
  return p;
}

IrPolicy IrGetScanPolicy(const GetScanParams& params) {
  constexpr int64_t kGetSlot = 0;
  constexpr int64_t kScanSlot = 1;
  constexpr uint32_t kPidMap = 2;
  IrPolicy p;
  p.name = "get_scan";
  p.program_cost_ns = 130;
  p.maps.push_back(StateMapDecl(/*slots=*/2));
  p.maps.push_back({"get_scan_freq", IrMapKind::kHash,
                    static_cast<uint32_t>(2 * params.capacity_pages + 16)});
  p.maps.push_back(
      {"get_scan_pids", IrMapKind::kHash,
       std::max<uint32_t>(1, static_cast<uint32_t>(params.scan_pids.size()))});
  {
    // policy_init: create the GET list, then the SCAN list, store both ids,
    // and load the scan pids.
    ProgramBuilder b;
    const auto get_created = b.NewLabel();
    const auto scan_created = b.NewLabel();
    b.Call(Kfunc::kListCreate);
    b.JmpImm(Cond::kNe, R0, 0, get_created);
    b.MovImm(R0, -1).Exit();
    b.Bind(get_created);
    b.MovReg(R6, R0);
    b.Call(Kfunc::kListCreate);
    b.JmpImm(Cond::kNe, R0, 0, scan_created);
    b.MovImm(R0, -1).Exit();
    b.Bind(scan_created);
    b.MovReg(R7, R0);
    b.MovImm(R1, kGetSlot);
    b.MapUpdate(kStateMap, R1, R6);
    b.MovImm(R1, kScanSlot);
    b.MapUpdate(kStateMap, R1, R7);
    EmitSetMembers(b, kPidMap, params.scan_pids);
    b.MovImm(R0, 0).Exit();
    p.hook(Hook::kPolicyInit) = b.Build();
  }
  {
    // folio_added: bpf_get_current_pid_tgid() picks the list — SCAN for a
    // scan pid, GET otherwise.
    ProgramBuilder b;
    const auto picked = b.NewLabel();
    b.Call(Kfunc::kCurrentTask);
    b.MovReg(R7, R0);
    b.Alu(bpf::ir::AluOp::kRsh, R7, 32);   // pid
    b.MovImm(R6, kGetSlot);
    b.MapLookup(kPidMap, R7);
    b.JmpImm(Cond::kEq, R0, 0, picked);
    b.MovImm(R6, kScanSlot);
    b.Bind(picked);
    p.hook(Hook::kFolioAdded) = FreqAddedProgram(b);
  }
  p.hook(Hook::kFolioAccessed) = FreqBumpProgram();
  p.hook(Hook::kFolioRemoved) = FreqDeleteProgram();
  {
    // evict_folios: SCAN folios go first, in insertion order: scans are
    // sequential, so the oldest scan folios have already been consumed
    // while the newest may still be ahead of the scan cursor. GET folios
    // are scored only when that left the batch short — the score pass
    // rotates every folio it examines, so it must not run otherwise.
    ProgramBuilder b;
    const auto done = b.NewLabel();
    EmitLoadList(b, R6, kScanSlot);
    EmitEvictAll(b, R6);
    b.CtxLoad(R6, CtxField::kNrProposed);
    b.CtxLoad(R7, CtxField::kNrRequested);
    b.JmpReg(Cond::kGe, R6, R7, done);
    EmitLoadList(b, R6, kGetSlot);
    EmitFreqScoreLoop(b, R6, params.nr_scan);
    b.Bind(done);
    b.Exit();
    p.hook(Hook::kEvictFolios) = b.Build();
  }
  return p;
}

IrPolicy IrAdmissionFilterPolicy(const AdmissionFilterParams& params) {
  constexpr uint32_t kTidMap = 0;
  IrPolicy p;
  p.name = "admission_filter";
  p.program_cost_ns = 40;
  p.maps.push_back({"admission_filter_tids", IrMapKind::kHash,
                    std::max<uint32_t>(1, static_cast<uint32_t>(
                                              params.filtered_tids.size()))});
  {
    ProgramBuilder b;
    EmitSetMembers(b, kTidMap, params.filtered_tids);
    b.MovImm(R0, 0).Exit();
    p.hook(Hook::kPolicyInit) = b.Build();
  }
  p.hook(Hook::kFolioAdded) = EmptyHook();
  p.hook(Hook::kFolioAccessed) = EmptyHook();
  p.hook(Hook::kFolioRemoved) = EmptyHook();
  p.hook(Hook::kEvictFolios) = EmptyHook();  // the fallback evicts
  {
    // admit_folio: folios *fetched* by a filtered thread bypass the cache
    // (§5.6: the thrashing comes from compaction "periodically reading
    // large files"); writes stay cached — freshly compacted data serves
    // upcoming reads, and input files are deleted right after the merge.
    ProgramBuilder b;
    const auto admit = b.NewLabel();
    b.CtxLoad(R6, CtxField::kIsWrite);
    b.JmpImm(Cond::kNe, R6, 0, admit);
    b.CtxLoad(R6, CtxField::kTid);
    b.MapLookup(kTidMap, R6);
    b.JmpImm(Cond::kEq, R0, 0, admit);
    b.MovImm(R0, 0).Exit();
    b.Bind(admit);
    b.MovImm(R0, 1).Exit();
    p.hook(Hook::kAdmitFolio) = b.Build();
  }
  return p;
}

}  // namespace cache_ext::policies
