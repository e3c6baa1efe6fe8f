// Epoch-based reclamation (EBR): the userspace analogue of RCU for the
// simulation's lockless read paths.
//
// Readers enter a critical section with ebr::Guard (rcu_read_lock); writers
// logically unlink an object under their usual locks and hand it to
// ebr::Retire (kfree_rcu). The object is destroyed only after every reader
// that could still hold a reference has left its critical section.
//
// Scheme: the classic three-epoch design. A global epoch E advances one step
// at a time; each thread owns a cache-line-padded slot publishing
// (epoch << 1) | active. The epoch may advance from E to E+1 only when every
// active reader is pinned at E, so an object retired in epoch r is
// unreachable by the time the epoch reaches r+2: readers that could have
// seen it entered at epoch <= r, and both intervening advances proved those
// readers gone. TryAdvance performs one step; Retire opportunistically
// attempts two, under the same hold of the retire lock that queues the
// object, so a quiescent (reader-free) process frees retired objects
// immediately, matching the eager-delete semantics the page cache had
// before EBR.
//
// Memory ordering: every epoch/slot access is seq_cst but the reader's exit
// store, which is release. The textbook formulation uses relaxed slot
// stores plus standalone seq_cst fences, but ThreadSanitizer does not model
// atomic_thread_fence — ordered accesses keep the happens-before edges
// visible to TSan (reader exit store -> advancer scan load -> deferred
// free). A page-cache read exits right after copying out of its folios,
// where a seq_cst store would be a full fence; release still orders the
// section's accesses before the scan that sees the slot inactive. Guard entry
// re-checks the epoch after publishing its slot, so an advancer can never
// miss a reader that entered before the advance scanned its slot.
//
// The `ebr.stall` fault point (src/fault) injects a *phantom reader* pinned
// at the current epoch for `magnitude` blocked advance attempts (default
// 64) — the analogue of a reader wedged inside rcu_read_lock — so chaos
// tests can prove writers keep making progress while frees are deferred.

#ifndef SRC_UTIL_EBR_H_
#define SRC_UTIL_EBR_H_

#include <cstddef>
#include <cstdint>

namespace cache_ext::ebr {

// RAII read-side critical section (rcu_read_lock / rcu_read_unlock).
// Re-entrant: nested guards on the same thread are free and keep the
// outermost pin. Objects observed through an EBR-published pointer remain
// allocated until the outermost guard on this thread is destroyed.
class Guard {
 public:
  Guard();
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

// Defers `deleter(object)` until all current readers are gone (kfree_rcu).
// The caller must have already unlinked the object from every shared
// structure. Safe to call with or without locks held, but NOT from inside a
// Guard on the same thread if the caller then expects the free to have run.
void Retire(void* object, void (*deleter)(void*));

template <typename T>
void Retire(T* object) {
  Retire(static_cast<void*>(object),
         [](void* p) { delete static_cast<T*>(p); });
}

// One epoch step. Returns false when an active reader (or an injected
// phantom reader) is pinned at the current epoch. On success, frees every
// object whose grace period has elapsed.
bool TryAdvance();

// Blocks until every object retired before the call has been freed
// (synchronize_rcu + drain). Must not be called under a Guard.
void Synchronize();

// --- Introspection (tests, chaos assertions) -------------------------------

// Objects retired but not yet freed.
uint64_t RetiredCount();
// Objects freed since process start.
uint64_t FreedCount();
uint64_t GlobalEpoch();
// Threads currently inside a Guard (includes an active phantom reader).
size_t ActiveReaders();

}  // namespace cache_ext::ebr

#endif  // SRC_UTIL_EBR_H_
