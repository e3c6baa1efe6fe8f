#include "src/util/ebr.h"

#include <array>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/util/logging.h"

namespace cache_ext::ebr {
namespace {

constexpr uint64_t kDefaultPhantomTtl = 64;

struct Retired {
  void* object;
  void (*deleter)(void*);
  uint64_t epoch;
};

// Objects whose grace period has elapsed, collected under retire_mu_ and
// freed after it is released. The few an advance usually frees sit inline,
// so a retire allocates nothing; a backlog released at once spills over.
// Lives on the caller's stack, so a deleter may itself retire objects.
class FreeBatch {
 public:
  void Add(const Retired& r) {
    if (inline_size_ < inline_.size()) {
      inline_[inline_size_++] = r;
    } else {
      overflow_.push_back(r);
    }
  }

  // Runs every deleter; returns how many ran.
  size_t FreeAll() {
    for (size_t i = 0; i < inline_size_; ++i) {
      inline_[i].deleter(inline_[i].object);
    }
    for (const Retired& r : overflow_) {
      r.deleter(r.object);
    }
    return inline_size_ + overflow_.size();
  }

 private:
  std::array<Retired, 4> inline_{};
  size_t inline_size_ = 0;
  std::vector<Retired> overflow_;
};

class Domain {
 public:
  // Upper bound on threads that have ever held a Guard concurrently with
  // other live threads. Slots are recycled at thread exit.
  static constexpr size_t kMaxSlots = 64;

  struct alignas(64) Slot {
    // (epoch << 1) | active. Seq_cst on both sides: the reader's exit store
    // and the advancer's scan load form the happens-before edge that makes
    // the deferred free race-free (and visible to TSan, which does not
    // model standalone fences).
    std::atomic<uint64_t> state{0};
    std::atomic<bool> live{false};
  };

  // Leaked: retired objects may outlive every other static.
  static Domain& Get() {
    static Domain* domain = new Domain();
    return *domain;
  }

  Slot* AcquireSlot() {
    for (size_t i = 0; i < kMaxSlots; ++i) {
      bool expected = false;
      if (slots_[i].live.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
        size_t hw = high_water_.load(std::memory_order_relaxed);
        while (hw < i + 1 && !high_water_.compare_exchange_weak(
                                 hw, i + 1, std::memory_order_relaxed)) {
        }
        return &slots_[i];
      }
    }
    LOG_FATAL << "ebr: more than " << kMaxSlots << " concurrent reader threads";
    return nullptr;
  }

  void ReleaseSlot(Slot* slot) {
    slot->state.store(0, std::memory_order_seq_cst);
    slot->live.store(false, std::memory_order_release);
  }

  uint64_t Epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  void Retire(void* object, void (*deleter)(void*)) {
    FreeBatch batch;
    {
      std::lock_guard<std::mutex> lock(retire_mu_);
      // Tagging under retire_mu_ (which also serializes advances) keeps the
      // deque's epochs non-decreasing, so frees pop from the front.
      retired_.push_back({object, deleter, Epoch()});
      retired_count_.fetch_add(1, std::memory_order_relaxed);
      // Opportunistic: two steps are a full grace period, so a quiescent
      // (reader-free) process frees the object before Retire returns —
      // matching the eager-delete semantics callers had before EBR. Any
      // active reader simply blocks the step and the object stays deferred.
      // Both steps run under this one lock hold.
      AdvanceLocked(batch);
      AdvanceLocked(batch);
    }
    Free(batch);
  }

  bool TryAdvance() {
    FreeBatch batch;
    bool advanced = false;
    {
      std::lock_guard<std::mutex> lock(retire_mu_);
      advanced = AdvanceLocked(batch);
    }
    Free(batch);
    return advanced;
  }

  uint64_t retired_count() const {
    return retired_count_.load(std::memory_order_relaxed);
  }
  uint64_t freed_count() const {
    return freed_count_.load(std::memory_order_relaxed);
  }

  size_t ActiveReaders() {
    size_t n = 0;
    const size_t hw = high_water_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < hw; ++i) {
      if ((slots_[i].state.load(std::memory_order_seq_cst) & 1) != 0) {
        ++n;
      }
    }
    std::lock_guard<std::mutex> lock(retire_mu_);
    return n + (phantom_active_ ? 1 : 0);
  }

 private:
  // One epoch step; moves every object whose grace period it completes
  // into `batch`. Returns false when a reader blocks the step.
  bool AdvanceLocked(FreeBatch& batch) {
    // ebr.stall: a phantom reader pinned at the current epoch. The ttl
    // counts *blocked advance attempts* (reclaim-side retries), the
    // virtual-time analogue of a reader wedged in its critical section.
    if (!phantom_active_) {
      uint64_t magnitude = 0;
      if (fault::InjectFault(fault::points::kEbrStall, &magnitude)) {
        phantom_active_ = true;
        phantom_ttl_ = magnitude == 0 ? kDefaultPhantomTtl : magnitude;
      }
    }
    if (phantom_active_) {
      if (--phantom_ttl_ == 0) {
        phantom_active_ = false;
      }
      return false;
    }

    const uint64_t e = epoch_.load(std::memory_order_seq_cst);
    const size_t hw = high_water_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < hw; ++i) {
      const uint64_t s = slots_[i].state.load(std::memory_order_seq_cst);
      if ((s & 1) != 0 && (s >> 1) != e) {
        // An active reader still pinned at the previous epoch: it may
        // hold references retired one grace period ago.
        return false;
      }
    }
    const uint64_t next = e + 1;
    epoch_.store(next, std::memory_order_seq_cst);
    while (!retired_.empty() && retired_.front().epoch + 2 <= next) {
      batch.Add(retired_.front());
      retired_.pop_front();
    }
    return true;
  }

  // Deleters run outside retire_mu_: they may take their own locks (~Folio
  // walks the local-storage directory) and must not nest under the
  // reclamation lock.
  void Free(FreeBatch& batch) {
    const size_t freed = batch.FreeAll();
    if (freed != 0) {
      retired_count_.fetch_sub(freed, std::memory_order_relaxed);
      freed_count_.fetch_add(freed, std::memory_order_relaxed);
    }
  }

  // Starts at 2 so `epoch + 2 <= next` never deals with pre-history.
  std::atomic<uint64_t> epoch_{2};
  std::array<Slot, kMaxSlots> slots_{};
  std::atomic<size_t> high_water_{0};

  // Serializes advances and guards the deferred-free list + phantom state.
  // Leaf lock: nothing is acquired while it is held.
  std::mutex retire_mu_;
  std::deque<Retired> retired_;
  bool phantom_active_ = false;
  uint64_t phantom_ttl_ = 0;

  std::atomic<uint64_t> retired_count_{0};
  std::atomic<uint64_t> freed_count_{0};
};

struct ThreadState {
  Domain::Slot* slot = nullptr;
  int depth = 0;

  ~ThreadState() {
    if (slot != nullptr) {
      Domain::Get().ReleaseSlot(slot);
      slot = nullptr;
    }
  }
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Guard::Guard() {
  ThreadState& ts = Tls();
  if (ts.depth++ > 0) {
    return;  // nested: the outermost guard's pin covers us
  }
  if (ts.slot == nullptr) {
    ts.slot = Domain::Get().AcquireSlot();
  }
  Domain& domain = Domain::Get();
  // Publish-and-recheck: after announcing (e, active) the epoch is read
  // again; if an advancer moved it concurrently it cannot have relied on
  // this slot being inactive beyond the epoch we now re-publish.
  uint64_t e = domain.Epoch();
  for (;;) {
    ts.slot->state.store((e << 1) | 1, std::memory_order_seq_cst);
    const uint64_t now = domain.Epoch();
    if (now == e) {
      break;
    }
    e = now;
  }
}

Guard::~Guard() {
  ThreadState& ts = Tls();
  DCHECK(ts.depth > 0);
  if (--ts.depth > 0) {
    return;
  }
  // Release is all the exit needs: the advancer's scan load (seq_cst, so
  // acquire) that sees the slot inactive orders every access of the section
  // before its frees. A seq_cst store would be a full fence here, draining
  // the stores a page-cache read just made copying out of its folios.
  ts.slot->state.store(0, std::memory_order_release);
}

void Retire(void* object, void (*deleter)(void*)) {
  Domain::Get().Retire(object, deleter);
}

bool TryAdvance() { return Domain::Get().TryAdvance(); }

void Synchronize() {
  // A thread inside its own read-side section can never observe a full
  // grace period: it would spin on its own pin forever.
  CHECK(Tls().depth == 0);
  Domain& domain = Domain::Get();
  const uint64_t target = domain.Epoch() + 2;
  while (domain.Epoch() < target) {
    if (!domain.TryAdvance()) {
      std::this_thread::yield();
    }
  }
}

uint64_t RetiredCount() { return Domain::Get().retired_count(); }
uint64_t FreedCount() { return Domain::Get().freed_count(); }
uint64_t GlobalEpoch() { return Domain::Get().Epoch(); }
size_t ActiveReaders() { return Domain::Get().ActiveReaders(); }

}  // namespace cache_ext::ebr
