// Per-hook circuit breakers for loaded policies (§4.4 hardening).
//
// The paper's watchdog is all-or-nothing: enough invalid candidates and the
// whole policy is unloaded. Real policies usually break in ONE program — an
// admission filter that aborts, a readahead hook that exhausts its budget —
// while the rest keeps earning its hit rate. The breaker therefore tracks a
// sliding-window violation rate per hook (evict, admit, access, ...): a hook
// whose recent rate crosses the trip threshold is degraded to the default
// kernel behaviour *alone*; escalation to a full watchdog detach happens
// only when several hooks trip or a single hook's violations keep
// accumulating past a hard cap.
//
// The sliding window is an exponential-decay window: per-hook counters are
// halved every `window` invocations, so old violations age out and a burst
// of failures trips quickly while a long-healthy hook shrugs off a stray
// abort.

#ifndef SRC_CACHE_EXT_CIRCUIT_BREAKER_H_
#define SRC_CACHE_EXT_CIRCUIT_BREAKER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/pagecache/eviction.h"

namespace cache_ext {

struct CircuitBreakerOptions {
  // Invocations per decay window (per hook).
  uint32_t window = 64;
  // A hook never trips before seeing this many invocations in its window.
  uint32_t min_samples = 16;
  // Violation rate within the window that trips the hook.
  double trip_rate = 0.5;
  // Tripped hooks that escalate to a full detach.
  uint32_t hooks_to_detach = 2;
  // Lifetime violations on any single hook that escalate even without a
  // second trip ("the violation rate stays high").
  uint64_t hard_violation_limit = 512;
};

class HookCircuitBreaker {
 public:
  explicit HookCircuitBreaker(const CircuitBreakerOptions& options);

  // Record one hook invocation outcome. Returns true when this record
  // tripped the hook (transition only, not for already-tripped hooks).
  bool Record(PolicyHook hook, bool violation);

  // Degraded = tripped; stays tripped for the life of the attachment (a
  // fresh attach after quarantine starts with a clean breaker).
  bool Degraded(PolicyHook hook) const;

  uint32_t degraded_mask() const {
    return degraded_mask_.load(std::memory_order_relaxed);
  }
  // Escalation latch: hooks_to_detach trips, or hard_violation_limit
  // violations on one hook.
  bool escalated() const {
    return escalated_.load(std::memory_order_relaxed);
  }

  PolicyHookHealth Health() const;

 private:
  struct HookState {
    uint64_t window_invocations = 0;
    uint64_t window_violations = 0;
    uint64_t total_invocations = 0;
    uint64_t total_violations = 0;
    uint64_t trips = 0;
    bool tripped = false;
  };

  CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  std::array<HookState, kNumPolicyHooks> hooks_;
  // Mirrors of state readable without the lock, for the dispatch fast path.
  std::atomic<uint32_t> degraded_mask_{0};
  std::atomic<bool> escalated_{false};
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_CIRCUIT_BREAKER_H_
