#include "src/cache_ext/circuit_breaker.h"

#include "src/util/logging.h"

namespace cache_ext {

namespace {
// Invocations per decay window (per hook).
constexpr uint64_t kWindow = 64;
// A hook never trips before seeing this many invocations in its window.
constexpr uint64_t kMinSamples = 16;
// Violation rate within the window that trips the hook.
constexpr double kTripRate = 0.5;
// Tripped hooks that escalate to a full detach.
constexpr uint32_t kHooksToDetach = 2;
// Lifetime violations on any single hook that escalate even without a
// second trip ("the violation rate stays high").
constexpr uint64_t kHardViolationLimit = 512;
}  // namespace

bool HookCircuitBreaker::Record(PolicyHook hook, bool violation) {
  const auto index = static_cast<uint32_t>(hook);
  DCHECK(index < kNumPolicyHooks);
  std::lock_guard<std::mutex> lock(mu_);
  HookState& st = hooks_[index];
  ++st.window_invocations;
  ++st.total_invocations;
  if (violation) {
    ++st.window_violations;
    ++st.total_violations;
  }

  bool newly_tripped = false;
  if (!st.tripped && st.window_invocations >= kMinSamples &&
      static_cast<double>(st.window_violations) >=
          kTripRate * static_cast<double>(st.window_invocations)) {
    st.tripped = true;
    ++st.trips;
    newly_tripped = true;
    degraded_mask_.fetch_or(PolicyHookBit(hook), std::memory_order_relaxed);
  }

  // Exponential decay: halve the window counters so old outcomes age out.
  if (st.window_invocations >= kWindow) {
    st.window_invocations /= 2;
    st.window_violations /= 2;
  }

  if (!escalated_.load(std::memory_order_relaxed)) {
    uint32_t tripped_hooks = 0;
    for (const HookState& h : hooks_) {
      tripped_hooks += h.tripped ? 1 : 0;
    }
    if (tripped_hooks >= kHooksToDetach ||
        st.total_violations >= kHardViolationLimit) {
      escalated_.store(true, std::memory_order_relaxed);
    }
  }
  return newly_tripped;
}

bool HookCircuitBreaker::Degraded(PolicyHook hook) const {
  return (degraded_mask_.load(std::memory_order_relaxed) &
          PolicyHookBit(hook)) != 0;
}

PolicyHookHealth HookCircuitBreaker::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyHookHealth health;
  health.degraded_mask = degraded_mask_.load(std::memory_order_relaxed);
  health.escalate_detach = escalated_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < kNumPolicyHooks; ++i) {
    health.trips[i] = hooks_[i].trips;
    health.violations[i] = hooks_[i].total_violations;
    health.invocations[i] = hooks_[i].total_invocations;
  }
  return health;
}

}  // namespace cache_ext
