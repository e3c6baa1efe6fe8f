// Tracing for the benchmark: in-memory spans recorded around the benchmark's
// own calls into the system, a ReclaimPolicy decorator that records one span
// per hook call, and the statistics computed from spans and samples
// (percentile selection, self time, hit/miss classification of a read).
//
// Spans are recorded only from the benchmark's files: one span per top-layer
// operation (LsmDb::Get/Put, PageCache::Read) and one per hook call the page
// cache makes into the attached policy. A hook span's parent is the span of
// the operation running on the same thread when the hook fired.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/pagecache/eviction.h"
#include "src/util/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Percentiles -------------------------------------------------------------

// Percentiles a latency may be reported at, in thousandths of a percent.
inline constexpr std::array<uint64_t, 6> kPercentileLadder = {
    50000, 90000, 99000, 99900, 99990, 99999};

// Samples strictly above the nearest-rank `pct_milli` percentile of n.
uint64_t SamplesBeyond(uint64_t n, uint64_t pct_milli);

// The highest ladder percentile with at least ten samples beyond it, or 0
// when n is too small for even the median to qualify.
uint64_t HighestSupportedPercentile(uint64_t n);

// Nearest-rank percentile; reorders `samples`. 0 for an empty vector.
uint64_t Percentile(std::vector<uint32_t>& samples, uint64_t pct_milli);

struct LatencySummary {
  uint64_t n = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t tail_pct_milli = 0;  // HighestSupportedPercentile(n)
  uint64_t tail = 0;
};
LatencySummary Summarize(std::vector<uint32_t>& samples);

// Saturating narrowing for latency samples.
inline uint32_t SampleNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

// --- Read classification -------------------------------------------------------

// What one PageCache::Read did, judged from the reader cgroup's hit and miss
// counter deltas across the call (exact when one thread uses the cgroup).
enum class ReadClass { kHit, kMiss, kNone };
ReadClass ClassifyRead(uint64_t hits_delta, uint64_t misses_delta);

// --- Spans ---------------------------------------------------------------------

enum class SpanKind : uint16_t {
  // Top-layer operations.
  kGet = 0,
  kPut,
  kRead,
  // Hook calls from the page cache into the attached policy.
  kAdded,
  kAccessed,
  kRemoved,
  kEvict,
  kAdmit,
  kRefaulted,
  kPrefetch,
  kReadahead,
  kOrder,
  kShouldWriteback,
  kWritebackOrder,
  kValidate,
};
inline constexpr size_t kNumSpanKinds = 15;
inline constexpr SpanKind kFirstHookKind = SpanKind::kAdded;

std::string_view SpanKindName(SpanKind kind);
inline bool IsHook(SpanKind kind) { return kind >= kFirstHookKind; }

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index into the same log
  SpanKind kind = SpanKind::kGet;
};

// One thread's spans, kept in memory until the run ends. Fixed capacity:
// spans that do not fit are counted as dropped, never reallocated into.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  // Opens the span of a top-layer operation; hook spans recorded until
  // EndOp become its children.
  void BeginOp(SpanKind kind, uint64_t start_ns);
  void EndOp(uint64_t end_ns);
  void RecordHook(SpanKind kind, uint64_t start_ns, uint64_t end_ns);

  // True once fewer spans remain than one operation could need (an
  // eviction batch proposes, validates and removes up to 32 folios).
  bool NearlyFull() const { return spans_.size() + 256 > capacity_; }
  void Clear() {
    spans_.clear();
    current_op_ = kNoParent;
    dropped_ = 0;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  uint32_t current_op_ = kNoParent;
  uint64_t dropped_ = 0;
};

// The calling thread's log (null: record nothing).
SpanLog* CurrentSpanLog();
void SetCurrentSpanLog(SpanLog* log);

// Self time of [start, end): its length minus the part covered by the union
// of the child intervals (clipped to the parent).
uint64_t SelfTimeNs(uint64_t start_ns, uint64_t end_ns,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

// Per-kind durations and per-operation self times aggregated from logs.
struct TraceSummary {
  std::array<std::vector<uint32_t>, kNumSpanKinds> durations;
  // Sum of operation self times and operation count, per operation kind.
  std::array<uint64_t, kNumSpanKinds> self_ns{};
  std::array<uint64_t, kNumSpanKinds> ops{};
  uint64_t spans = 0;
  uint64_t dropped = 0;
};
TraceSummary SummarizeSpans(const std::vector<const SpanLog*>& logs);

// Writes every span as fixed-size binary records: a text header line, then
// per span {u32 thread, u16 kind, u16 0, u32 parent, u32 0, u64 start_ns,
// u64 end_ns}, little-endian.
cache_ext::Status WriteSpans(const std::string& path,
                             const std::vector<const SpanLog*>& logs);

// --- Hook decorator ----------------------------------------------------------

// Wraps the attached policy: forwards every ReclaimPolicy method unchanged,
// records a span for each hook call in the calling thread's SpanLog, and
// sums the eviction candidates requested and proposed. Decisions are the inner policy's, so a traced run must evict
// exactly what an untraced run evicts.
class TracingPolicy final : public cache_ext::ReclaimPolicy {
 public:
  explicit TracingPolicy(std::unique_ptr<cache_ext::ReclaimPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void FolioAdded(cache_ext::Folio* folio) override;
  void FolioAccessed(cache_ext::Folio* folio) override;
  void FolioRemoved(cache_ext::Folio* folio) override;
  void EvictFolios(cache_ext::EvictionCtx* ctx,
                   cache_ext::MemCgroup* memcg) override;
  bool AdmitFolio(const cache_ext::AdmissionCtx& ctx) override;
  void FolioRefaulted(cache_ext::Folio* folio, uint32_t tier) override;
  uint32_t EvictionTier(const cache_ext::Folio* folio) const override {
    return inner_->EvictionTier(folio);
  }
  int64_t RequestPrefetch(const cache_ext::PrefetchCtx& ctx) override;
  int64_t RequestReadahead(const cache_ext::ReadaheadCtx& ctx) override;
  uint32_t AdmitOrder(const cache_ext::AdmitOrderCtx& ctx) override;
  bool ShouldWriteback(const cache_ext::WritebackCtx& ctx) override;
  int64_t WritebackOrder(const cache_ext::WritebackCtx& ctx) override;
  bool ValidateCandidate(cache_ext::Folio* folio) override;
  cache_ext::PolicyHookHealth HookHealth() const override {
    return inner_->HookHealth();
  }
  bool WantsDetach() const override { return inner_->WantsDetach(); }
  cache_ext::PolicyRuntimeCounters RuntimeCounters() const override {
    return inner_->RuntimeCounters();
  }
  uint64_t PerEventCostNs() const override { return inner_->PerEventCostNs(); }

  uint64_t evict_requested() const {
    return evict_requested_.load(std::memory_order_relaxed);
  }
  uint64_t evict_proposed() const {
    return evict_proposed_.load(std::memory_order_relaxed);
  }

 private:
  template <typename Fn>
  auto Traced(SpanKind kind, Fn&& fn) -> decltype(fn()) {
    SpanLog* log = CurrentSpanLog();
    if (log == nullptr) {
      return fn();
    }
    const uint64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      log->RecordHook(kind, start, NowNs());
    } else {
      auto result = fn();
      log->RecordHook(kind, start, NowNs());
      return result;
    }
  }

  std::unique_ptr<cache_ext::ReclaimPolicy> inner_;
  std::atomic<uint64_t> evict_requested_{0};
  std::atomic<uint64_t> evict_proposed_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
