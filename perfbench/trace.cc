#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

using cache_ext::Status;

uint64_t SamplesBeyond(uint64_t n, uint64_t pct_milli) {
  // Nearest rank: the ceil(pct * n)-th smallest sample, 1-based.
  const uint64_t rank = (pct_milli * n + 99999) / 100000;
  return n - rank;
}

uint64_t HighestSupportedPercentile(uint64_t n) {
  uint64_t best = 0;
  for (const uint64_t pct : kPercentileLadder) {
    if (SamplesBeyond(n, pct) >= 10) {
      best = pct;
    }
  }
  return best;
}

uint64_t Percentile(std::vector<uint32_t>& samples, uint64_t pct_milli) {
  if (samples.empty()) {
    return 0;
  }
  const uint64_t n = samples.size();
  const uint64_t rank = std::max<uint64_t>(1, (pct_milli * n + 99999) / 100000);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

LatencySummary Summarize(std::vector<uint32_t>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 50000);
  s.p99 = Percentile(samples, 99000);
  s.tail_pct_milli = HighestSupportedPercentile(s.n);
  s.tail = s.tail_pct_milli == 0 ? 0 : Percentile(samples, s.tail_pct_milli);
  return s;
}

ReadClass ClassifyRead(uint64_t hits_delta, uint64_t misses_delta) {
  if (misses_delta > 0) {
    return ReadClass::kMiss;
  }
  return hits_delta > 0 ? ReadClass::kHit : ReadClass::kNone;
}

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet:             return "lsm.get";
    case SpanKind::kPut:             return "lsm.put";
    case SpanKind::kRead:            return "pagecache.read";
    case SpanKind::kAdded:           return "cache_ext.added";
    case SpanKind::kAccessed:        return "cache_ext.accessed";
    case SpanKind::kRemoved:         return "cache_ext.removed";
    case SpanKind::kEvict:           return "cache_ext.evict_batch";
    case SpanKind::kAdmit:           return "cache_ext.admit";
    case SpanKind::kRefaulted:       return "cache_ext.refaulted";
    case SpanKind::kPrefetch:        return "cache_ext.prefetch";
    case SpanKind::kReadahead:       return "cache_ext.readahead";
    case SpanKind::kOrder:           return "cache_ext.order";
    case SpanKind::kShouldWriteback: return "cache_ext.should_writeback";
    case SpanKind::kWritebackOrder:  return "cache_ext.writeback_order";
    case SpanKind::kValidate:        return "cache_ext.validate";
  }
  return "?";
}

void SpanLog::BeginOp(SpanKind kind, uint64_t start_ns) {
  if (spans_.size() >= capacity_) {
    current_op_ = kNoParent;
    ++dropped_;
    return;
  }
  current_op_ = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{start_ns, start_ns, kNoParent, kind});
}

void SpanLog::EndOp(uint64_t end_ns) {
  if (current_op_ != kNoParent) {
    spans_[current_op_].end_ns = end_ns;
    current_op_ = kNoParent;
  }
}

void SpanLog::RecordHook(SpanKind kind, uint64_t start_ns, uint64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{start_ns, end_ns, current_op_, kind});
}

namespace {
thread_local SpanLog* tls_span_log = nullptr;
}  // namespace

SpanLog* CurrentSpanLog() { return tls_span_log; }
void SetCurrentSpanLog(SpanLog* log) { tls_span_log = log; }

uint64_t SelfTimeNs(uint64_t start_ns, uint64_t end_ns,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  if (end_ns <= start_ns) {
    return 0;
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start_ns;  // everything before it is already counted
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, cursor);
    child_end = std::min(child_end, end_ns);
    if (child_end > child_start) {
      covered += child_end - child_start;
      cursor = child_end;
    }
  }
  return (end_ns - start_ns) - covered;
}

TraceSummary SummarizeSpans(const std::vector<const SpanLog*>& logs) {
  TraceSummary summary;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    summary.spans += spans.size();
    summary.dropped += log->dropped();
    // Children of op i, gathered per op: hook spans follow their parent in
    // the log, but are grouped by parent index so order does not matter.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const Span& span : spans) {
      const auto kind = static_cast<size_t>(span.kind);
      summary.durations[kind].push_back(SampleNs(span.end_ns - span.start_ns));
      if (span.parent != kNoParent) {
        children[span.parent].emplace_back(span.start_ns, span.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (IsHook(spans[i].kind)) {
        continue;
      }
      const auto kind = static_cast<size_t>(spans[i].kind);
      summary.self_ns[kind] += SelfTimeNs(spans[i].start_ns, spans[i].end_ns,
                                          std::move(children[i]));
      ++summary.ops[kind];
    }
  }
  return summary;
}

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return cache_ext::IoError("cannot open " + path);
  }
  std::string header = "perfbench-spans v1 kinds=";
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    header += (k == 0 ? "" : ",");
    header += SpanKindName(static_cast<SpanKind>(k));
  }
  header += '\n';
  bool ok = std::fwrite(header.data(), 1, header.size(), file) == header.size();
  for (uint32_t thread = 0; thread < logs.size() && ok; ++thread) {
    for (const Span& span : logs[thread]->spans()) {
      uint8_t record[32] = {};
      const auto kind = static_cast<uint16_t>(span.kind);
      std::memcpy(record + 0, &thread, 4);
      std::memcpy(record + 4, &kind, 2);
      std::memcpy(record + 8, &span.parent, 4);
      std::memcpy(record + 16, &span.start_ns, 8);
      std::memcpy(record + 24, &span.end_ns, 8);
      if (std::fwrite(record, 1, sizeof(record), file) != sizeof(record)) {
        ok = false;
        break;
      }
    }
  }
  if (std::fclose(file) != 0) {
    ok = false;
  }
  return ok ? cache_ext::OkStatus() : cache_ext::IoError("short write to " + path);
}

// --- TracingPolicy -------------------------------------------------------------

using cache_ext::Folio;

void TracingPolicy::FolioAdded(Folio* folio) {
  Traced(SpanKind::kAdded, [&] { inner_->FolioAdded(folio); });
}

void TracingPolicy::FolioAccessed(Folio* folio) {
  Traced(SpanKind::kAccessed, [&] { inner_->FolioAccessed(folio); });
}

void TracingPolicy::FolioRemoved(Folio* folio) {
  Traced(SpanKind::kRemoved, [&] { inner_->FolioRemoved(folio); });
}

void TracingPolicy::EvictFolios(cache_ext::EvictionCtx* ctx,
                                cache_ext::MemCgroup* memcg) {
  Traced(SpanKind::kEvict, [&] { inner_->EvictFolios(ctx, memcg); });
  evict_requested_.fetch_add(ctx->nr_candidates_requested,
                             std::memory_order_relaxed);
  evict_proposed_.fetch_add(ctx->nr_candidates_proposed,
                            std::memory_order_relaxed);
}

bool TracingPolicy::AdmitFolio(const cache_ext::AdmissionCtx& ctx) {
  return Traced(SpanKind::kAdmit, [&] { return inner_->AdmitFolio(ctx); });
}

void TracingPolicy::FolioRefaulted(Folio* folio, uint32_t tier) {
  Traced(SpanKind::kRefaulted,
         [&] { inner_->FolioRefaulted(folio, tier); });
}

int64_t TracingPolicy::RequestPrefetch(const cache_ext::PrefetchCtx& ctx) {
  return Traced(SpanKind::kPrefetch,
                [&] { return inner_->RequestPrefetch(ctx); });
}

int64_t TracingPolicy::RequestReadahead(const cache_ext::ReadaheadCtx& ctx) {
  return Traced(SpanKind::kReadahead,
                [&] { return inner_->RequestReadahead(ctx); });
}

uint32_t TracingPolicy::AdmitOrder(const cache_ext::AdmitOrderCtx& ctx) {
  return Traced(SpanKind::kOrder, [&] { return inner_->AdmitOrder(ctx); });
}

bool TracingPolicy::ShouldWriteback(const cache_ext::WritebackCtx& ctx) {
  return Traced(SpanKind::kShouldWriteback,
                [&] { return inner_->ShouldWriteback(ctx); });
}

int64_t TracingPolicy::WritebackOrder(const cache_ext::WritebackCtx& ctx) {
  return Traced(SpanKind::kWritebackOrder,
                [&] { return inner_->WritebackOrder(ctx); });
}

bool TracingPolicy::ValidateCandidate(Folio* folio) {
  return Traced(SpanKind::kValidate,
                [&] { return inner_->ValidateCandidate(folio); });
}

}  // namespace perfbench
