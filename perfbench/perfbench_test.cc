#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/env.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0u);
  EXPECT_EQ(HighestSupportedPercentile(19), 0u);
  EXPECT_EQ(HighestSupportedPercentile(20), 50000u);
  EXPECT_EQ(HighestSupportedPercentile(999), 90000u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99000u);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99000u);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99900u);
  EXPECT_EQ(HighestSupportedPercentile(1000000), 99999u);
  EXPECT_EQ(SamplesBeyond(1000, 99000), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99000), 9u);
}

TEST(PercentileTest, NearestRankAndReportedSampleCount) {
  std::vector<uint32_t> samples;
  for (uint32_t v = 1000; v >= 1; --v) {
    samples.push_back(v);
  }
  const LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500u);
  EXPECT_EQ(s.p99, 990u);
  EXPECT_EQ(s.tail_pct_milli, 99000u);
  EXPECT_EQ(s.tail, 990u);

  std::vector<uint32_t> empty;
  const LatencySummary none = Summarize(empty);
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.p99, 0u);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildrenClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(0, 100, {}), 100u);
  // [10,20) and [15,30) overlap: together they cover 20 ns; [90,120) only
  // covers 10 ns inside the parent; [200,210) lies outside it.
  EXPECT_EQ(SelfTimeNs(0, 100, {{15, 30}, {10, 20}, {90, 120}, {200, 210}}),
            70u);
  EXPECT_EQ(SelfTimeNs(0, 100, {{0, 100}}), 0u);
  EXPECT_EQ(SelfTimeNs(50, 50, {{40, 60}}), 0u);
}

TEST(SelfTimeTest, SummaryAttributesHookSpansToTheirOperation) {
  SpanLog log(64);
  log.BeginOp(SpanKind::kRead, 1000);
  log.RecordHook(SpanKind::kAccessed, 1100, 1150);
  log.RecordHook(SpanKind::kEvict, 1200, 1300);
  log.EndOp(1500);
  log.BeginOp(SpanKind::kRead, 2000);
  log.EndOp(2100);
  const TraceSummary summary = SummarizeSpans({&log});
  const auto read = static_cast<size_t>(SpanKind::kRead);
  EXPECT_EQ(summary.ops[read], 2u);
  EXPECT_EQ(summary.self_ns[read], (500u - 150u) + 100u);
  EXPECT_EQ(summary.durations[static_cast<size_t>(SpanKind::kEvict)],
            std::vector<uint32_t>{100});
  EXPECT_EQ(log.spans()[1].parent, 0u);
  EXPECT_EQ(summary.spans, 4u);
}

TEST(SpanLogTest, CountsDropsInsteadOfGrowing) {
  SpanLog log(2);
  log.BeginOp(SpanKind::kGet, 0);
  log.RecordHook(SpanKind::kAccessed, 1, 2);
  log.RecordHook(SpanKind::kAccessed, 3, 4);
  log.EndOp(5);
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.spans()[0].end_ns, 5u);
}

TEST(ReadClassTest, CounterDeltasClassifyOneRead) {
  EXPECT_EQ(ClassifyRead(1, 0), ReadClass::kHit);
  EXPECT_EQ(ClassifyRead(0, 1), ReadClass::kMiss);
  EXPECT_EQ(ClassifyRead(0, 0), ReadClass::kNone);

  cache_ext::harness::Env env;
  cache_ext::MemCgroup* cg = env.CreateCgroup("reader", 1 << 20);
  ASSERT_NE(cg, nullptr);
  auto id = env.disk().Create("f");
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> page(cache_ext::kPageSize);
  FillPage(7, 0, page.data());
  ASSERT_TRUE(env.disk().WriteAt(*id, 0, page).ok());
  auto as = env.cache().OpenFile("f");
  ASSERT_TRUE(as.ok());
  cache_ext::Lane lane(1, cache_ext::TaskContext{1, 1}, 1);
  for (ReadClass want : {ReadClass::kMiss, ReadClass::kHit}) {
    const uint64_t hits = cg->stat_hits.load();
    const uint64_t misses = cg->stat_misses.load();
    std::vector<uint8_t> out(cache_ext::kPageSize);
    ASSERT_TRUE(env.cache().Read(lane, *as, cg, 0, out).ok());
    EXPECT_EQ(ClassifyRead(cg->stat_hits.load() - hits,
                           cg->stat_misses.load() - misses),
              want);
    EXPECT_TRUE(PageMatches(7, 0, out.data()));
  }
}

TEST(OracleTest, DetectsOneWrongByte) {
  std::vector<uint8_t> page(cache_ext::kPageSize);
  FillPage(3, 42, page.data());
  EXPECT_TRUE(PageMatches(3, 42, page.data()));
  EXPECT_FALSE(PageMatches(4, 42, page.data()));
  EXPECT_FALSE(PageMatches(3, 43, page.data()));
  page[4000] ^= 1;
  EXPECT_FALSE(PageMatches(3, 42, page.data()));

  std::string value(2048, 'x');
  const uint64_t fp = Fingerprint(value);
  value[2047] = 'y';
  EXPECT_NE(Fingerprint(value), fp);
  EXPECT_NE(Fingerprint(std::string(2047, 'x')), fp);
}

// Everything a fixed-count phase of a single-client workload produced that
// must repeat exactly: counts, SSD totals, hook invocations, virtual time.
std::vector<uint64_t> Repeatable(const PhaseResult& r) {
  const Counters& c = r.after;
  std::vector<uint64_t> v = {r.ops,          r.failed,     r.virt_ns,
                             c.hits,         c.misses,     c.insertions,
                             c.evictions,    c.refaults,   c.activations,
                             c.ssd_reads,    c.ssd_writes, c.ssd_read_bytes,
                             c.ssd_write_bytes, c.compactions,
                             c.cache.fallback_evictions,
                             c.cache.ext_direct_reclaim_ns, c.cache.psi_some_ns,
                             c.cache.writeback_pages,
                             c.cache.ext_dirty_throttle_ns};
  v.insert(v.end(), c.hook_invocations.begin(), c.hook_invocations.end());
  v.insert(v.end(), r.virt_ns_per_op.begin(), r.virt_ns_per_op.end());
  return v;
}

PhaseResult RunFixed(Workload workload, uint64_t seed, bool traced,
                     uint64_t ops, TraceSummary* spans = nullptr) {
  auto bench = Bench::Create(workload, seed, traced);
  EXPECT_TRUE(bench.ok()) << bench.status().ToString();
  if (!bench.ok()) {
    return {};
  }
  EXPECT_EQ((*bench)->warmup_failed(), 0u);
  PhaseResult r = (*bench)->Run(0, ops);
  if (spans != nullptr) {
    *spans = SummarizeSpans((*bench)->span_logs());
  }
  return r;
}

class SingleClientTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SingleClientTest, RepeatsExactlyAndTracingChangesNoDecision) {
  constexpr uint64_t kOps = 3000;
  const PhaseResult first = RunFixed(GetParam(), 11, false, kOps);
  const PhaseResult again = RunFixed(GetParam(), 11, false, kOps);
  TraceSummary spans;
  const PhaseResult traced = RunFixed(GetParam(), 11, true, kOps, &spans);
  ASSERT_EQ(first.ops, kOps);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(Repeatable(first), Repeatable(again));
  EXPECT_EQ(Repeatable(first), Repeatable(traced));
  // The decorator recorded a span for every hook program the policy's
  // breaker counted during the phase.
  EXPECT_EQ(spans.dropped, 0u);
  for (auto [kind, hook] :
       {std::pair{SpanKind::kEvict, cache_ext::PolicyHook::kEvict},
        std::pair{SpanKind::kAccessed, cache_ext::PolicyHook::kAccess},
        std::pair{SpanKind::kRemoved, cache_ext::PolicyHook::kRemoved}}) {
    const auto h = static_cast<size_t>(hook);
    EXPECT_EQ(spans.durations[static_cast<size_t>(kind)].size(),
              traced.after.hook_invocations[h] - traced.before.hook_invocations[h])
        << SpanKindName(kind);
  }
}

TEST_P(SingleClientTest, HeldOutSeedRunsCleanly) {
  const PhaseResult other = RunFixed(GetParam(), 12, false, 2000);
  EXPECT_EQ(other.ops, 2000u);
  EXPECT_EQ(other.failed, 0u);
  EXPECT_NE(Repeatable(other), Repeatable(RunFixed(GetParam(), 11, false, 2000)));
}

TEST(MultiClientTest, TracedClientsCheckEveryGetAndRecordSpans) {
  auto bench = Bench::Create(Workload::kKvReadZipfMt, 5, /*traced=*/true);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  ASSERT_GE((*bench)->threads(), 2);
  const PhaseResult r = (*bench)->Run(0, 2000);
  EXPECT_EQ(r.ops, 2000u * (*bench)->threads());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.gets, r.ops);
  const TraceSummary summary = SummarizeSpans((*bench)->span_logs());
  EXPECT_EQ(summary.ops[static_cast<size_t>(SpanKind::kGet)], r.ops);
  EXPECT_GT(summary.durations[static_cast<size_t>(SpanKind::kAccessed)].size(), 0u);
  EXPECT_EQ(summary.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SingleClientTest,
                         ::testing::Values(Workload::kKvReadZipf,
                                           Workload::kPcRandreadMiss,
                                           Workload::kKvUpdateZipf),
                         [](const auto& info) {
                           return std::string(WorkloadName(info.param));
                         });

}  // namespace
}  // namespace perfbench
