#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace cache_ext::bench {

ArmResult RunYcsbArm(std::string_view policy,
                     workloads::YcsbWorkload workload,
                     const YcsbBenchConfig& config) {
  harness::EnvOptions env_options;
  env_options.ssd = config.ssd;
  env_options.cache.reclaim.background = config.background_reclaim;
  harness::Env env(env_options);
  MemCgroup* cg = env.CreateCgroup("/bench", config.cgroup_bytes,
                                   harness::BaseKindFor(policy));
  auto db = env.CreateLoadedDb(cg, "bench_db", config.record_count,
                               config.value_size);
  if (!db.ok()) {
    std::fprintf(stderr, "bench: db load failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  auto agent = env.AttachPolicy(cg, policy, {});
  if (!agent.ok()) {
    std::fprintf(stderr, "bench: attach %s failed: %s\n",
                 std::string(policy).c_str(),
                 agent.status().ToString().c_str());
    std::exit(1);
  }

  workloads::YcsbConfig ycsb;
  ycsb.workload = workload;
  ycsb.record_count = config.record_count;
  ycsb.value_size = config.value_size;
  workloads::YcsbGenerator gen(ycsb);

  std::vector<harness::LaneSpec> lanes;
  for (int i = 0; i < config.lanes; ++i) {
    lanes.push_back(harness::LaneSpec{&gen, TaskContext{100, 100 + i},
                                      config.ops_per_lane});
  }
  harness::KvRunnerOptions options;
  options.agent = *agent;
  options.base_time_ns = env.ssd().FrontierNs();

  const uint64_t reads_before = env.ssd().total_read_bytes();
  const uint64_t writes_before = env.ssd().total_write_bytes();
  auto result = harness::RunKvWorkload(db->get(), cg, lanes, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: run failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }

  ArmResult arm;
  arm.run = *result;
  arm.disk_read_bytes = env.ssd().total_read_bytes() - reads_before;
  arm.disk_write_bytes = env.ssd().total_write_bytes() - writes_before;
  arm.cache_stats = env.cache().StatsFor(cg);
  arm.total_ops =
      static_cast<uint64_t>(config.lanes) * config.ops_per_lane;

  // A short burst with the cache at capacity; the counters are read after
  // it, so they cover steady-state reclaim as well as the measured run.
  std::vector<harness::LaneSpec> probe_lanes;
  probe_lanes.push_back(harness::LaneSpec{
      &gen, TaskContext{100, 100 + config.lanes},
      std::max<uint64_t>(config.ops_per_lane / 10, 500)});
  auto probe = harness::RunKvWorkload(db->get(), cg, probe_lanes, options);
  if (probe.ok()) {
    arm.cache_stats = env.cache().StatsFor(cg);
  }
  return arm;
}

namespace {

std::string FormatStat(StatUnit unit, uint64_t value) {
  switch (unit) {
    case StatUnit::kCount:
      return harness::FormatCount(value);
    case StatUnit::kNs:
      return harness::FormatNs(value);
    case StatUnit::kBytes:
      return harness::FormatBytes(value);
  }
  return "?";
}

}  // namespace

void PrintCounters(const std::string& title,
                   const std::vector<std::pair<std::string, ArmResult>>& arms,
                   const std::vector<std::string_view>& names) {
  std::vector<std::string> columns = {"arm"};
  columns.insert(columns.end(), names.begin(), names.end());
  harness::Table table(title, std::move(columns));
  for (const auto& [label, arm] : arms) {
    std::vector<std::string> row = {label};
    for (std::string_view name : names) {
      const size_t cells = row.size();
      ForEachStat(arm.cache_stats, [&](const StatDesc& desc, uint64_t value) {
        if (desc.name == name) {
          row.push_back(FormatStat(desc.unit, value));
        }
      });
      if (row.size() == cells) {
        std::fprintf(stderr, "bench: no counter named %s\n",
                     std::string(name).c_str());
        std::exit(1);
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

bool WriteBenchJson(const std::string& path, const std::string& bench,
                    const std::vector<BenchPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", points[i].ns_per_op);
    out << "    {\"name\": \"" << points[i].name << "\", \"ns_per_op\": "
        << buf << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

namespace {

// Pulls {"name": ..., "ns_per_op": ...} pairs out of our own fixed JSON
// format (WriteBenchJson above) — not a general JSON parser.
std::vector<BenchPoint> ReadBenchJson(const std::string& path) {
  std::vector<BenchPoint> points;
  std::ifstream in(path);
  if (!in) {
    return points;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  size_t pos = 0;
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const size_t open = text.find('"', text.find(':', pos) + 1);
    if (open == std::string::npos) {
      break;
    }
    const size_t close = text.find('"', open + 1);
    const size_t value_key = text.find("\"ns_per_op\"", close);
    if (close == std::string::npos || value_key == std::string::npos) {
      break;
    }
    const size_t colon = text.find(':', value_key);
    BenchPoint point;
    point.name = text.substr(open + 1, close - open - 1);
    point.ns_per_op = std::strtod(text.c_str() + colon + 1, nullptr);
    points.push_back(std::move(point));
    pos = colon;
  }
  return points;
}

}  // namespace

int CompareWithBaseline(const std::string& baseline_path,
                        const std::vector<BenchPoint>& points,
                        double threshold) {
  const std::vector<BenchPoint> baseline = ReadBenchJson(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench: no baseline points in %s\n",
                 baseline_path.c_str());
    return -1;
  }
  int regressions = 0;
  int matched = 0;
  for (const BenchPoint& point : points) {
    const BenchPoint* base = nullptr;
    for (const BenchPoint& candidate : baseline) {
      if (candidate.name == point.name) {
        base = &candidate;
        break;
      }
    }
    if (base == nullptr) {
      std::printf("  %-24s %10.1f ns/op  (no baseline point)\n",
                  point.name.c_str(), point.ns_per_op);
      continue;
    }
    ++matched;
    const double delta_pct =
        base->ns_per_op == 0.0
            ? 0.0
            : (point.ns_per_op - base->ns_per_op) / base->ns_per_op * 100.0;
    const bool regressed =
        point.ns_per_op > base->ns_per_op * (1.0 + threshold);
    if (regressed) {
      ++regressions;
    }
    std::printf("  %-24s %10.1f ns/op  vs baseline %10.1f  (%+6.1f%%)  %s\n",
                point.name.c_str(), point.ns_per_op, base->ns_per_op,
                delta_pct, regressed ? "REGRESSED" : "ok");
  }
  if (matched == 0) {
    std::fprintf(stderr, "bench: baseline %s matches no current points\n",
                 baseline_path.c_str());
    return -1;
  }
  return regressions;
}

}  // namespace cache_ext::bench
