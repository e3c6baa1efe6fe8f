#include "src/policies/policy_factory.h"

#include <algorithm>
#include <optional>

#include "src/bpf/ir/compile.h"
#include "src/policies/classic.h"
#include "src/policies/ir_policies.h"
#include "src/policies/lhd.h"
#include "src/policies/mglru_ext.h"
#include "src/policies/prefetch.h"
#include "src/policies/s3fifo.h"

namespace cache_ext::policies {

Expected<PolicyBundle> MakePolicy(std::string_view name,
                                  const PolicyParams& params) {
  PolicyBundle bundle;
  const auto capacity32 = static_cast<uint32_t>(
      std::min<uint64_t>(params.capacity_pages, UINT32_MAX / 4));
  // Policies written in the IR: verified (spec derived) and compiled here.
  std::optional<bpf::ir::IrPolicy> ir;
  if (name == "noop") {
    ir = IrNoopPolicy();
  } else if (name == "fifo" || name == "ir_fifo") {
    ir = IrFifoPolicy();
    ir->name = name;
  } else if (name == "mru") {
    MruParams p;
    // Skip a window of freshest folios proportional to the cache, clamped:
    // large caches skip more in-flight folios, tiny caches barely any.
    p.skip_fresh = std::clamp<uint64_t>(params.capacity_pages / 64, 4, 64);
    ir = IrMruPolicy(p);
  } else if (name == "lfu") {
    LfuParams p;
    p.max_folios = 2 * capacity32 + 16;
    bundle.ops = MakeLfuOps(p);
  } else if (name == "s3fifo") {
    S3FifoParams p;
    p.capacity_pages = params.capacity_pages;
    bundle.ops = MakeS3FifoOps(p);
  } else if (name == "lhd") {
    LhdParams p;
    p.capacity_pages = params.capacity_pages;
    // Empirically tuned (see DESIGN.md): coarse age buckets — width about
    // 16x the cache size in events — let the hit-count classes dominate,
    // matching the paper's observation that LHD tracks LFU on Zipfian
    // workloads while the age dimension handles scan/cyclic patterns.
    uint32_t shift = 4;
    while ((1ULL << (shift - 4 + 1)) <= params.capacity_pages) {
      ++shift;
    }
    p.age_shift = shift;
    // Scale the reconfiguration interval to the cache (paper: 2^20 on a
    // 2.6M-page cgroup).
    p.reconfig_interval = std::max<uint64_t>(512, params.capacity_pages * 8);
    LhdBundle lhd = MakeLhdPolicy(p);
    bundle.ops = std::move(lhd.ops);
    bundle.agent = std::move(lhd.agent);
  } else if (name == "mglru_ext") {
    MglruExtParams p;
    p.capacity_pages = params.capacity_pages;
    bundle.ops = MakeMglruExtOps(p);
  } else if (name == "get_scan") {
    GetScanParams p;
    p.capacity_pages = params.capacity_pages;
    p.scan_pids = params.scan_pids;
    ir = IrGetScanPolicy(p);
  } else if (name == "ir_lru") {
    ir = IrLruPolicy();
  } else if (name == "ir_lfu") {
    IrLfuParams p;
    p.max_folios = 2 * capacity32 + 16;
    ir = IrLfuPolicy(p);
  } else if (name == "ir_readahead") {
    ir = IrReadaheadPolicy();
  } else if (name == "ir_wb_lsm") {
    ir = IrWbLsmPolicy();
  } else if (name == "stride_prefetcher") {
    bundle.ops = MakeStridePrefetcherOps();
  } else if (name == "admission_filter") {
    AdmissionFilterParams p;
    p.filtered_tids = params.filter_tids;
    ir = IrAdmissionFilterPolicy(p);
  } else {
    return InvalidArgument("unknown policy: " + std::string(name));
  }
  if (ir.has_value()) {
    auto ops = bpf::ir::CompileToOps(*ir);
    if (!ops.ok()) {
      return ops.status();
    }
    bundle.ops = std::move(*ops);
  }
  return bundle;
}

std::vector<std::string_view> AvailablePolicies() {
  return {"noop",     "fifo",     "mru",      "lfu",
          "s3fifo",   "lhd",      "mglru_ext", "get_scan",
          "admission_filter",     "stride_prefetcher",
          "ir_fifo",  "ir_lru",   "ir_lfu",   "ir_readahead",
          "ir_wb_lsm"};
}

}  // namespace cache_ext::policies
