// Privileged policy management (§4.4): loading cache_ext policies requires
// root, so the paper envisions a privileged loader daemon (like sched_ext's
// systemd integration). This example runs that daemon: tenants request
// catalog policies by name, the manager enforces an allowlist and quota,
// audits every decision, and cleans up after the kernel watchdog unloads a
// misbehaving policy.

#include <cstdio>

#include "src/harness/env.h"
#include "src/policies/policy_manager.h"

namespace {

using namespace cache_ext;
using policies::PolicyManager;

const char* KindName(PolicyManager::EventKind kind) {
  switch (kind) {
    case PolicyManager::EventKind::kAttached:
      return "ATTACHED";
    case PolicyManager::EventKind::kDetached:
      return "DETACHED";
    case PolicyManager::EventKind::kDenied:
      return "DENIED";
    case PolicyManager::EventKind::kWatchdogReverted:
      return "WATCHDOG-REVERTED";
    case PolicyManager::EventKind::kQuarantined:
      return "QUARANTINED";
    case PolicyManager::EventKind::kReattached:
      return "REATTACHED";
    case PolicyManager::EventKind::kReattachFailed:
      return "REATTACH-FAILED";
    case PolicyManager::EventKind::kBanned:
      return "BANNED";
  }
  return "?";
}

}  // namespace

int main() {
  harness::Env env;

  // The operator configures the daemon: which policies tenants may load,
  // and how many policies the machine will carry.
  policies::PolicyManagerOptions options;
  options.allowlist = {"lfu", "s3fifo", "mru", "lhd"};
  options.max_attached = 2;
  PolicyManager manager(&env.cache(), options);

  MemCgroup* tenant_a = env.CreateCgroup("/tenant_a", 8 << 20);
  MemCgroup* tenant_b = env.CreateCgroup("/tenant_b", 4 << 20);
  MemCgroup* tenant_c = env.CreateCgroup("/tenant_c", 4 << 20);

  // Tenant A: a key-value store wanting frequency-based eviction.
  Status status = manager.Request(tenant_a, "lfu");
  std::printf("tenant_a requests lfu      -> %s\n", status.ToString().c_str());

  // Tenant B: asks for a policy outside the allowlist.
  status = manager.Request(tenant_b, "fifo");
  std::printf("tenant_b requests fifo     -> %s\n", status.ToString().c_str());

  // Tenant B settles for MRU (its workload is scan-heavy).
  status = manager.Request(tenant_b, "mru");
  std::printf("tenant_b requests mru      -> %s\n", status.ToString().c_str());

  // Tenant C hits the machine-wide quota.
  status = manager.Request(tenant_c, "s3fifo");
  std::printf("tenant_c requests s3fifo   -> %s\n", status.ToString().c_str());

  // Tenant A is done; quota frees up and C can load.
  status = manager.Release(tenant_a);
  std::printf("tenant_a releases          -> %s\n", status.ToString().c_str());
  status = manager.Request(tenant_c, "s3fifo");
  std::printf("tenant_c requests s3fifo   -> %s\n", status.ToString().c_str());

  // The daemon's housekeeping tick: polls userspace agents (e.g. LHD
  // reconfiguration) and reverts watchdog-unloaded policies.
  manager.Poll();

  std::printf("\naudit log:\n");
  for (const auto& event : manager.audit_log()) {
    std::printf("  [%-17s] cgroup=%-10s policy=%-8s %s\n",
                KindName(event.kind), event.cgroup.c_str(),
                event.policy.c_str(), event.detail.c_str());
  }
  std::printf("\nattached policies: %zu (tenant_b=%s, tenant_c=%s)\n",
              manager.attached_count(),
              manager.PolicyFor(tenant_b).c_str(),
              manager.PolicyFor(tenant_c).c_str());
  return 0;
}
