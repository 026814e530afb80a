#include "sched/telemetry.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/descriptive.hpp"

namespace sagesim::sched {

SchedReport build_report(const ClusterManager& manager) {
  SchedReport r;
  std::vector<double> waits;
  for (const JobRecord& rec : manager.records()) {
    ++r.jobs;
    switch (rec.state) {
      case JobState::kCompleted: ++r.completed; break;
      case JobState::kKilled: ++r.killed; break;
      case JobState::kFailed: ++r.failed; break;
      case JobState::kQueued: ++r.queued; break;
      case JobState::kRunning: ++r.running; break;
    }
    if (rec.first_start_h >= 0.0) waits.push_back(rec.wait_h());
  }
  if (!waits.empty()) {
    r.wait_p50_h = stats::quantile(waits, 0.50);
    r.wait_p99_h = stats::quantile(waits, 0.99);
    r.wait_max_h = *std::max_element(waits.begin(), waits.end());
    double sum = 0.0;
    for (double w : waits) sum += w;
    r.wait_mean_h = sum / static_cast<double>(waits.size());
  }

  const ManagerStats stats = manager.stats();
  r.rejected_quota = stats.rejected_quota;
  r.rejected_budget = stats.rejected_budget;
  r.utilization = stats.utilization();
  r.peak_nodes = stats.peak_nodes;
  r.launches = stats.launches;
  r.preemptions = stats.preemptions;
  r.restarts = stats.restarts;
  r.backfills = stats.backfills;

  const cloud::TenantLedger ledger = manager.tenant_ledger();
  r.total_usd = ledger.total_usd();
  for (const cloud::TenantSpendRow& row : ledger.by_tenant()) {
    ++r.tenants;
    r.spot_usd += row.spot_usd;
    r.ondemand_usd += row.ondemand_usd;
    r.gpu_hours += row.gpu_hours;
    r.cost_per_tenant_max_usd =
        std::max(r.cost_per_tenant_max_usd, row.total_usd());
  }
  if (r.tenants > 0)
    r.cost_per_tenant_mean_usd =
        r.total_usd / static_cast<double>(r.tenants);
  return r;
}

std::string to_text(const SchedReport& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "jobs %zu: %zu completed, %zu killed, %zu failed, %zu queued, "
      "%zu running (rejected: %zu quota, %zu budget)\n"
      "queue wait h: p50 %.3f  p99 %.3f  mean %.3f  max %.3f\n"
      "fleet: %.1f%% utilized, peak %d nodes, %zu launches, "
      "%zu preemptions, %zu restarts, %zu backfills\n"
      "spend: $%.2f total ($%.2f spot / $%.2f on-demand), %.1f GPU-h, "
      "%zu tenants, $%.2f mean / $%.2f max per tenant\n",
      r.jobs, r.completed, r.killed, r.failed, r.queued, r.running,
      r.rejected_quota, r.rejected_budget, r.wait_p50_h, r.wait_p99_h,
      r.wait_mean_h, r.wait_max_h, 100.0 * r.utilization, r.peak_nodes,
      r.launches, r.preemptions, r.restarts, r.backfills, r.total_usd,
      r.spot_usd, r.ondemand_usd, r.gpu_hours, r.tenants,
      r.cost_per_tenant_mean_usd, r.cost_per_tenant_max_usd);
  return buf;
}

}  // namespace sagesim::sched
