// Scheduler telemetry: one report rolled up from the manager's job records,
// fleet counters, and tenant ledger — the numbers bench_semester emits
// (BENCH_sched.json) and the acceptance gates read: queue-wait percentiles,
// fleet utilization, preemption/restart counts, cost per student.
#pragma once

#include <cstddef>
#include <string>

#include "sched/manager.hpp"

namespace sagesim::sched {

struct SchedReport {
  // Population.
  std::size_t jobs{0};       ///< admitted
  std::size_t completed{0};
  std::size_t killed{0};
  std::size_t failed{0};
  std::size_t queued{0};     ///< non-terminal at report time
  std::size_t running{0};
  std::size_t rejected_quota{0};
  std::size_t rejected_budget{0};

  // Queue waits (admission to first placement), hours.
  double wait_p50_h{0.0};
  double wait_p99_h{0.0};
  double wait_mean_h{0.0};
  double wait_max_h{0.0};

  // Fleet.
  double utilization{0.0};
  int peak_nodes{0};
  std::size_t launches{0};
  std::size_t preemptions{0};
  std::size_t restarts{0};
  std::size_t backfills{0};

  // Spend (tenant-attributed, from the lease ledger).
  std::size_t tenants{0};  ///< tenants with attributed spend
  double total_usd{0.0};
  double spot_usd{0.0};
  double ondemand_usd{0.0};
  double cost_per_tenant_mean_usd{0.0};
  double cost_per_tenant_max_usd{0.0};
  double gpu_hours{0.0};
};

/// Rolls the manager's current state into one report.  Waits cover every
/// job that was placed at least once.
SchedReport build_report(const ClusterManager& manager);

/// Human-readable summary block (bench/demo output).
std::string to_text(const SchedReport& report);

}  // namespace sagesim::sched
