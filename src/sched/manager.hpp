// The multi-tenant cluster control plane: one ClusterManager owns a fleet
// of simulated instances (on-demand + spot slots) provisioned through
// cloudsim, admits jobs from registered tenants through IAM quota checks
// and budget-cap projection, orders the queue by weighted fair share with
// priority aging, gang-schedules multi-rank jobs all-or-nothing with EASY
// backfill behind a head-of-queue reservation, autoscales the fleet against
// demand, and routes spot reclaims through checkpoint-quantized preemption
// and restart.  Every instance-hour a job holds is billed to its tenant
// through the cloudsim::TenantLedger — the same ledger shape budget caps
// and the fig05 cost report read.
//
// Time is simulated (hours), advanced by advance_to(): the manager is a
// discrete-event simulator whose events are job completions, spot market
// transitions, budget cutoffs, and idle-node expiries.  Jobs with a real
// payload (JobSpec::work) execute that payload at the end of their service
// window on a dflow::Cluster bound to the gang's leased instances — so the
// control plane schedules the same code paths the labs run, and a preempted
// payload resumes from its checkpoint directory on the next attempt.
//
// Thread-safe: submits may race advance_to() from other threads; one lock
// serializes the control plane.  Job payloads run under that lock and must
// not call back into the manager.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cloudsim/cost.hpp"
#include "cloudsim/iam.hpp"
#include "cloudsim/provisioner.hpp"
#include "cloudsim/spot.hpp"
#include "gpusim/device_spec.hpp"
#include "runtime/status.hpp"
#include "sched/fair_share.hpp"
#include "sched/job.hpp"

namespace sagesim::sched {

/// A tenant of the control plane (one student, TA, or course service).
struct TenantConfig {
  std::string id;
  /// Fair-share weight (> 0); graduate/research tenants get more.
  double weight{1.0};
  /// Semester budget cap, USD; <= 0 means "use ManagerConfig default".
  double budget_usd{0.0};
  /// Quota role evaluated at admission; defaults to the course's
  /// student_role(id) (3 GPUs per request, 3 concurrent instances).
  std::optional<cloud::IamRole> role;
};

struct ManagerConfig {
  /// Catalog type every fleet node launches as (single-GPU; a gang of R
  /// ranks holds R nodes, the course's "cluster of up to three nodes").
  std::string node_type{"g4dn.xlarge"};
  /// Simulated-GPU spec payload clusters run on.
  gpu::DeviceSpec device_spec = gpu::spec::test_tiny();
  int min_nodes{2};   ///< floor kept warm
  int max_nodes{32};  ///< autoscale ceiling (incl. spot slots)
  /// Leading @p spot_nodes of the fleet are spot-market slots, billed at
  /// spot_discount * on-demand and subject to @p spot reclaims.
  int spot_nodes{0};
  double spot_discount{0.4};
  cloud::SpotFleetConfig spot;  ///< market trace; ignored when spot_nodes==0
  /// Idle nodes above min_nodes are released after this long (the paper's
  /// "terminate idle resources" scripts, fleet edition).
  double idle_scale_down_h{0.25};
  /// Simulated progress survives preemption in multiples of this quantum
  /// (the checkpoint cadence); 0 == preemption loses all progress.
  double checkpoint_quantum_h{0.25};
  /// Extra service time a restarted attempt pays (checkpoint reload).
  double restart_overhead_h{0.05};
  /// Admission multiplies a job's on-demand cost estimate by this margin
  /// before testing it against the tenant's remaining budget, covering
  /// preemption re-billing; the mid-job cutoff is the backstop.
  double admission_margin{1.25};
  /// Queue prefix considered per scheduling pass (EASY backfill window).
  int backfill_window{64};
  FairShareConfig fair_share;
  double default_budget_usd{100.0};  ///< the paper's $100/semester ceiling
};

/// Control-plane counters (monotonic over the manager's lifetime).
struct ManagerStats {
  std::size_t submitted{0};
  std::size_t admitted{0};
  std::size_t rejected_quota{0};   ///< IAM per-request / concurrent caps
  std::size_t rejected_budget{0};  ///< projected spend over the cap
  std::size_t completed{0};
  std::size_t killed{0};  ///< budget cutoff / cancellation
  std::size_t failed{0};  ///< payload terminal failure
  std::size_t preemptions{0};  ///< gangs torn down by spot reclaims
  std::size_t restarts{0};     ///< re-placements after preemption/retry
  std::size_t backfills{0};    ///< placements that jumped the blocked head
  std::size_t launches{0};     ///< fleet instances brought up
  std::size_t terminations{0};
  int peak_nodes{0};
  double busy_node_hours{0.0};
  double up_node_hours{0.0};

  /// Fleet utilization: busy node-hours over up node-hours.
  double utilization() const {
    return up_node_hours <= 0.0 ? 0.0 : busy_node_hours / up_node_hours;
  }
};

class ClusterManager {
 public:
  explicit ClusterManager(ManagerConfig config);
  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  // --- tenants -----------------------------------------------------------

  /// Registers a tenant; duplicate ids throw (API misuse).
  void register_tenant(TenantConfig config);
  void register_tenant(const std::string& id, double weight = 1.0,
                       double budget_usd = 0.0);
  std::size_t tenant_count() const;
  double budget_cap(const std::string& tenant) const;

  // --- job lifecycle -----------------------------------------------------

  /// Admits a job or rejects it with failures as values:
  ///  * unknown tenant            -> kFailedPrecondition
  ///  * malformed spec            -> kInvalidArgument (also: gang wider
  ///                                 than the fleet ceiling)
  ///  * IAM per-request cap       -> kResourceExhausted, non-retryable
  ///                                 (shrink the request)
  ///  * IAM concurrent cap        -> kResourceExhausted, *retryable*, with
  ///                                 a "retry after ~X.XXh" hint (see
  ///                                 suggested_retry_h)
  ///  * budget-cap projection     -> kResourceExhausted, non-retryable
  /// Admitted jobs are queued and placed by fair share; submission may
  /// place immediately.
  Expected<JobId> submit(JobSpec spec);

  /// Hint backing the retryable quota rejection: hours until the tenant's
  /// earliest running job frees capacity (a floor when nothing runs).
  double suggested_retry_h(const std::string& tenant) const;

  /// Advances simulated time, processing completions, spot-market events,
  /// budget cutoffs, idle scale-downs, and scheduling passes in event
  /// order.  Monotonic; going backwards throws.
  void advance_to(double t_h);

  /// Runs the clock until no job is queued or running; fails with
  /// kDeadlineExceeded if that takes more than @p horizon_h more hours.
  Status drain(double horizon_h = 24.0 * 365.0);

  // --- observation -------------------------------------------------------

  double now_h() const;
  JobRecord job(JobId id) const;  ///< copy; throws std::out_of_range
  std::vector<JobRecord> records() const;
  std::size_t queued_count() const;
  std::size_t running_count() const;
  int nodes_up() const;
  ManagerStats stats() const;
  const ManagerConfig& config() const { return config_; }

  /// Per-tenant lease billing (spot/on-demand split) — the single source
  /// of truth for attributed spend.
  cloud::TenantLedger tenant_ledger() const;

  /// Fleet-level control plane (instance ledger, clock).  The manager owns
  /// it; callers must not mutate behind the manager's back.
  const cloud::Provisioner& provisioner() const { return prov_; }

 private:
  struct Tenant {
    TenantConfig cfg;  ///< role engaged, budget resolved
    int queued_ranks{0};
    int running_ranks{0};
    /// Margin-inflated cost estimate of every non-terminal job, tested at
    /// admission against budget - committed spend.
    double projected_usd{0.0};
  };

  /// One fleet slot.  Indices [0, spot_nodes) are spot slots (index ==
  /// SpotFleet slot); the rest are on-demand.
  struct Node {
    std::string instance_id;  ///< empty while down
    bool up{false};
    JobId job{0};  ///< 0 == idle
    double idle_since_h{0.0};
    double rate_usd{0.0};
  };

  struct Running {
    JobId id{0};
    std::vector<int> nodes;  ///< gang node indices
    std::string lease_id;    ///< "lease-<job>-<attempt>"
    double start_h{0.0};
    double finish_h{0.0};
    double rate_usd{0.0};  ///< summed node rates
  };

  // Event loop (all private methods assume mutex_ held).
  void advance_locked(double t_h);
  void advance_clock(double to_h);
  void pump_spot(double to_h);
  void handle_spot(const cloud::SpotEvent& ev);
  double earliest_completion() const;
  double earliest_budget_cutoff() const;
  double earliest_idle_expiry() const;
  bool complete_due();
  bool enforce_budgets();
  bool expire_idle();

  // Scheduling.
  void schedule_pass();
  void autoscale_up();
  bool node_launchable(int idx) const;
  void bring_up_node(int idx);
  void take_down_node(int idx);
  void place_job(JobRecord& rec, const std::vector<int>& nodes);
  double remaining_h(const JobRecord& rec) const;

  // Lifecycle.
  void complete_job(JobRecord& rec, Running run);
  void preempt_job(JobRecord& rec, Running run, int lost_node);
  void release_lease(const JobRecord& rec, const Running& run);
  void finalize(JobRecord& rec, JobState state, Status status);
  Expected<double> run_payload(JobRecord& rec, const Running& run);

  // Billing / quota helpers.
  double cost_estimate_usd(const JobSpec& spec) const;
  double tenant_spend_now(const std::string& tenant) const;
  double suggested_retry_locked(const std::string& tenant) const;

  ManagerConfig config_;
  double ondemand_rate_{0.0};
  double spot_rate_{0.0};
  std::uint32_t gpus_per_node_{1};

  mutable std::mutex mutex_;
  double now_h_{0.0};
  JobId next_id_{1};

  cloud::Provisioner prov_;
  cloud::IamRole fleet_role_;
  std::optional<cloud::SpotFleet> spot_;
  std::deque<cloud::SpotEvent> pending_spot_;

  std::vector<Node> nodes_;
  std::map<std::string, Tenant> tenants_;
  std::map<JobId, JobRecord> jobs_;
  std::map<JobId, Running> running_;
  std::vector<JobId> queue_;
  FairShare fair_;
  cloud::TenantLedger ledger_;
  ManagerStats stats_;
};

}  // namespace sagesim::sched
