// The simulated control plane: launch/terminate instances under IAM policy
// and budget caps, advance simulated time, reap idle instances, and record
// every billable hour into a ledger — §III.A's infrastructure, including the
// "automated scripts designed to terminate idle resources".
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloudsim/iam.hpp"
#include "cloudsim/instance.hpp"
#include "cloudsim/vpc.hpp"
#include "runtime/status.hpp"

namespace sagesim::cloud {

/// One billed usage record (written at termination).
struct UsageRecord {
  std::string instance_id;
  std::string instance_type;
  std::string owner;
  std::string assessment;  ///< tag "Assessment" if present
  std::uint32_t gpu_count{0};
  double hours{0.0};
  double cost_usd{0.0};
  /// AWS Educate session: provided free of charge and invisible to the
  /// instructor's usage insights (Appendix A excludes these hours).
  bool educate{false};
  /// Billed at a spot rate (tag "Spot"); the tenant ledger splits spend on
  /// this bit.
  bool spot{false};
  /// Lease the instance served (tag "Lease") — empty for directly-owned
  /// instances; set by the sched control plane's fleet.
  std::string lease_id;
};

/// Per-owner budget cap; launches are denied once accrued + projected cost
/// would exceed it (the paper caps each student's usage per assessment and
/// offers a $100/semester ceiling).
struct BudgetCap {
  double limit_usd{100.0};
};

class Provisioner {
 public:
  Provisioner() = default;

  // --- simulated clock ----------------------------------------------------

  double now_h() const { return now_h_; }

  /// Advances simulated time; runs billing-visible effects (idle reaping if
  /// enabled).  @p hours must be >= 0.
  void advance_time(double hours);

  // --- instances ----------------------------------------------------------

  struct LaunchRequest {
    std::string type_name{};
    std::uint32_t count{1};
    std::string vpc_id{};      ///< empty = default VPC (created on demand)
    std::string subnet_id{};   ///< empty = first subnet of the VPC
    std::string assessment{};  ///< tag for cost attribution
    /// Launch through AWS Educate: free of charge, exempt from the budget
    /// cap, tagged so cost reports can exclude it (SIII.A.1).
    bool educate{false};
    /// Spot-market capacity: billed at @p spot_hourly_usd instead of the
    /// catalog's on-demand rate (must be > 0 when set), tagged "Spot" so
    /// the ledger splits spot from on-demand spend.  The interruption
    /// contract lives in SpotFleet; the provisioner only prices it.
    bool spot{false};
    double spot_hourly_usd{0.0};
    /// Lease tag for fleet instances serving multi-tenant workloads; the
    /// tenant ledger (cloudsim/cost) attributes spend through it.
    std::string lease_id{};
  };

  /// Launches instances under @p role with failures as values: budget
  /// denials are
  /// kResourceExhausted (retryable capacity story: free budget or wait),
  /// IAM/placement denials kFailedPrecondition, malformed requests
  /// kInvalidArgument.  The re-acquisition path of elastic training calls
  /// this in a retry loop rather than catching.  Returns instance ids.
  Expected<std::vector<std::string>> try_launch(const IamRole& role,
                                                const LaunchRequest& request);

  /// Terminates an instance (owner or instructor only) and writes its usage
  /// record.
  void terminate(const IamRole& role, const std::string& instance_id);

  /// Marks activity on an instance (keeps the idle reaper away).
  void touch(const std::string& instance_id);

  Instance& instance(const std::string& id);
  const Instance& instance(const std::string& id) const;

  /// All instances (any state).
  const std::vector<std::unique_ptr<Instance>>& instances() const {
    return instances_;
  }

  std::uint32_t running_count(const std::string& owner) const;

  // --- cost controls --------------------------------------------------------

  /// Sets the per-owner budget cap (applies to future launches).
  void set_budget_cap(const std::string& owner, BudgetCap cap);

  /// Total accrued cost for @p owner: completed records plus running
  /// instances priced to now.
  double accrued_cost(const std::string& owner) const;

  /// Enables the idle reaper: on every advance_time step, running instances
  /// idle longer than @p idle_threshold_h are terminated automatically.
  void enable_idle_reaper(double idle_threshold_h);

  /// Usage records written so far (terminated instances only).
  const std::vector<UsageRecord>& ledger() const { return ledger_; }

  /// Number of instances the idle reaper has terminated.
  std::size_t reaped_count() const { return reaped_; }

 private:
  /// Throwing body of try_launch (std::runtime_error carrying the denial
  /// reason); try_launch classifies the exceptions into Status codes.
  std::vector<std::string> launch_or_throw(const IamRole& role,
                                           const LaunchRequest& request);
  std::string next_instance_id();
  Vpc& default_vpc();
  void write_usage_record(const Instance& inst);
  void reap_idle();

  double now_h_{0.0};
  int next_id_{0};
  std::vector<std::unique_ptr<Vpc>> vpcs_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<UsageRecord> ledger_;
  std::map<std::string, BudgetCap> budgets_;
  std::optional<double> idle_threshold_h_;
  std::size_t reaped_{0};
};

}  // namespace sagesim::cloud
