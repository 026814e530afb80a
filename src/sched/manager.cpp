#include "sched/manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cloudsim/instance_type.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_manager.hpp"

namespace sagesim::sched {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kBudgetEps = 1e-6;

std::string job_label(JobId id) { return "job-" + std::to_string(id); }

}  // namespace

ClusterManager::ClusterManager(ManagerConfig config)
    : config_(std::move(config)), fleet_role_(cloud::instructor_role()) {
  if (config_.max_nodes < 1)
    throw std::invalid_argument("ClusterManager: max_nodes must be >= 1");
  if (config_.min_nodes < 0 || config_.min_nodes > config_.max_nodes)
    throw std::invalid_argument(
        "ClusterManager: min_nodes must be in [0, max_nodes]");
  if (config_.spot_nodes < 0 || config_.spot_nodes > config_.max_nodes)
    throw std::invalid_argument(
        "ClusterManager: spot_nodes must be in [0, max_nodes]");
  if (config_.spot_discount <= 0.0 || config_.spot_discount > 1.0)
    throw std::invalid_argument(
        "ClusterManager: spot_discount must be in (0, 1]");

  const cloud::InstanceType& type = cloud::catalog::by_name(config_.node_type);
  ondemand_rate_ = type.hourly_usd;
  spot_rate_ = config_.spot_discount * ondemand_rate_;
  gpus_per_node_ = std::max<std::uint32_t>(type.gpu_count, 1);

  nodes_.resize(static_cast<std::size_t>(config_.max_nodes));
  if (config_.spot_nodes > 0)
    spot_.emplace(config_.spot_nodes, config_.spot);

  std::lock_guard lock(mutex_);
  autoscale_up();  // warm the min_nodes floor
}

// --- tenants -------------------------------------------------------------

void ClusterManager::register_tenant(TenantConfig config) {
  if (config.id.empty())
    throw std::invalid_argument("register_tenant: empty tenant id");
  std::lock_guard lock(mutex_);
  if (tenants_.count(config.id))
    throw std::invalid_argument("register_tenant: duplicate tenant " +
                                config.id);
  if (config.budget_usd <= 0.0) config.budget_usd = config_.default_budget_usd;
  if (!config.role) config.role = cloud::student_role(config.id);
  fair_.set_weight(config.id, config.weight);
  Tenant t;
  t.cfg = std::move(config);
  tenants_.emplace(t.cfg.id, std::move(t));
}

void ClusterManager::register_tenant(const std::string& id, double weight,
                                     double budget_usd) {
  TenantConfig cfg;
  cfg.id = id;
  cfg.weight = weight;
  cfg.budget_usd = budget_usd;
  register_tenant(std::move(cfg));
}

std::size_t ClusterManager::tenant_count() const {
  std::lock_guard lock(mutex_);
  return tenants_.size();
}

double ClusterManager::budget_cap(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end())
    throw std::out_of_range("budget_cap: unknown tenant " + tenant);
  return it->second.cfg.budget_usd;
}

// --- admission -----------------------------------------------------------

double ClusterManager::cost_estimate_usd(const JobSpec& spec) const {
  return static_cast<double>(spec.ranks) * spec.service_h * ondemand_rate_;
}

double ClusterManager::tenant_spend_now(const std::string& tenant) const {
  double spend = ledger_.spend(tenant);
  for (const auto& [id, run] : running_) {
    auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.spec.tenant == tenant)
      spend += (now_h_ - run.start_h) * run.rate_usd;
  }
  return spend;
}

double ClusterManager::suggested_retry_locked(const std::string& tenant) const {
  double best = kInf;
  for (const auto& [id, run] : running_) {
    auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.spec.tenant == tenant)
      best = std::min(best, run.finish_h - now_h_);
  }
  if (!std::isfinite(best)) best = 0.25;  // nothing running: short backoff
  return std::max(best, 0.05);
}

double ClusterManager::suggested_retry_h(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  return suggested_retry_locked(tenant);
}

Expected<JobId> ClusterManager::submit(JobSpec spec) {
  std::lock_guard lock(mutex_);
  ++stats_.submitted;

  auto it = tenants_.find(spec.tenant);
  if (it == tenants_.end())
    return Status::failed_precondition("submit: unknown tenant '" +
                                       spec.tenant +
                                       "'; register_tenant first");
  Tenant& tenant = it->second;

  if (spec.ranks < 1)
    return Status::invalid_argument("submit: ranks must be >= 1");
  if (!(spec.service_h > 0.0))
    return Status::invalid_argument("submit: service_h must be > 0");
  if (spec.ranks > config_.max_nodes)
    return Status::invalid_argument(
        "submit: gang of " + std::to_string(spec.ranks) +
        " ranks exceeds the fleet ceiling of " +
        std::to_string(config_.max_nodes) + " nodes");

  // IAM quota: evaluate the per-request cap in isolation first so the
  // caller can tell "shrink the request" (permanent) from "wait for your
  // jobs to finish" (retryable).
  const cloud::IamRole& role = *tenant.cfg.role;
  const auto ranks = static_cast<std::uint32_t>(spec.ranks);
  cloud::Decision per_request =
      role.evaluate(cloud::Action::kRunInstances, ranks, 0);
  if (!per_request.allowed) {
    ++stats_.rejected_quota;
    return Status::resource_exhausted("quota: " + per_request.reason +
                                      "; reduce the request");
  }
  const auto outstanding =
      static_cast<std::uint32_t>(tenant.queued_ranks + tenant.running_ranks);
  cloud::Decision concurrent =
      role.evaluate(cloud::Action::kRunInstances, ranks, outstanding);
  if (!concurrent.allowed) {
    ++stats_.rejected_quota;
    char hint[64];
    std::snprintf(hint, sizeof(hint), "; retry after ~%.2fh",
                  suggested_retry_locked(spec.tenant));
    return Status::error(ErrorCode::kResourceExhausted,
                         "quota: " + concurrent.reason + hint,
                         /*retryable=*/true);
  }

  // Budget projection: committed spend plus the margin-inflated estimate
  // of every outstanding job must stay under the cap, so admitted jobs do
  // not rely on the mid-job cutoff in normal operation.
  const double estimate = config_.admission_margin * cost_estimate_usd(spec);
  const double committed = tenant_spend_now(spec.tenant);
  const double projected = committed + tenant.projected_usd + estimate;
  if (projected > tenant.cfg.budget_usd + kBudgetEps) {
    ++stats_.rejected_budget;
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "budget: projected spend $%.2f exceeds %s's cap of $%.2f",
                  projected, spec.tenant.c_str(), tenant.cfg.budget_usd);
    return Status::resource_exhausted(msg);
  }

  const JobId id = next_id_++;
  JobRecord rec;
  rec.id = id;
  if (spec.name.empty()) spec.name = job_label(id);
  rec.spec = std::move(spec);
  rec.submit_h = now_h_;
  tenant.queued_ranks += rec.spec.ranks;
  tenant.projected_usd += estimate;
  jobs_.emplace(id, std::move(rec));
  queue_.push_back(id);
  ++stats_.admitted;
  schedule_pass();
  return id;
}

// --- fleet ---------------------------------------------------------------

bool ClusterManager::node_launchable(int idx) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.up) return false;
  if (idx < config_.spot_nodes)
    return spot_->slot_state(idx) == cloud::SpotSlotState::kHeld;
  return true;
}

void ClusterManager::bring_up_node(int idx) {
  Node& node = nodes_[static_cast<std::size_t>(idx)];
  const bool is_spot = idx < config_.spot_nodes;
  cloud::Provisioner::LaunchRequest req;
  req.type_name = config_.node_type;
  req.count = 1;
  req.assessment = "fleet";
  req.lease_id = "fleet-node-" + std::to_string(idx);
  if (is_spot) {
    req.spot = true;
    req.spot_hourly_usd = spot_rate_;
  }
  auto ids = prov_.try_launch(fleet_role_, req);
  if (!ids)  // instructor role, no cap: failure here is a manager bug
    throw std::logic_error("ClusterManager: fleet launch failed: " +
                           ids.status().to_string());
  node.instance_id = ids->front();
  node.up = true;
  node.job = 0;
  node.idle_since_h = now_h_;
  node.rate_usd = is_spot ? spot_rate_ : ondemand_rate_;
  ++stats_.launches;
}

void ClusterManager::take_down_node(int idx) {
  Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (!node.instance_id.empty())
    prov_.terminate(fleet_role_, node.instance_id);
  node.instance_id.clear();
  node.up = false;
  node.job = 0;
  ++stats_.terminations;
}

void ClusterManager::autoscale_up() {
  int demand = 0;
  for (const auto& [id, run] : running_)
    demand += static_cast<int>(run.nodes.size());
  for (JobId id : queue_) demand += jobs_.at(id).spec.ranks;
  const int target =
      std::clamp(demand, config_.min_nodes, config_.max_nodes);
  int up = 0;
  for (const Node& n : nodes_) up += n.up ? 1 : 0;
  // Cheap capacity first: held spot slots, then on-demand.
  for (int pass = 0; pass < 2 && up < target; ++pass) {
    const bool want_spot = pass == 0;
    for (int i = 0; i < config_.max_nodes && up < target; ++i) {
      if ((i < config_.spot_nodes) != want_spot) continue;
      if (!node_launchable(i)) continue;
      bring_up_node(i);
      ++up;
    }
  }
  stats_.peak_nodes = std::max(stats_.peak_nodes, up);
}

// --- scheduling ----------------------------------------------------------

double ClusterManager::remaining_h(const JobRecord& rec) const {
  double rem = std::max(rec.spec.service_h - rec.done_h, 1e-6);
  if (rec.first_start_h >= 0.0) rem += config_.restart_overhead_h;
  return rem;
}

void ClusterManager::place_job(JobRecord& rec, const std::vector<int>& nodes) {
  Running run;
  run.id = rec.id;
  run.nodes = nodes;
  run.start_h = now_h_;
  run.finish_h = now_h_ + remaining_h(rec);
  for (int n : nodes) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.job = rec.id;
    run.rate_usd += node.rate_usd;
  }
  if (rec.first_start_h < 0.0) {
    rec.first_start_h = now_h_;
  } else {
    ++rec.restarts;
    ++stats_.restarts;
  }
  run.lease_id =
      "lease-" + std::to_string(rec.id) + "-" + std::to_string(rec.restarts);
  rec.state = JobState::kRunning;
  Tenant& tenant = tenants_.at(rec.spec.tenant);
  tenant.queued_ranks -= rec.spec.ranks;
  tenant.running_ranks += rec.spec.ranks;
  running_.emplace(rec.id, std::move(run));
}

void ClusterManager::schedule_pass() {
  autoscale_up();
  if (queue_.empty()) return;

  std::vector<int> idle_od, idle_spot;
  for (int i = 0; i < config_.max_nodes; ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (!n.up || n.job != 0) continue;
    (i < config_.spot_nodes ? idle_spot : idle_od).push_back(i);
  }
  std::size_t idle = idle_od.size() + idle_spot.size();
  if (idle == 0) return;

  // Queue order: effective class (priority minus aging), then fair-share
  // score, then FIFO.  Only the best backfill_window candidates are
  // considered per pass, keeping passes O(Q) at semester scale.
  struct Cand {
    JobId id{0};
    double cls{0.0};
    double share{0.0};
    double submit{0.0};
  };
  std::map<std::string, double> share_cache;
  std::vector<Cand> cands;
  cands.reserve(queue_.size());
  const double aging_h = std::max(config_.fair_share.aging_h, 1e-6);
  for (JobId id : queue_) {
    const JobRecord& rec = jobs_.at(id);
    auto [sit, inserted] = share_cache.try_emplace(rec.spec.tenant, 0.0);
    if (inserted) sit->second = fair_.share_score(rec.spec.tenant, now_h_);
    Cand c;
    c.id = id;
    c.cls = std::max(0.0, static_cast<double>(rec.spec.priority) -
                              (now_h_ - rec.submit_h) / aging_h);
    c.share = sit->second;
    c.submit = rec.submit_h;
    cands.push_back(c);
  }
  auto better = [](const Cand& a, const Cand& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.share != b.share) return a.share < b.share;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  };
  const std::size_t window = std::min(
      cands.size(), static_cast<std::size_t>(
                        std::max(config_.backfill_window, 1)));
  if (window < cands.size())
    std::nth_element(cands.begin(),
                     cands.begin() + static_cast<std::ptrdiff_t>(window),
                     cands.end(), better);
  std::sort(cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(window),
            better);

  // EASY backfill: place in order until a job does not fit; that job
  // becomes the head and earns a reservation (shadow time + extra nodes);
  // later candidates place only if they cannot delay the head.
  auto take_nodes = [&](int ranks, bool prefer_spot) {
    std::vector<int> taken;
    taken.reserve(static_cast<std::size_t>(ranks));
    auto* first = prefer_spot ? &idle_spot : &idle_od;
    auto* second = prefer_spot ? &idle_od : &idle_spot;
    for (auto* pool : {first, second}) {
      while (!pool->empty() && static_cast<int>(taken.size()) < ranks) {
        taken.push_back(pool->back());
        pool->pop_back();
      }
    }
    return taken;
  };

  bool head_blocked = false;
  double shadow = kInf;
  std::size_t extra = 0;
  std::vector<JobId> placed;
  for (std::size_t ci = 0; ci < window; ++ci) {
    JobRecord& rec = jobs_.at(cands[ci].id);
    const auto ranks = static_cast<std::size_t>(rec.spec.ranks);
    if (!head_blocked) {
      if (ranks > idle) {
        // Head-of-queue reservation: when will enough nodes be free?
        head_blocked = true;
        std::vector<std::pair<double, std::size_t>> finishing;
        finishing.reserve(running_.size());
        for (const auto& [id, run] : running_)
          finishing.emplace_back(run.finish_h, run.nodes.size());
        std::sort(finishing.begin(), finishing.end());
        std::size_t cum = idle;
        shadow = kInf;
        extra = idle;  // no shadow reachable: plain fit-in-idle backfill
        for (const auto& [finish, width] : finishing) {
          cum += width;
          if (cum >= ranks) {
            shadow = finish;
            extra = cum - ranks;
            break;
          }
        }
        continue;
      }
    } else {
      const bool fits_now = ranks <= idle;
      const bool by_shadow = now_h_ + remaining_h(rec) <= shadow + kEps;
      const bool by_extra = ranks <= extra;
      if (!fits_now || (!by_shadow && !by_extra)) continue;
      if (!by_shadow) extra -= ranks;
      if (rec.first_start_h < 0.0) rec.backfilled = true;
      ++stats_.backfills;
    }
    const bool prefer_spot = rec.spec.ranks == 1;  // gangs avoid spot churn
    place_job(rec, take_nodes(rec.spec.ranks, prefer_spot));
    idle -= ranks;
    placed.push_back(rec.id);
    if (idle == 0 && !head_blocked) break;
  }

  if (!placed.empty()) {
    auto is_placed = [&](JobId id) {
      return std::find(placed.begin(), placed.end(), id) != placed.end();
    };
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), is_placed),
                 queue_.end());
  }
}

// --- billing -------------------------------------------------------------

void ClusterManager::release_lease(const JobRecord& rec, const Running& run) {
  const double hours = now_h_ - run.start_h;
  if (hours <= 1e-12) return;
  double spot_nodes = 0.0, od_nodes = 0.0;
  for (int n : run.nodes)
    (n < config_.spot_nodes ? spot_nodes : od_nodes) += 1.0;
  double billed = 0.0, gpu_hours = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool is_spot = pass == 0;
    const double width = is_spot ? spot_nodes : od_nodes;
    if (width <= 0.0) continue;
    cloud::LeaseRecord lr;
    lr.lease_id = run.lease_id;
    lr.tenant = rec.spec.tenant;
    lr.job_id = job_label(rec.id);
    lr.instance_type = config_.node_type;
    lr.start_h = run.start_h;
    lr.end_h = now_h_;
    lr.gpu_hours = width * hours * gpus_per_node_;
    lr.cost_usd = width * hours * (is_spot ? spot_rate_ : ondemand_rate_);
    lr.spot = is_spot;
    billed += lr.cost_usd;
    gpu_hours += lr.gpu_hours;
    ledger_.add(std::move(lr));
  }
  jobs_.at(rec.id).billed_usd += billed;
  fair_.charge(rec.spec.tenant, gpu_hours, now_h_);
}

void ClusterManager::finalize(JobRecord& rec, JobState state, Status status) {
  rec.state = state;
  rec.final_status = std::move(status);
  rec.end_h = now_h_;
  Tenant& tenant = tenants_.at(rec.spec.tenant);
  tenant.projected_usd = std::max(
      0.0, tenant.projected_usd -
               config_.admission_margin * cost_estimate_usd(rec.spec));
  switch (state) {
    case JobState::kCompleted:
      ++stats_.completed;
      break;
    case JobState::kKilled:
      ++stats_.killed;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      break;
    default:
      break;
  }
}

// --- lifecycle -----------------------------------------------------------

Expected<double> ClusterManager::run_payload(JobRecord& rec,
                                             const Running& run) {
  std::vector<std::string> instance_ids;
  instance_ids.reserve(run.nodes.size());
  for (int n : run.nodes)
    instance_ids.push_back(nodes_[static_cast<std::size_t>(n)].instance_id);
  gpu::DeviceManager devices(static_cast<std::size_t>(rec.spec.ranks),
                             config_.device_spec);
  runtime::JobControl control;
  dflow::ClusterOptions opts;
  opts.lease = dflow::LeaseBinding{run.lease_id, std::move(instance_ids)};
  opts.control = &control;
  dflow::Cluster cluster(devices, std::move(opts));
  JobContext ctx;
  ctx.id = rec.id;
  ctx.attempt = rec.restarts;
  ctx.cluster = &cluster;
  ctx.control = &control;
  ctx.spec = &rec.spec;
  try {
    return rec.spec.work(ctx);
  } catch (...) {
    return Status::from_exception(std::current_exception());
  }
}

void ClusterManager::complete_job(JobRecord& rec, Running run) {
  Expected<double> outcome{0.0};
  if (rec.spec.work) outcome = run_payload(rec, run);
  release_lease(rec, run);
  for (int n : run.nodes) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.up && node.job == rec.id) {
      node.job = 0;
      node.idle_since_h = now_h_;
    }
  }
  Tenant& tenant = tenants_.at(rec.spec.tenant);
  tenant.running_ranks -= rec.spec.ranks;
  if (outcome) {
    rec.done_h = rec.spec.service_h;
    rec.payload_result = *outcome;
    finalize(rec, JobState::kCompleted, Status{});
  } else if (outcome.status().retryable() &&
             rec.restarts + 1 < rec.spec.max_attempts) {
    // Restart path: the payload failed retryably (e.g. a mid-training
    // preemption); the next attempt resumes from its checkpoint_dir.
    rec.done_h = 0.0;
    rec.state = JobState::kQueued;
    tenant.queued_ranks += rec.spec.ranks;
    queue_.push_back(rec.id);
  } else {
    finalize(rec, JobState::kFailed, outcome.status());
  }
}

void ClusterManager::preempt_job(JobRecord& rec, Running run, int lost_node) {
  release_lease(rec, run);
  for (int n : run.nodes) {
    if (n == lost_node) continue;
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.up && node.job == rec.id) {
      node.job = 0;
      node.idle_since_h = now_h_;
    }
  }
  // Progress survives only at checkpoint granularity.
  const double q = config_.checkpoint_quantum_h;
  const double ran = now_h_ - run.start_h;
  const double kept = q > 0.0 ? std::floor(ran / q) * q : 0.0;
  rec.done_h = std::min(rec.spec.service_h, rec.done_h + kept);
  ++rec.preemptions;
  ++stats_.preemptions;
  rec.state = JobState::kQueued;
  Tenant& tenant = tenants_.at(rec.spec.tenant);
  tenant.running_ranks -= rec.spec.ranks;
  tenant.queued_ranks += rec.spec.ranks;
  queue_.push_back(rec.id);
}

// --- event loop ----------------------------------------------------------

void ClusterManager::advance_clock(double to_h) {
  const double dt = to_h - now_h_;
  if (dt <= 0.0) return;
  int up = 0, busy = 0;
  for (const Node& n : nodes_) {
    up += n.up ? 1 : 0;
    busy += (n.up && n.job != 0) ? 1 : 0;
  }
  stats_.up_node_hours += up * dt;
  stats_.busy_node_hours += busy * dt;
  prov_.advance_time(dt);
  now_h_ = to_h;
}

void ClusterManager::pump_spot(double to_h) {
  if (!spot_ || to_h <= spot_->now_h()) return;
  auto events = spot_->advance(to_h);
  if (!events)
    throw std::logic_error("ClusterManager: spot advance failed: " +
                           events.status().to_string());
  for (auto& ev : *events) pending_spot_.push_back(ev);
}

void ClusterManager::handle_spot(const cloud::SpotEvent& ev) {
  if (ev.state != cloud::SpotSlotState::kReclaimed) return;
  // kNoticed is the checkpoint window (modeled by checkpoint_quantum_h);
  // kHeld re-acquisitions are picked up by the next autoscale pass.
  Node& node = nodes_[static_cast<std::size_t>(ev.slot)];
  if (!node.up) return;
  const JobId victim = node.job;
  take_down_node(ev.slot);
  if (victim == 0) return;
  auto rit = running_.find(victim);
  if (rit == running_.end()) return;
  Running run = std::move(rit->second);
  running_.erase(rit);
  preempt_job(jobs_.at(victim), std::move(run), ev.slot);
}

double ClusterManager::earliest_completion() const {
  double best = kInf;
  for (const auto& [id, run] : running_) best = std::min(best, run.finish_h);
  return best;
}

double ClusterManager::earliest_budget_cutoff() const {
  std::map<std::string, std::pair<double, double>> by_tenant;  // rate, accrued
  for (const auto& [id, run] : running_) {
    const JobRecord& rec = jobs_.at(id);
    auto& [rate, accrued] = by_tenant[rec.spec.tenant];
    rate += run.rate_usd;
    accrued += (now_h_ - run.start_h) * run.rate_usd;
  }
  double best = kInf;
  for (const auto& [tenant, ra] : by_tenant) {
    const auto& [rate, accrued] = ra;
    if (rate <= 0.0) continue;
    const double cap = tenants_.at(tenant).cfg.budget_usd;
    const double spend = ledger_.spend(tenant) + accrued;
    if (spend >= cap - kBudgetEps) return now_h_;
    best = std::min(best, now_h_ + (cap - spend) / rate);
  }
  return best;
}

double ClusterManager::earliest_idle_expiry() const {
  if (!queue_.empty()) return kInf;
  int up = 0;
  for (const Node& n : nodes_) up += n.up ? 1 : 0;
  if (up <= config_.min_nodes) return kInf;
  double best = kInf;
  for (const Node& n : nodes_)
    if (n.up && n.job == 0)
      best = std::min(best, n.idle_since_h + config_.idle_scale_down_h);
  return best;
}

bool ClusterManager::complete_due() {
  std::vector<JobId> due;
  for (const auto& [id, run] : running_)
    if (run.finish_h <= now_h_ + kEps) due.push_back(id);
  for (JobId id : due) {
    auto rit = running_.find(id);
    Running run = std::move(rit->second);
    running_.erase(rit);
    complete_job(jobs_.at(id), std::move(run));
  }
  return !due.empty();
}

bool ClusterManager::enforce_budgets() {
  std::map<std::string, double> accrued;
  for (const auto& [id, run] : running_)
    accrued[jobs_.at(id).spec.tenant] += (now_h_ - run.start_h) * run.rate_usd;
  std::vector<std::string> over;
  for (const auto& [tenant, extra] : accrued) {
    const double cap = tenants_.at(tenant).cfg.budget_usd;
    if (ledger_.spend(tenant) + extra >= cap - kBudgetEps)
      over.push_back(tenant);
  }
  if (over.empty()) return false;
  for (const std::string& tenant : over) {
    char msg[128];
    std::snprintf(msg, sizeof(msg), "budget cap of $%.2f exhausted",
                  tenants_.at(tenant).cfg.budget_usd);
    const Status cut = Status::resource_exhausted(msg);
    // Stop the bleed: kill the tenant's running jobs (billing up to now)...
    std::vector<JobId> victims;
    for (const auto& [id, run] : running_)
      if (jobs_.at(id).spec.tenant == tenant) victims.push_back(id);
    for (JobId id : victims) {
      auto rit = running_.find(id);
      Running run = std::move(rit->second);
      running_.erase(rit);
      JobRecord& rec = jobs_.at(id);
      release_lease(rec, run);
      for (int n : run.nodes) {
        Node& node = nodes_[static_cast<std::size_t>(n)];
        if (node.up && node.job == id) {
          node.job = 0;
          node.idle_since_h = now_h_;
        }
      }
      tenants_.at(tenant).running_ranks -= rec.spec.ranks;
      finalize(rec, JobState::kKilled, cut);
    }
    // ...and fail its queued jobs instead of letting them sit forever.
    std::vector<JobId> queued;
    for (JobId id : queue_)
      if (jobs_.at(id).spec.tenant == tenant) queued.push_back(id);
    for (JobId id : queued) {
      JobRecord& rec = jobs_.at(id);
      tenants_.at(tenant).queued_ranks -= rec.spec.ranks;
      finalize(rec, JobState::kKilled, cut);
    }
    auto is_dead = [&](JobId id) {
      return std::find(queued.begin(), queued.end(), id) != queued.end();
    };
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), is_dead),
                 queue_.end());
  }
  return true;
}

bool ClusterManager::expire_idle() {
  if (!queue_.empty()) return false;
  int up = 0;
  for (const Node& n : nodes_) up += n.up ? 1 : 0;
  bool acted = false;
  for (int i = 0; i < config_.max_nodes && up > config_.min_nodes; ++i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    if (!n.up || n.job != 0) continue;
    if (now_h_ - n.idle_since_h + kEps < config_.idle_scale_down_h) continue;
    take_down_node(i);
    --up;
    acted = true;
  }
  return acted;
}

void ClusterManager::advance_locked(double t_h) {
  if (t_h < now_h_ - kEps)
    throw std::invalid_argument("advance_to: simulated time is monotonic");
  schedule_pass();
  while (true) {
    double t_next = std::min(
        {t_h, earliest_completion(), earliest_budget_cutoff(),
         earliest_idle_expiry()});
    t_next = std::max(t_next, now_h_);
    pump_spot(t_next);
    if (!pending_spot_.empty() &&
        pending_spot_.front().time_h <= t_next + kEps) {
      const cloud::SpotEvent ev = pending_spot_.front();
      pending_spot_.pop_front();
      advance_clock(std::max(now_h_, ev.time_h));
      handle_spot(ev);
      schedule_pass();
      continue;
    }
    advance_clock(t_next);
    bool acted = false;
    acted = complete_due() || acted;
    acted = enforce_budgets() || acted;
    acted = expire_idle() || acted;
    if (acted) {
      schedule_pass();
      continue;
    }
    if (t_next >= t_h - kEps) break;
  }
}

void ClusterManager::advance_to(double t_h) {
  std::lock_guard lock(mutex_);
  advance_locked(t_h);
}

Status ClusterManager::drain(double horizon_h) {
  const double deadline = now_h() + horizon_h;
  while (true) {
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty() && running_.empty()) return {};
      if (now_h_ >= deadline)
        return Status::deadline_exceeded(
            "drain: " + std::to_string(queue_.size()) + " queued / " +
            std::to_string(running_.size()) +
            " running jobs left at the horizon");
    }
    advance_to(std::min(now_h() + 6.0, deadline));
  }
}

// --- observation ---------------------------------------------------------

double ClusterManager::now_h() const {
  std::lock_guard lock(mutex_);
  return now_h_;
}

JobRecord ClusterManager::job(JobId id) const {
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("job: unknown id " + std::to_string(id));
  return it->second;
}

std::vector<JobRecord> ClusterManager::records() const {
  std::lock_guard lock(mutex_);
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) out.push_back(rec);
  return out;
}

std::size_t ClusterManager::queued_count() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t ClusterManager::running_count() const {
  std::lock_guard lock(mutex_);
  return running_.size();
}

int ClusterManager::nodes_up() const {
  std::lock_guard lock(mutex_);
  int up = 0;
  for (const Node& n : nodes_) up += n.up ? 1 : 0;
  return up;
}

ManagerStats ClusterManager::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

cloud::TenantLedger ClusterManager::tenant_ledger() const {
  std::lock_guard lock(mutex_);
  return ledger_;
}

}  // namespace sagesim::sched
