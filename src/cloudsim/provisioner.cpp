#include "cloudsim/provisioner.hpp"

#include <stdexcept>

namespace sagesim::cloud {

void Provisioner::advance_time(double hours) {
  if (hours < 0.0)
    throw std::invalid_argument("advance_time: hours must be >= 0");
  now_h_ += hours;
  if (idle_threshold_h_) reap_idle();
}

Vpc& Provisioner::default_vpc() {
  if (vpcs_.empty()) {
    vpcs_.push_back(
        std::make_unique<Vpc>("vpc-default", Cidr::parse("10.0.0.0/16")));
    // A /17 default subnet: semester-long simulations launch thousands of
    // instances and addresses are never recycled.
    vpcs_.back()->create_subnet("10.0.0.0/17", "us-east-1a");
  }
  return *vpcs_.front();
}

std::string Provisioner::next_instance_id() {
  return "i-" + std::to_string(1000 + next_id_++);
}

std::vector<std::string> Provisioner::launch_or_throw(
    const IamRole& role, const LaunchRequest& request) {
  if (request.count == 0)
    throw std::invalid_argument("launch: count must be >= 1");
  if (request.spot && request.spot_hourly_usd <= 0.0)
    throw std::invalid_argument("launch: spot requests need spot_hourly_usd > 0");
  InstanceType type = catalog::by_name(request.type_name);
  if (request.spot) type.hourly_usd = request.spot_hourly_usd;

  const std::uint32_t requested_gpus = type.gpu_count * request.count;
  const std::string owner = role.name();
  const Decision d = role.evaluate(Action::kRunInstances, requested_gpus,
                                   running_count(owner));
  if (!d.allowed) throw std::runtime_error(d.reason);

  // Budget check: accrued + one hour of the new instances must fit.
  // Educate sessions are free and therefore exempt.
  if (auto it = budgets_.find(owner);
      it != budgets_.end() && !request.educate) {
    const double projected = accrued_cost(owner) +
                             type.hourly_usd * static_cast<double>(request.count);
    if (projected > it->second.limit_usd)
      throw std::runtime_error(
          owner + ": budget cap $" + std::to_string(it->second.limit_usd) +
          " would be exceeded (projected $" + std::to_string(projected) + ")");
  }

  // Resolve placement.
  Vpc& vpc = [&]() -> Vpc& {
    if (request.vpc_id.empty()) return default_vpc();
    for (auto& v : vpcs_)
      if (v->id() == request.vpc_id) return *v;
    throw std::invalid_argument("launch: unknown VPC " + request.vpc_id);
  }();
  if (vpc.subnets().empty())
    throw std::runtime_error("launch: VPC " + vpc.id() + " has no subnets");
  Subnet& subnet = request.subnet_id.empty() ? *vpc.subnets().front()
                                             : vpc.subnet(request.subnet_id);

  std::vector<std::string> ids;
  ids.reserve(request.count);
  for (std::uint32_t i = 0; i < request.count; ++i) {
    auto inst = std::make_unique<Instance>(
        next_instance_id(), type, owner, subnet.allocate_address(),
        subnet.id(), now_h_);
    if (!request.assessment.empty())
      inst->set_tag("Assessment", request.assessment);
    if (request.educate) inst->set_tag("Educate", "true");
    if (request.spot) inst->set_tag("Spot", "true");
    if (!request.lease_id.empty()) inst->set_tag("Lease", request.lease_id);
    inst->mark_running(now_h_);
    ids.push_back(inst->id());
    instances_.push_back(std::move(inst));
  }
  return ids;
}

Expected<std::vector<std::string>> Provisioner::try_launch(
    const IamRole& role, const LaunchRequest& request) {
  try {
    return launch_or_throw(role, request);
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (what.find("budget cap") != std::string::npos)
      return Status::error(ErrorCode::kResourceExhausted, what,
                           /*retryable=*/true);  // free budget, then retry
    return Status::failed_precondition(what);
  }
}

Instance& Provisioner::instance(const std::string& id) {
  for (auto& i : instances_)
    if (i->id() == id) return *i;
  throw std::invalid_argument("unknown instance " + id);
}

const Instance& Provisioner::instance(const std::string& id) const {
  for (const auto& i : instances_)
    if (i->id() == id) return *i;
  throw std::invalid_argument("unknown instance " + id);
}

void Provisioner::write_usage_record(const Instance& inst) {
  UsageRecord rec;
  rec.instance_id = inst.id();
  rec.instance_type = inst.type().name;
  rec.owner = inst.owner();
  if (auto it = inst.tags().find("Assessment"); it != inst.tags().end())
    rec.assessment = it->second;
  rec.gpu_count = inst.type().gpu_count;
  rec.hours = inst.billable_hours(now_h_);
  rec.educate = inst.tags().contains("Educate");
  rec.spot = inst.tags().contains("Spot");
  if (auto it = inst.tags().find("Lease"); it != inst.tags().end())
    rec.lease_id = it->second;
  rec.cost_usd = rec.educate ? 0.0 : inst.accrued_cost(now_h_);
  ledger_.push_back(std::move(rec));
}

void Provisioner::terminate(const IamRole& role,
                            const std::string& instance_id) {
  Instance& inst = instance(instance_id);
  if (inst.owner() != role.name() && role.name() != "instructor") {
    throw std::runtime_error(role.name() + ": cannot terminate " +
                             instance_id + " owned by " + inst.owner());
  }
  const Decision d = role.evaluate(Action::kTerminateInstances);
  if (!d.allowed) throw std::runtime_error(d.reason);
  inst.mark_terminated(now_h_);
  write_usage_record(inst);
}

void Provisioner::touch(const std::string& instance_id) {
  instance(instance_id).touch(now_h_);
}

std::uint32_t Provisioner::running_count(const std::string& owner) const {
  std::uint32_t n = 0;
  for (const auto& i : instances_)
    if (i->state() == InstanceState::kRunning && i->owner() == owner) ++n;
  return n;
}

void Provisioner::set_budget_cap(const std::string& owner, BudgetCap cap) {
  budgets_[owner] = cap;
}

double Provisioner::accrued_cost(const std::string& owner) const {
  double total = 0.0;
  for (const auto& rec : ledger_)
    if (rec.owner == owner) total += rec.cost_usd;
  for (const auto& i : instances_)
    if (i->state() == InstanceState::kRunning && i->owner() == owner &&
        !i->tags().contains("Educate"))
      total += i->accrued_cost(now_h_);
  return total;
}

void Provisioner::enable_idle_reaper(double idle_threshold_h) {
  if (idle_threshold_h <= 0.0)
    throw std::invalid_argument("enable_idle_reaper: threshold must be > 0");
  idle_threshold_h_ = idle_threshold_h;
}

void Provisioner::reap_idle() {
  for (auto& i : instances_) {
    if (i->state() == InstanceState::kRunning &&
        i->idle_hours(now_h_) >= *idle_threshold_h_) {
      // Bill only through the moment the instance went idle past threshold:
      // the reaper fires at (last activity + threshold), not at observation.
      const double reap_time = i->last_activity_h() + *idle_threshold_h_;
      i->mark_terminated(reap_time < now_h_ ? reap_time : now_h_);
      // Temporarily price with the reap timestamp.
      UsageRecord rec;
      rec.instance_id = i->id();
      rec.instance_type = i->type().name;
      rec.owner = i->owner();
      if (auto it = i->tags().find("Assessment"); it != i->tags().end())
        rec.assessment = it->second;
      rec.gpu_count = i->type().gpu_count;
      rec.hours = i->billable_hours(now_h_);
      rec.educate = i->tags().contains("Educate");
      rec.spot = i->tags().contains("Spot");
      if (auto it = i->tags().find("Lease"); it != i->tags().end())
        rec.lease_id = it->second;
      rec.cost_usd = rec.educate ? 0.0 : i->accrued_cost(now_h_);
      ledger_.push_back(std::move(rec));
      ++reaped_;
    }
  }
}

}  // namespace sagesim::cloud
