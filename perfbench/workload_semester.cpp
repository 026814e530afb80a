// semester: the 1000-tenant, 14-week course replay (about 23k submissions
// plus quota re-entries) through sched::ClusterManager, open loop in modeled
// time: arrivals come from the load trace, and retryable quota rejections
// re-enter at the manager's suggested retry time.  The only workload that
// reaches sched and cloudsim; it runs no payloads, so it isolates the
// control plane's host cost.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <queue>

#include "cloudsim/spot.hpp"
#include "common.hpp"
#include "sched/manager.hpp"
#include "sched/semester.hpp"
#include "sched/telemetry.hpp"

namespace perfbench {

namespace sg = sagesim;

namespace {

constexpr std::size_t kTenants = 1000;
constexpr double kWeeks = 14.0;
constexpr int kMaxTries = 500;
constexpr int kSetupReps = 7;
// latency_p50_ms is taken over blocks of this many consecutive submissions:
// a single submission takes ~20 us, where timer and cache effects on a
// shared host swamp the control plane's own cost.
constexpr std::size_t kBlock = 100;

/// A submission awaiting (re-)admission: arrivals and quota retries share
/// one time-ordered queue.
struct PendingSub {
  double due_h{0.0};
  std::size_t seq{0};
  int tries{0};
  sg::sched::JobSpec spec;
};

struct PendingLater {
  bool operator()(const PendingSub& a, const PendingSub& b) const {
    return a.due_h != b.due_h ? a.due_h > b.due_h : a.seq > b.seq;
  }
};

/// The fleet bench_semester sizes against the expected load.
std::unique_ptr<sg::sched::ClusterManager> make_manager(
    const sg::sched::SemesterLoad& load) {
  const double avg_concurrency = load.expected_gpu_hours / load.horizon_h;
  sg::sched::ManagerConfig cfg;
  cfg.max_nodes =
      std::clamp(static_cast<int>(std::ceil(avg_concurrency * 2.5)), 8, 96);
  cfg.min_nodes = 2;
  cfg.spot_nodes = cfg.max_nodes / 3;
  cfg.spot.trace = sg::cloud::synthetic_price_trace(
      load.horizon_h * 1.5 + 500.0, /*base=*/0.2, /*spike=*/10.0,
      /*spikes=*/static_cast<int>(load.horizon_h / 48.0) + 2,
      /*spike_width_h=*/0.5);
  auto mgr = std::make_unique<sg::sched::ClusterManager>(cfg);
  for (const auto& t : load.roster) {
    sg::sched::TenantConfig tc;
    tc.id = t.id;
    tc.weight = t.weight;
    tc.budget_usd = t.budget_usd;
    mgr->register_tenant(std::move(tc));
  }
  return mgr;
}

struct Replay {
  std::size_t processed{0};  ///< submit calls: arrivals plus re-entries
  std::size_t admitted{0}, rejected_forever{0}, lost{0}, retried{0};
  std::size_t incomplete{0}, over_budget{0};
  bool drained{false};
  double submit_s{0.0}, advance_s{0.0};
  sg::sched::SchedReport report;
};

/// Replays @p load through @p mgr.  Every submission's host time (its
/// advance_to plus its submit) lands in @p op_s; a traced replay also splits
/// submit from advance time.
Replay replay(const sg::sched::SemesterLoad& load,
              sg::sched::ClusterManager& mgr, bool traced,
              std::vector<double>& op_s) {
  Replay r;
  std::priority_queue<PendingSub, std::vector<PendingSub>, PendingLater> todo;
  std::size_t seq = 0;
  for (const auto& sub : load.submissions)
    todo.push(PendingSub{sub.arrive_h, seq++, 0, sub.spec});

  while (!todo.empty()) {
    PendingSub sub = todo.top();
    todo.pop();
    const auto t0 = Clock::now();
    if (sub.due_h > mgr.now_h()) mgr.advance_to(sub.due_h);
    Clock::time_point t1{};
    if (traced) t1 = Clock::now();
    auto res = mgr.submit(sub.spec);
    const auto t2 = Clock::now();
    op_s.push_back(std::chrono::duration<double>(t2 - t0).count());
    if (traced) {
      r.advance_s += std::chrono::duration<double>(t1 - t0).count();
      r.submit_s += std::chrono::duration<double>(t2 - t1).count();
    }
    ++r.processed;
    if (res) {
      ++r.admitted;
      continue;
    }
    if (!res.status().retryable()) {
      ++r.rejected_forever;
      continue;
    }
    if (++sub.tries >= kMaxTries) {
      ++r.lost;
      continue;
    }
    ++r.retried;
    sub.due_h = mgr.now_h() +
                std::max(mgr.suggested_retry_h(sub.spec.tenant),
                         0.05 * sub.tries);
    sub.seq = seq++;
    todo.push(std::move(sub));
  }
  const auto t0 = Clock::now();
  r.drained = mgr.drain(load.horizon_h + 24.0 * 365.0).ok();
  r.advance_s += seconds_since(t0);

  r.report = sg::sched::build_report(mgr);
  for (const auto& rec : mgr.records())
    if (rec.state != sg::sched::JobState::kCompleted) ++r.incomplete;
  for (const auto& row : mgr.tenant_ledger().by_tenant())
    if (row.total_usd() > mgr.budget_cap(row.tenant) + 1e-3) ++r.over_budget;
  return r;
}

}  // namespace

Outcome run_semester(const RunOptions& opt) {
  Outcome out;

  sg::sched::SemesterLoadConfig load_cfg;
  load_cfg.tenants = kTenants;
  load_cfg.weeks = kWeeks;
  load_cfg.seed = opt.seed;
  std::vector<double> setup_s, load_gen_s;
  sg::sched::SemesterLoad load;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    load = sg::sched::generate_semester_load(load_cfg);
    load_gen_s.push_back(seconds_since(t0));
    auto mgr = make_manager(load);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("semester: %zu tenants, %zu submissions over %.0f h\n",
              load.roster.size(), load.submissions.size(), load.horizon_h);

  // Per replay: submissions + re-entries per host s, and the percentiles of
  // per-submission host time.
  std::vector<double> rates, block_p50, op_p90, op_p99;
  std::vector<double> op_s, block_s;
  std::size_t op_n = 0;
  std::vector<Metrics> layer_reps;
  bool have_ref = false;
  sg::sched::SchedReport ref;

  auto rep = [&](bool traced) -> double {
    auto mgr = make_manager(load);
    op_s.clear();
    const auto t0 = Clock::now();
    const Replay r = replay(load, *mgr, traced, op_s);
    const double w = seconds_since(t0);
    rates.push_back(static_cast<double>(r.processed) / w);
    block_s.clear();
    for (std::size_t b = 0; b + kBlock <= op_s.size(); b += kBlock) {
      double sum = 0.0;
      for (std::size_t i = b; i < b + kBlock; ++i) sum += op_s[i];
      block_s.push_back(sum / kBlock);
    }
    block_p50.push_back(median(block_s));
    const LatencySummary lat = summarize(op_s);
    op_p90.push_back(lat.p90);
    op_p99.push_back(lat.p99);
    op_n += lat.n;
    out.attempted += load.submissions.size();
    out.failed += r.lost + r.rejected_forever + r.incomplete;

    out.check(r.drained, "semester: the fleet drains");
    out.check(r.lost == 0, "semester: no submission exhausts its retries");
    out.check(r.rejected_forever == 0,
              "semester: no submission is permanently rejected");
    out.check(r.admitted == load.submissions.size(),
              "semester: every submission is admitted");
    out.check(r.incomplete == 0, "semester: every admitted job completes");
    out.check(r.over_budget == 0, "semester: no tenant exceeds its budget");
    const auto& s = r.report;
    if (!have_ref) {
      ref = s;
      have_ref = true;
    } else {
      out.check(s.wait_p99_h == ref.wait_p99_h &&
                    s.utilization == ref.utilization &&
                    s.cost_per_tenant_mean_usd ==
                        ref.cost_per_tenant_mean_usd &&
                    s.launches == ref.launches &&
                    s.preemptions == ref.preemptions &&
                    s.backfills == ref.backfills,
                "semester: modeled outcomes repeat exactly");
    }

    if (traced) {
      layer_reps.push_back({
          {"sched.submit_us",
           r.submit_s * 1e6 / static_cast<double>(r.processed)},
          {"sched.advance_s", r.advance_s},
          {"sched.quota_retries", static_cast<double>(r.retried)},
          {"sched.backfills", static_cast<double>(s.backfills)},
          {"sched.preemptions", static_cast<double>(s.preemptions)},
          {"sched.launches", static_cast<double>(s.launches)},
          {"sched.wait_p99_h", s.wait_p99_h},
          {"sched.utilization", s.utilization},
          {"sched.cost_per_tenant_usd", s.cost_per_tenant_mean_usd},
      });
    }
    return w;
  };
  const RepWalls walls = run_reps(opt, 2, rep);

  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"throughput_per_s", median(rates)},
      {"latency_p50_ms", median(block_p50) * 1e3},
  };
  print_metric("replay_jobs_per_s", median(rates), "1/s",
               "median of " + std::to_string(rates.size()) + " replays");
  print_metric("wait_p99_h", ref.wait_p99_h, "h", "modeled");
  print_metric("utilization", ref.utilization, "frac", "modeled");
  print_metric("cost_per_tenant_usd", ref.cost_per_tenant_mean_usd, "USD",
               "modeled");
  const std::string n = "median of " + std::to_string(rates.size()) +
                        " replays, n=" + std::to_string(op_n);
  print_metric("submission_p50_ms", median(block_p50) * 1e3, "ms",
               "per submission, median over blocks of " +
                   std::to_string(kBlock) + "; " + n);
  print_metric("submission_p90_ms", median(op_p90) * 1e3, "ms", n);
  print_metric("submission_p99_ms", median(op_p99) * 1e3, "ms", n);

  if (opt.trace) {
    out.per_layer = median_metrics(layer_reps);
    out.per_layer["trace.overhead_frac"] = tracing_overhead(walls);
    out.per_layer["sched.load_gen_s"] = median(load_gen_s);
  }
  return out;
}

}  // namespace perfbench
