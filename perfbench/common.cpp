#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace perfbench {

// The contract fixes one set of end-to-end names for every workload, so each
// name carries a per-workload definition (the `moves` column).
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower",
       "median of 7 set-ups (3 for ooc_sampled): dataset (alg1), shard files "
       "(ooc_sampled), corpus+index (rag_open), load+roster+manager "
       "(semester)"},
      {"peak_rss_mb", "MB", "lower", "process VmHWM at exit"},
      {"throughput_per_s", "1/s", "higher",
       "median over repetitions of - alg1: labelled nodes x epochs per host "
       "s; ooc_sampled: seed nodes per host s; rag_open: requests per s with "
       "1000 distinct queries offered at once (uncached batched capacity); "
       "semester: submissions+re-entries per host s"},
      {"latency_p50_ms", "ms", "lower",
       "alg1, ooc_sampled: host time of one synchronized optimizer step; "
       "rag_open: submission to answer within a 1000-query burst; semester: "
       "host time per submission replayed, median over blocks of 100.  p90/p99 are printed with their "
       "sample counts but not gated: on a shared VM the serving tails move "
       "30-140% between runs"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"runtime.tasks", "count", "lower", "throughput_per_s on alg1 (k=4)"},
      {"runtime.busy_s", "s", "lower", "throughput_per_s on alg1 (k=4)"},
      {"runtime.lane_idle_frac", "frac", "lower",
       "throughput_per_s on alg1 (k=4)"},
      {"compute.gemm_ms", "ms", "lower",
       "throughput_per_s on alg1; latency_p50_ms on rag_open"},
      {"compute.spmm_ms", "ms", "lower", "throughput_per_s on alg1"},
      {"compute.tune_hits", "count", "higher", "throughput_per_s on alg1"},
      {"compute.tune_misses", "count", "lower", "throughput_per_s on alg1"},
      {"gpusim.kernel_launches", "count", "lower", "none (modeled)"},
      {"gpusim.kernel_gflop", "GFLOP", "lower", "none (modeled)"},
      {"gpusim.kernel_gb", "GB", "lower", "none (modeled)"},
      {"gpusim.modeled_kernel_s", "s", "lower", "none (modeled)"},
      {"gpusim.modeled_train_s", "s", "lower", "none (modeled)"},
      {"gpusim.kernel_util", "frac", "higher", "none (modeled)"},
      {"mem.h2d_bytes", "B", "lower",
       "throughput_per_s and peak_rss_mb on ooc_sampled"},
      {"mem.h2d_copies", "count", "lower",
       "throughput_per_s and peak_rss_mb on ooc_sampled"},
      {"mem.d2h_bytes", "B", "lower",
       "throughput_per_s and peak_rss_mb on ooc_sampled"},
      {"mem.pool_hit_rate", "frac", "higher",
       "throughput_per_s and peak_rss_mb on ooc_sampled"},
      {"mem.peak_resident_mb", "MB", "lower", "peak_rss_mb on ooc_sampled"},
      {"mem.h2d_hidden_frac", "frac", "higher",
       "throughput_per_s on ooc_sampled"},
      {"graph.generate_s", "s", "lower", "setup_s on ooc_sampled"},
      {"graph.partition_s", "s", "lower", "throughput_per_s on alg1"},
      {"graph.sample_ms", "ms", "lower", "throughput_per_s on ooc_sampled"},
      {"graph.shard_loads", "count", "lower",
       "throughput_per_s on ooc_sampled"},
      {"graph.shard_evictions", "count", "lower",
       "throughput_per_s on ooc_sampled"},
      {"graph.sampled_edges", "count", "lower",
       "throughput_per_s on ooc_sampled"},
      {"dflow.allreduce_s", "s", "lower",
       "throughput_per_s on alg1 (k=2, k=4)"},
      {"dflow.allreduce_calls", "count", "lower",
       "throughput_per_s on alg1 (k=2, k=4)"},
      {"dflow.comm_bytes", "B", "lower",
       "throughput_per_s on alg1 (k=2, k=4)"},
      {"ddp.exposed_comm_frac", "frac", "lower",
       "throughput_per_s on alg1 (k=2, k=4)"},
      {"core.fwd_bwd_s", "s", "lower",
       "throughput_per_s on alg1 and ooc_sampled"},
      {"core.optim_s", "s", "lower",
       "throughput_per_s on alg1 and ooc_sampled"},
      {"core.steps", "count", "higher",
       "throughput_per_s on alg1 and ooc_sampled"},
      {"core.checkpoints_written", "count", "lower",
       "throughput_per_s on ooc_sampled"},
      {"core.span_coverage", "frac", "higher",
       "none (share of the alg1 k=1 run's host wall under core+dflow spans)"},
      {"core.final_loss", "nats", "lower",
       "none (last-step training loss: alg1 k=4, ooc_sampled)"},
      {"core.test_accuracy", "frac", "higher", "none (alg1, k=4 METIS)"},
      {"rag.result_hit_rate", "frac", "higher",
       "latency_p50_ms and throughput_per_s on rag_open"},
      {"rag.embed_hit_rate", "frac", "higher",
       "latency_p50_ms and throughput_per_s on rag_open"},
      {"rag.batches", "count", "lower",
       "latency_p50_ms and throughput_per_s on rag_open"},
      {"rag.mean_batch", "count", "higher",
       "latency_p50_ms and throughput_per_s on rag_open"},
      {"rag.server_p99_ms", "ms", "lower", "latency_p50_ms on rag_open"},
      {"rag.batch_ms", "ms", "lower",
       "latency_p50_ms and throughput_per_s on rag_open"},
      {"rag.deadline_misses", "count", "lower",
       "latency_p50_ms on rag_open"},
      {"rag.slo_qps", "1/s", "higher",
       "none (highest ladder rate with p99 <= 25 ms and no backlog; printed, "
       "too noisy on a shared VM to gate)"},
      {"rag.generator_late_ms", "ms", "lower",
       "none (load-generator health, p99 lateness of sends)"},
      {"sched.submit_us", "us", "lower", "throughput_per_s on semester"},
      {"sched.advance_s", "s", "lower", "throughput_per_s on semester"},
      {"sched.load_gen_s", "s", "lower", "setup_s on semester"},
      {"sched.quota_retries", "count", "lower",
       "throughput_per_s on semester; sched.wait_p99_h"},
      {"sched.backfills", "count", "higher", "sched.wait_p99_h on semester"},
      {"sched.preemptions", "count", "lower", "sched.wait_p99_h on semester"},
      {"sched.launches", "count", "lower",
       "sched.cost_per_tenant_usd on semester"},
      {"sched.wait_p99_h", "h", "lower",
       "none (modeled policy outcome, semester)"},
      {"sched.utilization", "frac", "higher",
       "none (modeled policy outcome, semester)"},
      {"sched.cost_per_tenant_usd", "USD", "lower",
       "none (modeled policy outcome, semester)"},
      {"trace.overhead_frac", "frac", "lower",
       "none (traced over untraced host wall of the same work, minus 1)"},
  };
  return specs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

LatencySummary summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.n = values.size();
  if (s.n == 0) return s;
  s.p50 = quantile(values, 0.50);
  s.p90 = quantile(values, 0.90);
  s.p99 = quantile(values, 0.99);
  return s;
}

Metrics median_metrics(const std::vector<Metrics>& reps) {
  Metrics out;
  if (reps.empty()) return out;
  for (const auto& [name, _] : reps.front()) {
    std::vector<double> v;
    for (const auto& r : reps) {
      const auto it = r.find(name);
      if (it != r.end()) v.push_back(it->second);
    }
    out[name] = median(std::move(v));
  }
  return out;
}

RepWalls run_reps(const RunOptions& opt, int min_reps,
                  const std::function<double(bool traced)>& rep) {
  RepWalls walls;
  const auto t0 = Clock::now();
  const double untraced_budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  while (walls.untraced.size() < static_cast<std::size_t>(min_reps) ||
         seconds_since(t0) < untraced_budget)
    walls.untraced.push_back(rep(false));
  if (!opt.trace) return walls;
  while (walls.traced.size() < static_cast<std::size_t>(min_reps) ||
         seconds_since(t0) < opt.seconds)
    walls.traced.push_back(rep(true));
  return walls;
}

double tracing_overhead(const RepWalls& walls) {
  return median(walls.traced) / median(walls.untraced) - 1.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note) {
  std::printf("  %-26s %14.6g %-6s%s%s\n", name.c_str(), value, unit,
              note.empty() ? "" : "  ", note.c_str());
}

ScratchDir::ScratchDir(const std::string& tag) {
  static int counter = 0;
  const auto base = std::filesystem::current_path() / ".perfbench_tmp";
  path_ = (base / (tag + "-" + std::to_string(::getpid()) + "-" +
                   std::to_string(counter++)))
              .string();
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  // Drop the shared parent once the last scratch directory is gone.
  std::filesystem::remove(std::filesystem::path(path_).parent_path(), ec);
}

double span_seconds(const std::vector<sagesim::prof::TraceEvent>& spans,
                    std::string_view prefix) {
  double total = 0.0;
  for (const auto& e : spans)
    if (std::string_view(e.name).starts_with(prefix)) total += e.duration_s;
  return total;
}

std::size_t span_count(const std::vector<sagesim::prof::TraceEvent>& spans,
                       std::string_view prefix) {
  std::size_t n = 0;
  for (const auto& e : spans)
    if (std::string_view(e.name).starts_with(prefix)) ++n;
  return n;
}

std::vector<double> step_latencies_s(
    const std::vector<sagesim::prof::TraceEvent>& spans,
    std::string_view compute_prefix, std::string_view update_prefix) {
  // Per lane, the s-th compute span and the s-th update span belong to step
  // s: pinned lanes run their tasks FIFO and record spans on completion.
  std::map<int, std::vector<const sagesim::prof::TraceEvent*>> compute, update;
  for (const auto& e : spans) {
    const auto w = e.counters.find("worker");
    const int lane = w == e.counters.end() ? -1 : static_cast<int>(w->second);
    const std::string_view name(e.name);
    if (name.starts_with(compute_prefix)) compute[lane].push_back(&e);
    if (name.starts_with(update_prefix)) update[lane].push_back(&e);
  }
  std::size_t steps = SIZE_MAX;
  for (const auto& [_, v] : compute) steps = std::min(steps, v.size());
  for (const auto& [_, v] : update) steps = std::min(steps, v.size());
  if (compute.empty() || update.empty()) return {};
  std::vector<double> out;
  out.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    double begin = 1e300, end = -1e300;
    for (const auto& [_, v] : compute) begin = std::min(begin, v[s]->start_s);
    for (const auto& [_, v] : update) end = std::max(end, v[s]->end_s());
    out.push_back(end - begin);
  }
  return out;
}

std::vector<double> geometric_ladder(double lo, double hi, double ratio) {
  if (!(lo > 0.0 && hi >= lo && ratio > 1.0))
    throw std::invalid_argument(
        "geometric_ladder: need 0 < lo <= hi, ratio > 1");
  std::vector<double> out;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= ratio)
    out.push_back(std::round(r));
  return out;
}

int ladder_search(const std::vector<double>& ladder,
                  const std::function<bool(double)>& meets, int* probes) {
  int lo = -1;                                // highest index known to meet
  int hi = static_cast<int>(ladder.size());   // lowest index known to fail
  int n = 0;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    ++n;
    if (meets(ladder[static_cast<std::size_t>(mid)]))
      lo = mid;
    else
      hi = mid;
  }
  if (probes != nullptr) *probes = n;
  return lo;
}

}  // namespace perfbench
