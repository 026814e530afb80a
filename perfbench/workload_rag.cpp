// rag_open: an open-loop rag::Server over BruteForceIndex GEMM retrieval,
// batching and both caches at their defaults (set explicitly, not read from
// the environment).  Requests arrive on a fixed schedule at absolute rates,
// independent of completions; each is timed from its scheduled send, so a
// stall also charges the requests queued behind it.  Queries are Zipfian over
// a pool large enough that about two thirds of a phase's requests are first
// occurrences: the misses exercise the batcher and GEMM retrieval,
// the repeats the result and embedding caches, in one stream.  Misses are
// kept clearly above half so the median request is always a miss.
// 1000 requests per phase put 10 samples beyond each phase's p99.
//
// Phases, each on a fresh server (empty caches) with the same request
// stream: the low rate, the slo_qps ladder search and the high rate; then,
// for the measured budget, bursts of distinct queries offered all at once.
//
// Gated end to end are the burst's rate (uncached batched capacity) and its
// median answer latency.  The fixed-rate percentiles and slo_qps are printed
// (slo_qps is also the per-layer rag.slo_qps) but not gated: on a shared VM,
// thread wake-up latency, not the server, sets the latency of a lightly
// loaded millisecond-scale service, and it moved fixed-rate p50 by 60% and
// p90/p99 by 30-140% from run to run.  A saturated server has no idle
// threads to wake.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common.hpp"
#include "compute/plan.hpp"
#include "gpusim/executor.hpp"
#include "rag/server.hpp"
#include "stats/rng.hpp"
#include "tensor/ops.hpp"
#include "layers.hpp"

namespace perfbench {

namespace sg = sagesim;

namespace {

// Fixed absolute rates.  Uncached batched serving on a shared 4-core host
// saturates anywhere between 0.7k and 1.5k qps (saturated_qps below) as the
// host's speed drifts; the rates are about a third and two thirds of the low
// end, so a slow host is never pushed past saturation.
constexpr double kLowQps = 250.0;
constexpr double kHighQps = 500.0;
// Distinct queries submitted all at once: uncached batched capacity.
constexpr double kOfferAll = 1e12;
// slo_qps: the highest rung of this ladder whose p99 meets the limit with no
// failures and no growing backlog (the last request completes within the
// limit of its send).
constexpr double kLadderLoQps = 250.0;
constexpr double kLadderHiQps = 16000.0;
constexpr double kLadderRatio = 1.05;
constexpr double kSloP99Ms = 25.0;

constexpr std::size_t kRequestsPerPhase = 1000;
constexpr std::size_t kQueryPool = 25000;
constexpr double kZipfExponent = 0.9;  // ~2/3 first occurrences per phase
constexpr std::size_t kAnswerCheckSample = 32;
constexpr int kHighPhases = 3;
constexpr int kSetupReps = 7;

/// Zipf(s) over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s, sg::stats::Rng& rng) : rng_(rng) {
    double total = 0.0;
    cumulative_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -s);
      cumulative_.push_back(total);
    }
  }
  std::size_t operator()() {
    const double u = rng_.uniform() * cumulative_.back();
    return static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  sg::stats::Rng& rng_;
  std::vector<double> cumulative_;
};

sg::rag::ServeOptions pinned_serve_options() {
  sg::rag::ServeOptions o;
  o.max_batch = 16;
  o.max_delay_us = 200;
  o.embed_cache_entries = 1024;
  o.result_cache_entries = 4096;
  o.deadline_s = 0.0;
  return o;
}

struct Phase {
  std::vector<double> latency_s;  ///< scheduled send -> completion (ok only)
  std::vector<double> late_s;     ///< actual send - scheduled send
  std::uint64_t failed{0};
  double drain_s{0.0};  ///< last completion - last scheduled send
  double wall_s{0.0};   ///< first scheduled send -> last completion
  sg::rag::Server::Stats stats;
  double server_p99_ms{0.0};
  double busy_s{0.0};
  double tasks{0.0};
  std::vector<sg::runtime::Future<sg::rag::RagAnswer>> sample;
};

/// One open-loop phase at @p qps on a fresh server.  Keeps the futures of
/// the first @p keep requests for the answer check.
Phase open_loop(sg::rag::RagPipeline& pipeline, sg::runtime::Scheduler& pool,
                const std::vector<std::string>& requests, double qps,
                std::size_t keep = 0) {
  Phase ph;
  ph.latency_s.reserve(requests.size());
  ph.late_s.reserve(requests.size());
  // Callbacks run on pool threads; the phase waits for every one of them
  // before reading what they recorded.
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;
  Clock::time_point last_done{};
  std::uint64_t failed = 0;

  pool.timeline().clear();
  const std::size_t tasks0 = pool.tasks_completed();
  sg::rag::Server server(pipeline, pinned_serve_options(), &pool);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  const auto t0 = Clock::now();
  Clock::time_point scheduled = t0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    scheduled = t0 + interval * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(scheduled);
    ph.late_s.push_back(
        std::chrono::duration<double>(Clock::now() - scheduled).count());
    auto future = server.submit(requests[i]);
    future.erased().on_ready(
        [&, scheduled](const sg::runtime::AnyFuture& f) {
          const auto now = Clock::now();
          const bool ok = f.wait_status().ok();
          std::lock_guard lock(mutex);
          if (ok)
            ph.latency_s.push_back(
                std::chrono::duration<double>(now - scheduled).count());
          else
            ++failed;
          last_done = std::max(last_done, now);
          if (++done == requests.size()) all_done.notify_all();
        });
    if (i < keep) ph.sample.push_back(std::move(future));
  }
  server.drain();
  server.stop();
  {
    std::unique_lock lock(mutex);
    all_done.wait(lock, [&] { return done == requests.size(); });
    ph.wall_s = std::chrono::duration<double>(last_done - t0).count();
    ph.failed = failed;
    ph.drain_s = std::chrono::duration<double>(last_done - scheduled).count();
  }
  ph.stats = server.stats();
  const auto tracker = server.latency();
  ph.server_p99_ms = tracker.count() == 0 ? 0.0 : tracker.p99() * 1e3;
  ph.busy_s = span_seconds(pool.timeline().snapshot(), "");
  ph.tasks = static_cast<double>(pool.tasks_completed() - tasks0);
  return ph;
}

bool meets_slo(double qps, const Phase& ph) {
  const double p99_ms =
      ph.latency_s.empty() ? 0.0 : quantile(ph.latency_s, 0.99) * 1e3;
  const bool ok = ph.failed == 0 && !ph.latency_s.empty() &&
                  p99_ms <= kSloP99Ms && ph.drain_s * 1e3 <= kSloP99Ms;
  std::printf("  ladder probe %6.0f qps: p99 %.3f ms, drain %.3f ms, "
              "%llu failed -> %s\n",
              qps, p99_ms, ph.drain_s * 1e3,
              static_cast<unsigned long long>(ph.failed),
              ok ? "meets" : "misses");
  return ok;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

Outcome run_rag_open(const RunOptions& opt) {
  Outcome out;

  sg::rag::SyntheticCorpusParams params;
  params.num_docs = 2000;
  params.num_topics = 20;
  sg::rag::RagConfig cfg;
  cfg.embed_dim = 256;
  cfg.top_k = 4;
  cfg.generator.retrieval_boost = 25.0;

  std::vector<double> setup_s;
  std::unique_ptr<sg::rag::SyntheticCorpus> synth;
  std::unique_ptr<sg::rag::RagPipeline> pipeline;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    pipeline.reset();
    sg::stats::Rng rng(opt.seed);
    synth = std::make_unique<sg::rag::SyntheticCorpus>(
        sg::rag::synthetic_corpus(params, rng));
    pipeline = std::make_unique<sg::rag::RagPipeline>(
        synth->corpus,
        std::make_unique<sg::rag::BruteForceIndex>(cfg.embed_dim), nullptr,
        cfg);
    setup_s.push_back(seconds_since(t0));
  }

  sg::stats::Rng qrng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::string> pool;
  pool.reserve(kQueryPool);
  for (std::size_t i = 0; i < kQueryPool; ++i)
    pool.push_back(sg::rag::synthetic_query(
        params, static_cast<int>(i) % params.num_topics, qrng));
  Zipf zipf(kQueryPool, kZipfExponent, qrng);
  const std::vector<std::string> distinct_requests(
      pool.begin(), pool.begin() + static_cast<long>(kRequestsPerPhase));
  std::vector<std::string> requests;
  requests.reserve(kRequestsPerPhase);
  std::unordered_set<std::string> distinct;
  for (std::size_t i = 0; i < kRequestsPerPhase; ++i) {
    requests.push_back(pool[zipf()]);
    distinct.insert(requests.back());
  }
  // Two pool workers leave the other cores of a 4-core host to the load
  // generator and the batcher thread, so they are not preempted by the work
  // they are timing.
  const unsigned workers =
      std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  std::printf("rag_open: %zu docs, dim %zu, %zu requests per phase "
              "(%.1f%% first occurrences), %u workers, low %.0f / high %.0f "
              "qps, SLO p99 <= %.0f ms\n",
              synth->corpus.size(), cfg.embed_dim, requests.size(),
              100.0 * static_cast<double>(distinct.size()) /
                  static_cast<double>(requests.size()),
              workers, kLowQps, kHighQps, kSloP99Ms);

  sg::gpu::Executor ex(workers);
  sg::compute::set_executor(&ex);
  struct RestoreExecutor {
    ~RestoreExecutor() { sg::compute::set_executor(nullptr); }
  } restore;

  auto account = [&](const Phase& ph) {
    out.attempted += requests.size();
    out.failed += ph.failed;
  };

  const Phase low = open_loop(*pipeline, ex.scheduler(), requests, kLowQps);
  account(low);

  const auto ladder =
      geometric_ladder(kLadderLoQps, kLadderHiQps, kLadderRatio);
  int probes = 0;
  const int rung = ladder_search(
      ladder,
      [&](double qps) {
        const Phase ph = open_loop(*pipeline, ex.scheduler(), requests, qps);
        account(ph);
        return meets_slo(qps, ph);
      },
      &probes);
  const double slo_qps =
      rung < 0 ? 0.0 : ladder[static_cast<std::size_t>(rung)];

  // The high rate runs kHighPhases times; the measured budget then repeats
  // bursts of kRequestsPerPhase distinct queries offered at once.
  // Percentiles and rates are per phase; the reported ones are their medians,
  // so one phase hit by a host stall does not move them.
  std::vector<double> high_p50, high_p90, high_p99, high_late;
  std::size_t high_n = 0;
  std::vector<Metrics> layer_reps;
  for (int i = 0; i < kHighPhases; ++i) {
    if (opt.trace) reset_data_plane();
    Phase ph = open_loop(*pipeline, ex.scheduler(), requests, kHighQps,
                         i == 0 ? kAnswerCheckSample : 0);
    account(ph);
    const LatencySummary lat = summarize(ph.latency_s);
    high_p50.push_back(lat.p50);
    high_p90.push_back(lat.p90);
    high_p99.push_back(lat.p99);
    high_n += lat.n;
    high_late.insert(high_late.end(), ph.late_s.begin(), ph.late_s.end());
    if (i == 0) {
      // Served answers (batched or cached) must equal the serial pipeline's.
      bool same = true;
      for (std::size_t j = 0; j < ph.sample.size(); ++j) {
        auto served = ph.sample[j].result();
        auto serial = pipeline->answer(requests[j]);
        same = same && served && serial && served->text == serial->text &&
               served->retrieved == serial->retrieved &&
               served->id == serial->id;
      }
      out.check(same, "rag_open: served answers equal serial answers on " +
                          std::to_string(ph.sample.size()) + " requests");
    }
    if (opt.trace) {
      Metrics m;
      finish_data_plane(m);
      m["rag.result_hit_rate"] = ratio(
          ph.stats.result_hits, ph.stats.result_hits + ph.stats.result_misses);
      m["rag.embed_hit_rate"] = ratio(
          ph.stats.embed_hits, ph.stats.embed_hits + ph.stats.embed_misses);
      m["rag.batches"] = static_cast<double>(ph.stats.batches);
      m["rag.mean_batch"] = ratio(ph.stats.batched_queries, ph.stats.batches);
      m["rag.server_p99_ms"] = ph.server_p99_ms;
      m["rag.deadline_misses"] = static_cast<double>(ph.stats.deadline_misses);
      m["rag.generator_late_ms"] = quantile(ph.late_s, 0.99) * 1e3;
      m["runtime.tasks"] = ph.tasks;
      m["runtime.busy_s"] = ph.busy_s;
      m["runtime.lane_idle_frac"] = 1.0 - ph.busy_s / (workers * ph.wall_s);
      layer_reps.push_back(std::move(m));
    }
  }

  std::vector<double> burst_qps, burst_p50;
  auto burst = [&](bool traced) -> double {
    if (traced) reset_data_plane();
    const Phase ph = open_loop(*pipeline, ex.scheduler(), distinct_requests,
                               kOfferAll);
    if (traced) {
      Metrics unused;
      finish_data_plane(unused);
    }
    out.attempted += distinct_requests.size();
    out.failed += ph.failed;
    burst_qps.push_back(static_cast<double>(distinct_requests.size()) /
                        ph.wall_s);
    burst_p50.push_back(quantile(ph.latency_s, 0.5));
    return ph.wall_s;
  };
  const RepWalls walls = run_reps(opt, 1, burst);

  const LatencySummary lo = summarize(low.latency_s);
  const LatencySummary late = summarize(high_late);
  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"throughput_per_s", median(burst_qps)},
      {"latency_p50_ms", median(burst_p50) * 1e3},
  };
  const std::string n_lo = "n=" + std::to_string(lo.n);
  const std::string n_hi = "median of " + std::to_string(high_p99.size()) +
                           " phases, n=" + std::to_string(high_n);
  print_metric("p50_ms.low", lo.p50 * 1e3, "ms", n_lo);
  print_metric("p90_ms.low", lo.p90 * 1e3, "ms", n_lo);
  print_metric("p99_ms.low", lo.p99 * 1e3, "ms", n_lo);
  print_metric("p50_ms.high", median(high_p50) * 1e3, "ms", n_hi);
  print_metric("p90_ms.high", median(high_p90) * 1e3, "ms", n_hi);
  print_metric("p99_ms.high", median(high_p99) * 1e3, "ms", n_hi);
  print_metric("slo_qps", slo_qps, "1/s",
               std::to_string(probes) + " ladder probes of " +
                   std::to_string(requests.size()) + " requests");
  const std::string n_burst =
      "median of " + std::to_string(burst_qps.size()) + " bursts of " +
      std::to_string(distinct_requests.size()) + " distinct queries";
  print_metric("saturated_qps", median(burst_qps), "1/s", n_burst);
  std::string per_burst;
  for (double q : burst_qps) per_burst += " " + std::to_string(std::lround(q));
  std::printf("  saturated_qps per burst:%s\n", per_burst.c_str());
  print_metric("burst_p50_ms", median(burst_p50) * 1e3, "ms", n_burst);
  print_metric("generator_late_p99_ms", late.p99 * 1e3, "ms",
               "n=" + std::to_string(late.n) + " sends at the high rate");

  if (opt.trace) {
    out.per_layer = median_metrics(layer_reps);
    out.per_layer["trace.overhead_frac"] = tracing_overhead(walls);
    out.per_layer["rag.slo_qps"] = slo_qps;
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(out.per_layer["rag.mean_batch"])));
    const std::vector<std::string> queries(
        requests.begin(), requests.begin() + static_cast<long>(batch));
    out.per_layer["rag.batch_ms"] = time_median_ms(
        [&] { pipeline->answer_batch(queries).status().throw_if_error(); }, 5);
    sg::stats::Rng trng(3);
    sg::tensor::Tensor q(batch, cfg.embed_dim);
    sg::tensor::Tensor docs(params.num_docs, cfg.embed_dim);
    sg::tensor::Tensor scores(batch, params.num_docs);
    q.init_uniform(trng, -1.0f, 1.0f);
    docs.init_uniform(trng, -1.0f, 1.0f);
    out.per_layer["compute.gemm_ms"] = time_median_ms(
        [&] { sg::tensor::ops::gemm(nullptr, q, docs, scores, false, true); },
        5);
  }
  return out;
}

}  // namespace perfbench
