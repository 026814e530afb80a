// RAG serving SLO bench (emits the BENCH_rag.json baseline): the production
// serving path — rag::Server's dynamic batching + embedding/result caches
// over GEMM-backed retrieval — against a serial baseline (batch 1, no
// caches) on the same work-stealing pool.
//
//   serve_rag [--smoke] [--json PATH] [--workers LIST]
//
// Three sections:
//  * HNSW conformance: recall@10 of rag::HnswIndex vs BruteForceIndex on
//    the bench corpus, plus the autotuned ef_search the server would use;
//  * closed-loop: 4 synchronous clients hammering the server — throughput
//    and latency percentiles under Zipfian traffic (hot queries repeat, so
//    the result cache earns its keep);
//  * open-loop: requests arrive on a fixed schedule at equal offered load
//    for both configurations; latency is completion minus *scheduled*
//    arrival, so queueing delay counts.  A serial server past saturation
//    builds a queue and its p99 explodes; batching + caching holds the same
//    load with a flat tail — the headline `p99_improvement` ratio.
//
// --smoke shrinks the corpus and request counts so the perf.* ctest entry
// stays fast.  --workers takes a comma list of private pool sizes (default
// 4; the SLO claim is stated at >= 4 workers).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "compute/plan.hpp"
#include "gpusim/executor.hpp"
#include "rag/hnsw.hpp"
#include "rag/server.hpp"
#include "stats/rng.hpp"

using namespace sagesim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Zipf(s=1) sampler over [0, n): rank-1 queries dominate, the tail is
/// long — the canonical serving traffic shape that makes result caching
/// worthwhile without making it free.
class Zipf {
 public:
  Zipf(std::size_t n, stats::Rng& rng) : rng_(rng) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative_.push_back(total);
    }
  }

  std::size_t operator()() {
    const double u = rng_.uniform() * cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return static_cast<std::size_t>(it - cumulative_.begin());
  }

 private:
  stats::Rng& rng_;
  std::vector<double> cumulative_;
};

struct LoadResult {
  double wall_s{0.0};
  double qps{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  double hit_rate{0.0};
  rag::Server::Stats stats;
};

double percentile_ms(std::vector<double>& lat_s, double p) {
  rag::LatencyTracker t;
  for (double s : lat_s) t.record(s);
  return t.percentile(p) * 1e3;
}

double result_hit_rate(const rag::Server::Stats& s) {
  const auto total = s.result_hits + s.result_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(s.result_hits) /
                          static_cast<double>(total);
}

/// Closed loop: @p clients threads, each answering its share of
/// @p requests synchronously.  Throughput is requests / wall.
LoadResult closed_loop(rag::RagPipeline& pipeline,
                       const rag::ServeOptions& opts,
                       runtime::Scheduler* scheduler,
                       const std::vector<std::string>& requests,
                       unsigned clients) {
  rag::Server server(pipeline, opts, scheduler);
  std::mutex mutex;
  std::vector<double> latencies;
  latencies.reserve(requests.size());

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += clients) {
        const auto s0 = Clock::now();
        server.answer(requests[i]).value();
        const double lat = seconds_between(s0, Clock::now());
        std::lock_guard lock(mutex);
        latencies.push_back(lat);
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  LoadResult r;
  r.wall_s = seconds_between(t0, Clock::now());
  r.qps = static_cast<double>(requests.size()) / r.wall_s;
  r.p50_ms = percentile_ms(latencies, 50.0);
  r.p99_ms = percentile_ms(latencies, 99.0);
  r.stats = server.stats();
  r.hit_rate = result_hit_rate(r.stats);
  return r;
}

/// Open loop: requests are dispatched on a fixed schedule at
/// @p offered_qps regardless of completion; latency is measured from the
/// *scheduled* arrival, so time spent queued behind a saturated server is
/// part of the number (the SLO-relevant definition).
LoadResult open_loop(rag::RagPipeline& pipeline, const rag::ServeOptions& opts,
                     runtime::Scheduler* scheduler,
                     const std::vector<std::string>& requests,
                     double offered_qps) {
  rag::Server server(pipeline, opts, scheduler);
  std::mutex mutex;
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  std::atomic<std::size_t> outstanding{requests.size()};

  const auto interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered_qps));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto scheduled = t0 + interval * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(scheduled);
    auto future = server.submit(requests[i]);
    future.erased().on_ready([&, scheduled](const runtime::AnyFuture&) {
      const double lat = seconds_between(scheduled, Clock::now());
      {
        std::lock_guard lock(mutex);
        latencies.push_back(lat);
      }
      outstanding.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  server.drain();
  while (outstanding.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  server.stop();

  LoadResult r;
  r.wall_s = seconds_between(t0, Clock::now());
  r.qps = offered_qps;
  r.p50_ms = percentile_ms(latencies, 50.0);
  r.p99_ms = percentile_ms(latencies, 99.0);
  r.stats = server.stats();
  r.hit_rate = result_hit_rate(r.stats);
  return r;
}

rag::ServeOptions serial_options() {
  rag::ServeOptions o;
  o.max_batch = 1;
  o.max_delay_us = 0;
  o.embed_cache_entries = 0;
  o.result_cache_entries = 0;
  return o;
}


void print_row(const char* mode, unsigned workers, const LoadResult& r) {
  std::printf("%10s %8u %10.0f %10.3f %10.3f %9.0f%% %8llu\n", mode, workers,
              r.qps, r.p50_ms, r.p99_ms, 100.0 * r.hit_rate,
              static_cast<unsigned long long>(r.stats.largest_batch));
}

void json_row(std::FILE* f, const char* mode, unsigned workers,
              const LoadResult& r, bool last) {
  std::fprintf(f,
               "    {\"mode\": \"%s\", \"workers\": %u, \"qps\": %.1f, "
               "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"hit_rate\": %.4f, "
               "\"batches\": %llu, \"largest_batch\": %llu}%s\n",
               mode, workers, r.qps, r.p50_ms, r.p99_ms, r.hit_rate,
               static_cast<unsigned long long>(r.stats.batches),
               static_cast<unsigned long long>(r.stats.largest_batch),
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_rag.json";
  const char* workers_arg = "";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      workers_arg = argv[++i];
  }
  const std::vector<unsigned> sweep =
      bench::parse_workers(workers_arg, std::vector<unsigned>{4});

  bench::header("serve_rag",
                "RAG serving: dynamic batching + caches vs serial, SLO view");

  stats::Rng rng(14);
  rag::SyntheticCorpusParams params;
  params.num_docs = smoke ? 400 : 2000;
  params.num_topics = 20;
  const auto synth = rag::synthetic_corpus(params, rng);

  rag::RagConfig cfg;
  cfg.embed_dim = smoke ? 128 : 256;
  cfg.top_k = 4;
  cfg.generator.retrieval_boost = 25.0;

  // --- HNSW conformance: the ANN index the server would swap in ----------
  double hnsw_recall = 0.0;
  std::size_t tuned_ef = 0;
  {
    bench::section("hnsw conformance (recall@10 vs brute force)");
    rag::TfIdfEncoder enc(cfg.embed_dim);
    enc.fit(synth.corpus);
    const auto vectors = enc.encode_corpus(synth.corpus);
    rag::BruteForceIndex exact(cfg.embed_dim);
    exact.add(vectors);
    rag::HnswIndex hnsw(cfg.embed_dim);
    hnsw.add(vectors);

    const std::size_t nq = 16;
    tensor::Tensor queries(nq, cfg.embed_dim);
    for (std::size_t i = 0; i < nq; ++i) {
      const auto q = enc.encode(rag::synthetic_query(
          params, static_cast<int>(i) % params.num_topics, rng));
      std::copy(q.data(), q.data() + cfg.embed_dim,
                queries.data() + i * cfg.embed_dim);
    }
    const auto truth = exact.search(nullptr, queries, 10).value();
    hnsw_recall =
        rag::recall_at_k(truth, hnsw.search(nullptr, queries, 10).value());
    tuned_ef = rag::tune_hnsw_ef(hnsw, nullptr, queries, 10, truth, 0.95);
    std::printf("%zu vectors, dim %zu: recall@10 %.3f (default ef %zu), "
                "autotuned ef_search %zu\n",
                hnsw.size(), hnsw.dim(), hnsw_recall,
                rag::HnswParams{}.ef_search, tuned_ef);
  }

  // --- serving load ------------------------------------------------------
  const std::size_t distinct = smoke ? 50 : 200;
  const std::size_t n_requests = smoke ? 150 : 1200;
  std::vector<std::string> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i)
    pool.push_back(rag::synthetic_query(
        params, static_cast<int>(i) % params.num_topics, rng));
  Zipf zipf(distinct, rng);
  std::vector<std::string> requests;
  requests.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) requests.push_back(pool[zipf()]);

  auto make_pipeline = [&] {
    return std::make_unique<rag::RagPipeline>(
        synth.corpus, std::make_unique<rag::BruteForceIndex>(cfg.embed_dim),
        nullptr, cfg);
  };

  struct Entry {
    const char* phase;
    const char* mode;
    unsigned workers;
    LoadResult r;
  };
  std::vector<Entry> entries;
  double p99_improvement = 0.0;

  for (const unsigned w : sweep) {
    gpu::Executor ex(w);
    compute::set_executor(&ex);

    bench::section("closed loop, " + std::to_string(w) +
                   " workers (4 clients, Zipfian over " +
                   std::to_string(distinct) + " queries)");
    std::printf("%10s %8s %10s %10s %10s %10s %8s\n", "mode", "workers",
                "qps", "p50 ms", "p99 ms", "hit rate", "max bat");
    auto serial_pipe = make_pipeline();
    const auto closed_serial = closed_loop(*serial_pipe, serial_options(),
                                           &ex.scheduler(), requests, 4);
    print_row("serial", w, closed_serial);
    entries.push_back({"closed", "serial", w, closed_serial});

    auto served_pipe = make_pipeline();
    const auto closed_served = closed_loop(*served_pipe, rag::ServeOptions{},
                                           &ex.scheduler(), requests, 4);
    print_row("batched", w, closed_served);
    entries.push_back({"closed", "batched", w, closed_served});

    // Open loop at equal offered load for both modes: past the serial
    // server's measured capacity, so its queue (and tail) grows while the
    // batched+cached server absorbs the same schedule.
    const double offered = 1.3 * closed_serial.qps;
    bench::section("open loop, " + std::to_string(w) + " workers (offered " +
                   std::to_string(static_cast<int>(offered)) + " qps)");
    std::printf("%10s %8s %10s %10s %10s %10s %8s\n", "mode", "workers",
                "qps", "p50 ms", "p99 ms", "hit rate", "max bat");
    auto open_serial_pipe = make_pipeline();
    const auto open_serial = open_loop(*open_serial_pipe, serial_options(),
                                       &ex.scheduler(), requests, offered);
    print_row("serial", w, open_serial);
    entries.push_back({"open", "serial", w, open_serial});

    auto open_served_pipe = make_pipeline();
    const auto open_served = open_loop(*open_served_pipe, rag::ServeOptions{},
                                       &ex.scheduler(), requests, offered);
    print_row("batched", w, open_served);
    entries.push_back({"open", "batched", w, open_served});

    if (open_served.p99_ms > 0.0)
      p99_improvement = open_serial.p99_ms / open_served.p99_ms;
    std::printf("open-loop p99: serial %.3f ms vs batched+cached %.3f ms "
                "-> %.1fx better tail at equal offered load\n",
                open_serial.p99_ms, open_served.p99_ms, p99_improvement);

    compute::set_executor(nullptr);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"bench\": \"serve_rag\",\n");
      std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
      bench::json_run_info(f, bench::run_info(sweep.back()));
      std::fprintf(f, ",\n");
      std::fprintf(f,
                   "  \"hnsw\": {\"count\": %zu, \"recall_at_10\": %.4f, "
                   "\"tuned_ef\": %zu},\n",
                   synth.corpus.size(), hnsw_recall, tuned_ef);
      std::fprintf(f, "  \"requests\": %zu,\n", n_requests);
      std::fprintf(f, "  \"closed_loop\": [\n");
      std::vector<const Entry*> closed, open;
      for (const Entry& e : entries)
        (std::strcmp(e.phase, "closed") == 0 ? closed : open).push_back(&e);
      for (std::size_t i = 0; i < closed.size(); ++i)
        json_row(f, closed[i]->mode, closed[i]->workers, closed[i]->r,
                 i + 1 == closed.size());
      std::fprintf(f, "  ],\n  \"open_loop\": [\n");
      for (std::size_t i = 0; i < open.size(); ++i)
        json_row(f, open[i]->mode, open[i]->workers, open[i]->r,
                 i + 1 == open.size());
      std::fprintf(f, "  ],\n  \"open_loop_p99_improvement\": %.2f\n}\n",
                   p99_improvement);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path.c_str());
    }
  }
  return 0;
}
