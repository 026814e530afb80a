// rag::Server — the serving front end over RagPipeline.
//
// Requests enter an admission queue; a dedicated batcher thread flushes it
// into the pipeline whenever `max_batch` queries are waiting or the oldest
// has waited `max_delay_us` (the classic dynamic-batching tradeoff: larger
// batches amortize the GEMM retrieval sweep, the delay cap bounds the
// latency cost of waiting for peers).  Each flushed batch runs as one
// "rag_batch" task on the work-stealing runtime scheduler, so serving
// shares workers with everything else built on it.
//
// Two caches short-circuit the pipeline, both keyed by the stable query id
// (RagPipeline::query_id, FNV-1a of the text):
//  * the result cache answers exact repeats at submit time without ever
//    queueing, and
//  * the embedding cache skips re-encoding known queries inside a batch.
// Generation is seeded per query id, so cached, batched and serial answers
// are bit-identical (text, hit lists, ids) — caching can only change
// latency, never content.
//
// Failures are values end to end: a request that outlives
// ServeOptions::deadline_s in the queue completes its future with
// kDeadlineExceeded (retryable), and pipeline failures propagate their
// Status through Future::result().  Hit/miss/batch counts surface only
// through Server::stats().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rag/cache.hpp"
#include "rag/latency.hpp"
#include "rag/pipeline.hpp"
#include "runtime/scheduler.hpp"

namespace sagesim::rag {

class Server {
 public:
  /// Snapshot of lifetime serving counters.
  struct Stats {
    std::uint64_t submitted{0};
    std::uint64_t completed{0};        ///< answered (cached or computed)
    std::uint64_t failed{0};           ///< any failure, deadline included
    std::uint64_t deadline_misses{0};
    std::uint64_t batches{0};
    std::uint64_t batched_queries{0};  ///< queries that went through batches
    std::uint64_t largest_batch{0};
    std::uint64_t result_hits{0};
    std::uint64_t result_misses{0};
    std::uint64_t embed_hits{0};
    std::uint64_t embed_misses{0};
    std::uint64_t result_evictions{0};
    std::uint64_t embed_evictions{0};
  };

  /// Serves @p pipeline with @p options, running batch tasks on
  /// @p scheduler (the process-shared runtime pool when null).  The
  /// pipeline must outlive the server; the server is the pipeline's only
  /// user while serving (RagPipeline itself is not thread-safe).
  Server(RagPipeline& pipeline, ServeOptions options,
         runtime::Scheduler* scheduler = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one query; the future completes with its RagAnswer, a
  /// kDeadlineExceeded failure, or the pipeline's error.  Result-cache hits
  /// complete before submit returns.
  runtime::Future<RagAnswer> submit(const std::string& query);

  /// Synchronous convenience: submit + result().
  Expected<RagAnswer> answer(const std::string& query);

  /// Blocks until every admitted request has completed.
  void drain();

  /// Flushes the queue (no new admissions race it — callers stop first),
  /// completes outstanding requests, and joins the batcher.  Idempotent;
  /// the destructor calls it.
  void stop();

  Stats stats() const;
  /// Admission-to-completion wall latency of completed requests (copy).
  LatencyTracker latency() const;
  const ServeOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string query;
    std::uint64_t id{0};
    runtime::AnyFuture promise;
    std::chrono::steady_clock::time_point admitted;
  };

  void batcher_main();
  void process_batch(std::vector<Pending> batch);

  RagPipeline& pipeline_;
  ServeOptions options_;
  runtime::Scheduler* scheduler_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;          ///< wakes the batcher
  std::condition_variable drained_cv_;  ///< wakes drain()
  std::deque<Pending> queue_;
  bool stop_{false};
  bool busy_{false};  ///< a batch is being processed
  LruCache<std::uint64_t, std::vector<float>> embed_cache_;
  LruCache<std::uint64_t, RagAnswer> result_cache_;
  Stats stats_;
  LatencyTracker latency_;

  std::thread batcher_;  ///< last member: started after state is ready
};

}  // namespace sagesim::rag
