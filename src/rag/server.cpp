#include "rag/server.hpp"

#include <algorithm>
#include <any>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

namespace sagesim::rag {

using Clock = std::chrono::steady_clock;

Server::Server(RagPipeline& pipeline, ServeOptions options,
               runtime::Scheduler* scheduler)
    : pipeline_(pipeline),
      options_(options),
      scheduler_(scheduler != nullptr ? scheduler
                                      : &runtime::Scheduler::shared()),
      embed_cache_(options.embed_cache_entries),
      result_cache_(options.result_cache_entries) {
  if (options.max_batch == 0)
    throw std::invalid_argument("Server: max_batch must be > 0");
  batcher_ = std::thread([this] { batcher_main(); });
}

Server::~Server() { stop(); }

runtime::Future<RagAnswer> Server::submit(const std::string& query) {
  const std::uint64_t id = RagPipeline::query_id(query);
  const auto admitted = Clock::now();
  runtime::AnyFuture promise;
  promise.set_name("rag_request");

  bool rejected = false;
  std::optional<RagAnswer> cached;
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      rejected = true;
    } else {
      ++stats_.submitted;
      cached = result_cache_.get(id);
      if (cached) {
        ++stats_.completed;
        latency_.record(
            std::chrono::duration<double>(Clock::now() - admitted).count());
      } else {
        queue_.push_back(Pending{query, id, promise, admitted});
        cv_.notify_one();
      }
    }
  }

  if (rejected) {
    promise.fail(std::make_exception_ptr(StatusError(
        Status::failed_precondition("rag::Server stopped"))));
  } else if (cached) {
    promise.deliver(std::any(std::move(*cached)));
  }
  return runtime::Future<RagAnswer>(promise);
}

Expected<RagAnswer> Server::answer(const std::string& query) {
  return submit(query).result();
}

void Server::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
}

void Server::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

Server::Stats Server::stats() const {
  std::lock_guard lock(mutex_);
  Stats s = stats_;
  s.result_hits = result_cache_.hits();
  s.result_misses = result_cache_.misses();
  s.result_evictions = result_cache_.evictions();
  s.embed_hits = embed_cache_.hits();
  s.embed_misses = embed_cache_.misses();
  s.embed_evictions = embed_cache_.evictions();
  return s;
}

LatencyTracker Server::latency() const {
  std::lock_guard lock(mutex_);
  return latency_;
}

void Server::batcher_main() {
  std::unique_lock lock(mutex_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // stop() flushes: only exit once drained
      continue;
    }

    // Flush when max_batch queries wait or the oldest hits max_delay_us;
    // a stop request flushes immediately.
    if (!stop_ && queue_.size() < options_.max_batch &&
        options_.max_delay_us > 0) {
      const auto flush_at =
          queue_.front().admitted +
          std::chrono::microseconds(options_.max_delay_us);
      cv_.wait_until(lock, flush_at, [&] {
        return stop_ || queue_.size() >= options_.max_batch;
      });
    }

    std::vector<Pending> batch;
    const std::size_t take = std::min(queue_.size(), options_.max_batch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    busy_ = true;
    lock.unlock();
    process_batch(std::move(batch));
    lock.lock();
    busy_ = false;
    if (queue_.empty()) drained_cv_.notify_all();
  }
}

void Server::process_batch(std::vector<Pending> batch) {
  // Expire requests that outlived their queueing deadline before doing any
  // work for them — under overload this is the back-pressure signal.
  std::vector<Pending> live;
  live.reserve(batch.size());
  if (options_.deadline_s > 0.0) {
    const auto now = Clock::now();
    std::vector<Pending> expired;
    for (auto& p : batch) {
      const double waited =
          std::chrono::duration<double>(now - p.admitted).count();
      (waited > options_.deadline_s ? expired : live).push_back(std::move(p));
    }
    if (!expired.empty()) {
      {
        std::lock_guard lk(mutex_);
        stats_.failed += expired.size();
        stats_.deadline_misses += expired.size();
      }
      for (auto& p : expired)
        p.promise.fail(std::make_exception_ptr(DeadlineExceeded(
            "request waited past the " + std::to_string(options_.deadline_s) +
            "s serve deadline")));
    }
  } else {
    live = std::move(batch);
  }
  if (live.empty()) return;

  // Assemble the encoded batch, row by row through the embedding cache.
  const std::size_t dim = pipeline_.config().embed_dim;
  tensor::Tensor encoded(live.size(), dim);
  std::vector<std::string> queries;
  queries.reserve(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    queries.push_back(live[i].query);
    std::optional<std::vector<float>> row;
    {
      std::lock_guard lk(mutex_);
      row = embed_cache_.get(live[i].id);
    }
    if (!row) {
      const tensor::Tensor e = pipeline_.encode_query(live[i].query);
      row.emplace(e.data(), e.data() + e.size());
      std::lock_guard lk(mutex_);
      embed_cache_.put(live[i].id, *row);
    }
    std::copy(row->begin(), row->end(), encoded.data() + i * dim);
  }

  // One retrieval + generation sweep as a task on the runtime pool.  The
  // batcher blocks on it, so batches are strictly sequential and the
  // pipeline sees a single caller.
  auto future = scheduler_->submit(
      "rag_batch", [this, encoded, queries]() -> std::vector<RagAnswer> {
        auto r = pipeline_.answer_encoded(encoded, queries);
        r.status().throw_if_error();
        return std::move(r).value();
      });
  const auto result = future.result();

  {
    std::lock_guard lk(mutex_);
    ++stats_.batches;
    stats_.batched_queries += live.size();
    stats_.largest_batch =
        std::max<std::uint64_t>(stats_.largest_batch, live.size());
  }

  if (!result.has_value()) {
    {
      std::lock_guard lk(mutex_);
      stats_.failed += live.size();
    }
    for (auto& p : live)
      p.promise.fail(std::make_exception_ptr(StatusError(result.status())));
    return;
  }

  const auto done = Clock::now();
  for (std::size_t i = 0; i < live.size(); ++i) {
    RagAnswer a = (*result)[i];
    {
      std::lock_guard lk(mutex_);
      result_cache_.put(live[i].id, a);
      ++stats_.completed;
      latency_.record(
          std::chrono::duration<double>(done - live[i].admitted).count());
    }
    live[i].promise.deliver(std::any(std::move(a)));
  }
}

}  // namespace sagesim::rag
