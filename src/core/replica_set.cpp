#include "core/replica_set.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sagesim::core {

void validate_fault_options(const GcnFaultOptions& ft, const std::string& who) {
  if (!ft.enabled) return;
  if (ft.checkpoint_dir.empty())
    throw std::invalid_argument(who +
                                ": fault tolerance needs a checkpoint_dir");
  if (ft.checkpoint_every < 1)
    throw std::invalid_argument(who + ": checkpoint_every must be >= 1");
  if (ft.max_chunk_attempts < 1)
    throw std::invalid_argument(who + ": max_chunk_attempts must be >= 1");
}

void GcnReplicaSet::RankStep::backward(const tensor::Tensor& dlogits,
                                       bool notify) const {
  if (notify && sync != nullptr) {
    // DDP-style backward hook: buckets fire on the comm streams while the
    // rest of backward still runs.
    model.backward(device, dlogits, [this](nn::Param* p) {
      sync->notify_grad_ready(static_cast<std::size_t>(rank), p);
    });
  } else {
    model.backward(device, dlogits);
  }
}

GcnReplicaSet::GcnReplicaSet(dflow::Cluster& cluster, Options options,
                             Hooks hooks)
    : cluster_(cluster),
      options_(std::move(options)),
      hooks_(std::move(hooks)) {}

void GcnReplicaSet::build(
    const std::vector<const graph::NormalizedAdjacency*>& adjacency) {
  replicas_.clear();
  optimizers_.clear();
  sync_.reset();
  for (const graph::NormalizedAdjacency* adj : adjacency) {
    replicas_.push_back(std::make_unique<nn::Gcn>(adj, options_.model));
    optimizers_.push_back(
        std::make_unique<nn::Sgd>(options_.learning_rate, 0.9f));
  }
  if (replicas_.size() > 1) {
    // Replicas share the init seed, so their parameters start identical;
    // the broadcast charges the wire cost of sending θ explicitly.
    std::vector<std::vector<nn::Param*>> param_sets;
    param_sets.reserve(replicas_.size());
    for (auto& r : replicas_) param_sets.push_back(r->params());
    auto& devices = cluster_.devices();
    ddp::broadcast_params(devices, param_sets);
    sync_ = std::make_unique<ddp::GradientSynchronizer>(
        devices, param_sets,
        ddp::SyncOptions{.bucket_bytes = options_.ddp_bucket_bytes,
                         .overlap = options_.ddp_overlap});
  }
  lanes_.resize(replicas_.size());
  for (std::size_t r = 0; r < lanes_.size(); ++r)
    lanes_[r] = static_cast<int>(r);
}

Status GcnReplicaSet::place() {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    auto& dev = cluster_.devices().device(static_cast<std::size_t>(lanes_[r]));
    if (hooks_.place_data) {
      const Status s = hooks_.place_data(static_cast<int>(r), dev);
      if (!s.ok()) return s;
    }
    for (nn::Param* p : replicas_[r]->params())
      for (tensor::Tensor* t : {&p->value, &p->grad})
        if (const Status s = t->to_device(dev); !s.ok()) return s;
  }
  return {};
}

Status GcnReplicaSet::run_chunk(std::size_t s0, std::size_t s1) {
  // Quiescent on entry (any prior chunk's futures were waited out): drop
  // readiness state an aborted attempt may have left behind, so a re-run
  // never mixes stale notifications with fresh ones.
  if (sync_) sync_->reset_pending();
  if (hooks_.before_chunk) hooks_.before_chunk(s0, s1, lanes_);

  // Per step s and rank r:  compute[s][r] -> allreduce[s] -> update[s][r],
  // and compute[s+1][r] depends on update[s][r].  Dependency edges replace
  // per-step host barriers.
  const std::size_t k = replicas_.size();
  std::vector<dflow::Future> prev(k, dflow::Future::immediate({}));
  std::vector<std::vector<dflow::Future>> step_losses;
  step_losses.reserve(s1 - s0);
  for (std::size_t s = s0; s < s1; ++s) {
    std::vector<dflow::Future> computes;
    computes.reserve(k);
    for (std::size_t r = 0; r < k; ++r)
      computes.push_back(cluster_.submit(
          options_.compute_task + ":" + std::to_string(r),
          [this, r](dflow::WorkerCtx& ctx) -> std::any {
            return hooks_.step(RankStep{static_cast<int>(r), *replicas_[r],
                                        ctx.device, sync_.get()});
          },
          {prev[r]}, lanes_[r]));

    dflow::Future reduced = cluster_.submit(
        options_.allreduce_task,
        [this](dflow::WorkerCtx&) -> std::any {
          if (sync_) sync_->sync();
          return {};
        },
        computes, /*rank=*/-1);

    for (std::size_t r = 0; r < k; ++r)
      prev[r] = cluster_.submit(
          options_.update_task + ":" + std::to_string(r),
          [this, r](dflow::WorkerCtx& ctx) -> std::any {
            auto params = replicas_[r]->params();
            optimizers_[r]->step(ctx.device, params);
            return {};
          },
          {reduced}, lanes_[r]);
    step_losses.push_back(std::move(computes));
  }

  // A task resolves only after every task it depends on, so once the last
  // updates resolve no task of the chunk still references replica state.
  Status first{};
  for (const auto& f : prev) {
    const Status s = f.wait_status();
    if (!s.ok() && first.ok()) first = s;
  }
  if (!first.ok()) return first;

  for (const auto& computes : step_losses) {
    double loss = 0.0;
    for (const auto& f : computes) {
      Expected<double> v = f.result<double>();
      if (!v) return v.status();
      loss += *v;
    }
    losses_.push_back(loss / static_cast<double>(k));
  }
  return {};
}

nn::ReplicaRefs GcnReplicaSet::refs() {
  nn::ReplicaRefs refs;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    refs.params.push_back(replicas_[r]->params());
    refs.optimizers.push_back(optimizers_[r].get());
    refs.rngs.push_back(&replicas_[r]->rng().engine());
  }
  return refs;
}

Status GcnReplicaSet::save(std::uint64_t step, const GcnFaultOptions& ft) {
  nn::Checkpoint ckpt;
  ckpt.epoch = step;
  nn::put_replica_state(ckpt, refs(), losses_);
  const Status s = nn::save_checkpoint(
      nn::checkpoint_path(ft.checkpoint_dir, ft.checkpoint_prefix, step),
      ckpt);
  if (s.ok()) ++stats_.checkpoints_written;
  return s;
}

Status GcnReplicaSet::restore(const nn::Checkpoint& ckpt) {
  // The dropout RNG streams are per replica, and restoring them is what
  // makes a re-run bit-identical to a run never preempted.  After a shrink
  // the streams belong to another world size; the new replicas keep fresh
  // seeds (bit-identity is abandoned, as GcnFaultOptions::allow_shrink
  // says).  Parameters and optimizer state carry over either way.
  nn::ReplicaRefs r = refs();
  if (nn::replica_count(ckpt) != replicas_.size()) r.rngs.clear();
  if (const Status s = nn::restore_replica_state(ckpt, r, &losses_); !s.ok())
    return s;
  // Restored parameters are host tensors; put them back on their devices.
  if (const Status s = place(); !s.ok()) return s;
  ++stats_.checkpoints_restored;
  return {};
}

Status GcnReplicaSet::remap(const Status& cause, const ShrinkFn& shrink) {
  const bool lost = std::any_of(lanes_.begin(), lanes_.end(), [&](int lane) {
    return !cluster_.rank_available(lane);
  });
  if (!lost) return {};
  // Lanes reclaimed for good: move every replica onto the survivors.
  const std::vector<int> survivors = cluster_.active_ranks();
  const auto k = replicas_.size();
  if (survivors.size() >= k) {
    lanes_.assign(survivors.begin(),
                  survivors.begin() + static_cast<std::ptrdiff_t>(k));
    return {};
  }
  if (!shrink || survivors.empty())
    return Status::unavailable(options_.who + ": only " +
                               std::to_string(survivors.size()) + " of " +
                               std::to_string(k) + " ranks available: " +
                               cause.message());
  Expected<std::vector<const graph::NormalizedAdjacency*>> adjacency =
      shrink(static_cast<int>(survivors.size()));
  if (!adjacency) return adjacency.status();
  build(*adjacency);
  lanes_ = survivors;
  return {};
}

Status GcnReplicaSet::run_checkpointed(std::size_t total_steps,
                                       const GcnFaultOptions& ft,
                                       const ShrinkFn& shrink) {
  // Resume-on-entry: a same-k checkpoint in the directory means this call
  // is the restarted half of a preempted run — pick up where it left off.
  std::size_t step = 0;
  if (Expected<nn::Checkpoint> latest =
          nn::load_latest_checkpoint(ft.checkpoint_dir, ft.checkpoint_prefix);
      latest && nn::replica_count(*latest) == replicas_.size()) {
    if (const Status s = restore(*latest); !s.ok()) return s;
    step = static_cast<std::size_t>(latest->epoch);
  }
  // Step-0 checkpoint right after init, so every recovery — including a
  // failure in the very first chunk — restores through the same path.
  if (step == 0) {
    if (const Status s = save(0, ft); !s.ok()) return s;
  }

  int failures = 0;  // of the chunk now being attempted
  while (step < total_steps) {
    const std::size_t end =
        std::min(step + static_cast<std::size_t>(ft.checkpoint_every),
                 total_steps);
    const Status status = run_chunk(step, end);
    if (status.ok()) {
      step = end;
      failures = 0;
      if (const Status s = save(step, ft); !s.ok()) return s;
      continue;
    }
    if (!status.retryable()) return status;
    if (++failures == ft.max_chunk_attempts)
      return Status::unavailable(
          options_.who + ": chunk at step " + std::to_string(step) +
          " failed after " + std::to_string(failures) +
          " attempts: " + status.message());
    ++stats_.chunk_restarts;
    if (const Status s = remap(status, shrink); !s.ok()) return s;
    Expected<nn::Checkpoint> latest =
        nn::load_latest_checkpoint(ft.checkpoint_dir, ft.checkpoint_prefix);
    if (!latest) return latest.status();
    if (const Status s = restore(*latest); !s.ok()) return s;
    step = static_cast<std::size_t>(latest->epoch);
  }
  return {};
}

}  // namespace sagesim::core
