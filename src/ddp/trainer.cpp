#include "ddp/trainer.hpp"

#include <stdexcept>
#include <utility>

#include "tensor/ops.hpp"

namespace sagesim::ddp {

DataParallelTrainer::DataParallelTrainer(dflow::Cluster& cluster,
                                         const ModelFactory& model,
                                         const OptimizerFactory& optimizer,
                                         TrainerOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  const int world = cluster_.world_size();
  if (world < 2)
    throw std::invalid_argument(
        "DataParallelTrainer: need >= 2 workers (use a plain loop for 1)");
  models_.reserve(static_cast<std::size_t>(world));
  optimizers_.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    models_.push_back(model());
    optimizers_.push_back(optimizer());
  }

  place_replicas().throw_if_error();
  // Broadcast after placement, so rank 0's weights travel the peer links as
  // accounted device-to-device copies.
  std::vector<std::vector<nn::Param*>> replicas = refs().params;
  broadcast_params(cluster_.devices(), replicas);
  sync_ = std::make_unique<GradientSynchronizer>(
      cluster_.devices(), replicas,
      SyncOptions{.algo = options_.algo,
                  .bucket_bytes = options_.bucket_bytes,
                  .overlap = options_.overlap});
}

Expected<StepStats> DataParallelTrainer::try_step(const tensor::Tensor& x,
                                                  std::span<const int> y) {
  if (y.size() != x.rows())
    throw std::invalid_argument("DataParallelTrainer::step: one label per row");
  const auto world = static_cast<std::size_t>(cluster_.world_size());
  const std::size_t accum = options_.grad_accum_steps;
  if (accum == 0)
    throw std::invalid_argument(
        "DataParallelTrainer::step: grad_accum_steps must be >= 1");
  if (x.rows() < world * accum)
    throw std::invalid_argument(
        "DataParallelTrainer::step: batch smaller than world * accum slices");

  const double t0 = cluster_.devices().now_s();

  // Quiescent here (every prior step's futures were waited out), so any
  // readiness state left by an aborted attempt is safe to drop.
  sync_->reset_pending();

  // One step = one task DAG on the unified runtime:
  // forward/backward per rank (pinned) -> gradient all-reduce (unpinned,
  // stealable) -> optimizer step per rank (pinned).  Every node goes
  // through submit_retry: an injected preemption fails the attempt *before*
  // the body runs, so re-running is always safe; the real bodies are also
  // idempotent (zero_grad at the top; averaging already-equal grads is a
  // fixed point), so a retry after a genuine mid-body failure converges
  // too.
  std::vector<dflow::Future> grads;
  grads.reserve(world);
  for (std::size_t r = 0; r < world; ++r) {
    grads.push_back(cluster_.submit_retry(
        "ddp_step:" + std::to_string(r),
        [&, r](dflow::WorkerCtx& ctx) -> std::any {
          const std::size_t begin = r * x.rows() / world;
          const std::size_t end = (r + 1) * x.rows() / world;
          const std::size_t rows = end - begin;

          auto& model = *models_[r];
          model.zero_grad();
          double shard_loss = 0.0;
          for (std::size_t a = 0; a < accum; ++a) {
            const std::size_t mb = begin + a * rows / accum;
            const std::size_t me = begin + (a + 1) * rows / accum;
            const std::size_t mrows = me - mb;

            tensor::Tensor slice(mrows, x.cols());
            std::copy(x.data() + mb * x.cols(), x.data() + me * x.cols(),
                      slice.data());
            if (ctx.device != nullptr)
              slice.to_device(*ctx.device).throw_if_error();
            std::vector<int> labels(
                y.begin() + static_cast<std::ptrdiff_t>(mb),
                y.begin() + static_cast<std::ptrdiff_t>(me));

            tensor::Tensor logits =
                model.forward(ctx.device, slice, /*train=*/true);
            auto loss = nn::softmax_cross_entropy(ctx.device, logits, labels);
            const float w =
                static_cast<float>(mrows) / static_cast<float>(rows);
            shard_loss += loss.loss * static_cast<double>(w);
            if (accum > 1)
              // Per-slice dlogits are means over mrows; re-weight so the
              // accumulated gradient is the mean over the whole shard.
              tensor::ops::scale(ctx.device, loss.dlogits, w);
            // Sync hooks fire only on the final slice — earlier backwards
            // must accumulate locally, not trigger a partial all-reduce.
            if (options_.overlap && a + 1 == accum) {
              model.backward(ctx.device, loss.dlogits, [&](nn::Param* p) {
                sync_->notify_grad_ready(r, p);
              });
            } else {
              model.backward(ctx.device, loss.dlogits);
            }
          }
          return shard_loss;
        },
        {}, static_cast<int>(r), options_.retry, options_.task_timeout_s));
  }

  dflow::Future reduced = cluster_.submit_retry(
      "ddp_allreduce",
      [&](dflow::WorkerCtx&) -> std::any {
        sync_->sync();
        return {};
      },
      grads, /*rank=*/-1, options_.retry, options_.task_timeout_s);

  std::vector<dflow::Future> steps;
  steps.reserve(world);
  for (std::size_t r = 0; r < world; ++r) {
    steps.push_back(cluster_.submit_retry(
        "ddp_optim:" + std::to_string(r),
        [&, r](dflow::WorkerCtx& ctx) -> std::any {
          auto params = models_[r]->params();
          optimizers_[r]->step(ctx.device, params);
          return {};
        },
        {reduced}, static_cast<int>(r), options_.retry,
        options_.task_timeout_s));
  }
  for (const auto& f : steps) {
    const Status s = f.wait_status();
    if (!s.ok()) return s;
  }

  StepStats stats;
  for (const auto& f : grads) {
    Expected<double> loss = f.result<double>();
    if (!loss) return loss.status();
    stats.mean_loss += *loss;
  }
  stats.mean_loss /= static_cast<double>(world);
  stats.sim_time_s = cluster_.devices().now_s() - t0;
  return stats;
}

nn::ReplicaRefs DataParallelTrainer::refs() const {
  nn::ReplicaRefs refs;
  for (std::size_t r = 0; r < models_.size(); ++r) {
    refs.params.push_back(models_[r]->params());
    refs.optimizers.push_back(optimizers_[r].get());
  }
  return refs;
}

Status DataParallelTrainer::place_replicas() {
  // "model.to(device)": each replica's parameters and gradients live on its
  // rank's device (accounted H2D).  Compute is unchanged: device storage
  // stays host-reachable, so kernels read the same bits either way.
  for (std::size_t r = 0; r < models_.size(); ++r) {
    auto& dev = cluster_.devices().device(r);
    for (nn::Param* p : models_[r]->params())
      for (tensor::Tensor* t : {&p->value, &p->grad})
        if (const Status s = t->to_device(dev); !s.ok()) return s;
  }
  return {};
}

Status DataParallelTrainer::save_checkpoint(std::uint64_t epoch) const {
  if (options_.checkpoint_dir.empty())
    return Status::failed_precondition(
        "DataParallelTrainer: checkpointing disabled (no checkpoint_dir)");
  nn::Checkpoint ckpt;
  ckpt.epoch = epoch;
  nn::put_replica_state(ckpt, refs(), {});
  return nn::save_checkpoint(
      nn::checkpoint_path(options_.checkpoint_dir, options_.checkpoint_prefix,
                          epoch),
      ckpt);
}

Expected<std::uint64_t> DataParallelTrainer::restore_latest() {
  if (options_.checkpoint_dir.empty())
    return Status::failed_precondition(
        "DataParallelTrainer: checkpointing disabled (no checkpoint_dir)");
  Expected<nn::Checkpoint> loaded = nn::load_latest_checkpoint(
      options_.checkpoint_dir, options_.checkpoint_prefix);
  if (!loaded) return loaded.status();
  if (nn::replica_count(*loaded) != models_.size())
    return Status::failed_precondition(
        "DataParallelTrainer: checkpoint world size mismatch");
  if (const Status s = nn::restore_replica_state(*loaded, refs(), nullptr);
      !s.ok())
    return s;
  // Restored values are host copies; each goes back to its rank's device.
  if (const Status s = place_replicas(); !s.ok()) return s;
  return loaded->epoch;
}

tensor::Tensor DataParallelTrainer::predict(const tensor::Tensor& x) {
  return models_.front()->forward(&cluster_.devices().device(0), x,
                                  /*train=*/false);
}

}  // namespace sagesim::ddp
