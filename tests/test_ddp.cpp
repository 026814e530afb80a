// Unit tests for ddp: gradient synchronization equivalence with single-GPU
// training, ring-vs-naive agreement, and the data-parallel trainer.
#include <gtest/gtest.h>

#include "ddp/grad_sync.hpp"
#include "ddp/trainer.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"

#include <filesystem>

#include "mem/buffer.hpp"
#include "mem/pool.hpp"

namespace ddp = sagesim::ddp;
namespace nn = sagesim::nn;
namespace gpu = sagesim::gpu;
namespace tensor = sagesim::tensor;
using sagesim::stats::Rng;

namespace {

std::unique_ptr<nn::Sequential> make_mlp(std::uint64_t seed, std::size_t in,
                                         std::size_t hidden,
                                         std::size_t out) {
  Rng rng(seed);
  auto m = std::make_unique<nn::Sequential>();
  m->emplace<nn::Dense>(in, hidden, rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Dense>(hidden, out, rng);
  return m;
}

}  // namespace

TEST(GradSync, AveragesGradientsAcrossReplicas) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto m0 = make_mlp(1, 4, 8, 2);
  auto m1 = make_mlp(1, 4, 8, 2);

  // Hand-set distinct gradients.
  for (nn::Param* p : m0->params())
    for (std::size_t i = 0; i < p->size(); ++i) p->grad[i] = 2.0f;
  for (nn::Param* p : m1->params())
    for (std::size_t i = 0; i < p->size(); ++i) p->grad[i] = 4.0f;

  ddp::GradientSynchronizer sync(dm, {m0->params(), m1->params()});
  sync.sync();

  for (nn::Param* p : m0->params())
    for (std::size_t i = 0; i < p->size(); ++i)
      ASSERT_FLOAT_EQ(p->grad[i], 3.0f);
  for (nn::Param* p : m1->params())
    for (std::size_t i = 0; i < p->size(); ++i)
      ASSERT_FLOAT_EQ(p->grad[i], 3.0f);
}

TEST(GradSync, NaiveAlgoGivesSameResult) {
  gpu::DeviceManager dm(3, gpu::spec::test_tiny());
  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<std::vector<nn::Param*>> params;
  for (int r = 0; r < 3; ++r) {
    models.push_back(make_mlp(1, 3, 4, 2));
    auto ps = models.back()->params();
    float v = static_cast<float>(r + 1);
    for (nn::Param* p : ps)
      for (std::size_t i = 0; i < p->size(); ++i) p->grad[i] = v;
    params.push_back(std::move(ps));
  }
  ddp::GradientSynchronizer sync(dm, params, ddp::AllReduceAlgo::kNaive);
  sync.sync();
  for (const auto& ps : params)
    for (nn::Param* p : ps)
      for (std::size_t i = 0; i < p->size(); ++i)
        ASSERT_FLOAT_EQ(p->grad[i], 2.0f);  // mean of 1,2,3
}

TEST(GradSync, ValidatesReplicaShapes) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto a = make_mlp(1, 4, 8, 2);
  auto b = make_mlp(1, 4, 16, 2);  // different hidden width
  EXPECT_THROW(ddp::GradientSynchronizer(dm, {a->params(), b->params()}),
               std::invalid_argument);
  auto c = make_mlp(1, 4, 8, 2);
  EXPECT_THROW(ddp::GradientSynchronizer(dm, {a->params()}),
               std::invalid_argument);
}

namespace {

/// Fills every replica's gradients with a deterministic rank- and
/// index-dependent pattern so averaging mistakes show up at exact bits.
void fill_grads(std::vector<std::vector<nn::Param*>>& replicas) {
  for (std::size_t r = 0; r < replicas.size(); ++r)
    for (nn::Param* p : replicas[r])
      for (std::size_t i = 0; i < p->size(); ++i)
        p->grad[i] = static_cast<float>(r + 1) * 0.375f +
                     static_cast<float>(i % 11) * 0.0625f -
                     static_cast<float>(i % 5);
}

std::vector<float> collect_grads(
    const std::vector<std::vector<nn::Param*>>& replicas) {
  std::vector<float> out;
  for (const auto& ps : replicas)
    for (const nn::Param* p : ps)
      for (std::size_t i = 0; i < p->size(); ++i) out.push_back(p->grad[i]);
  return out;
}

}  // namespace

// Bucketing and overlap are schedule choices; the averaged bits must not
// depend on them.  Every config below must match the flat single-bucket
// result exactly — bitwise — for every allreduce algorithm.
class GradSyncBucketedConformance
    : public ::testing::TestWithParam<ddp::AllReduceAlgo> {};

TEST_P(GradSyncBucketedConformance, MatchesFlatBitIdentically) {
  const ddp::AllReduceAlgo algo = GetParam();
  const std::size_t world = 3;

  auto run = [&](std::size_t bucket_bytes, bool overlap,
                 bool notify) -> std::vector<float> {
    gpu::DeviceManager dm(world, gpu::spec::test_tiny());
    std::vector<std::unique_ptr<nn::Sequential>> models;
    std::vector<std::vector<nn::Param*>> replicas;
    for (std::size_t r = 0; r < world; ++r) {
      models.push_back(make_mlp(1, 5, 9, 3));
      replicas.push_back(models.back()->params());
    }
    fill_grads(replicas);
    ddp::GradientSynchronizer sync(
        dm, replicas,
        ddp::SyncOptions{
            .algo = algo, .bucket_bytes = bucket_bytes, .overlap = overlap});
    if (notify) {
      // Reverse parameter order, ranks interleaved — the order backward
      // produces gradients; full buckets fire on the comm streams here.
      for (std::size_t i = replicas[0].size(); i-- > 0;)
        for (std::size_t r = 0; r < world; ++r)
          sync.notify_grad_ready(r, replicas[r][i]);
    }
    sync.sync();
    return collect_grads(replicas);
  };

  const std::vector<float> flat =
      run(std::size_t{1} << 30, /*overlap=*/false, /*notify=*/false);
  EXPECT_EQ(flat, run(100, false, false)) << "bucketed != flat";
  EXPECT_EQ(flat, run(100, true, true)) << "bucketed+overlap != flat";
  EXPECT_EQ(flat, run(100, true, false))
      << "overlap without notifications != flat";
  EXPECT_EQ(flat, run(40, true, true)) << "one-param buckets != flat";
}

INSTANTIATE_TEST_SUITE_P(Algos, GradSyncBucketedConformance,
                         ::testing::Values(ddp::AllReduceAlgo::kRing,
                                           ddp::AllReduceAlgo::kNaive));

TEST(GradSync, DuplicateNotificationsAreIgnored) {
  // A retried backward task re-reports parameters it already reported; the
  // averaged result must not double-count.
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto m0 = make_mlp(1, 4, 8, 2);
  auto m1 = make_mlp(1, 4, 8, 2);
  std::vector<std::vector<nn::Param*>> replicas{m0->params(), m1->params()};
  fill_grads(replicas);
  const std::vector<float> before = collect_grads(replicas);

  ddp::GradientSynchronizer sync(
      dm, replicas, ddp::SyncOptions{.bucket_bytes = 64, .overlap = true});
  for (int repeat = 0; repeat < 3; ++repeat)
    for (std::size_t i = replicas[0].size(); i-- > 0;)
      for (std::size_t r = 0; r < 2; ++r)
        sync.notify_grad_ready(r, replicas[r][i]);
  sync.sync();

  const std::vector<float> averaged = collect_grads(replicas);
  for (std::size_t i = 0; i < before.size() / 2; ++i)
    ASSERT_FLOAT_EQ(averaged[i], (before[i] + before[before.size() / 2 + i]) / 2)
        << "element " << i;
}

TEST(GradSync, NotifyValidatesRankAndParam) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto m0 = make_mlp(1, 4, 8, 2);
  auto m1 = make_mlp(1, 4, 8, 2);
  ddp::GradientSynchronizer sync(dm, {m0->params(), m1->params()});
  EXPECT_THROW(sync.notify_grad_ready(2, m0->params()[0]),
               std::out_of_range);
  nn::Param stranger(2, 2);
  EXPECT_THROW(sync.notify_grad_ready(0, &stranger), std::invalid_argument);
  // Wrong rank's param pointer is also a bug worth catching early.
  EXPECT_THROW(sync.notify_grad_ready(0, m1->params()[0]),
               std::invalid_argument);
}

TEST(GradSync, ZeroBucketBytesMeansDefault) {
  // A set bucket size is kept, and 0 means kDefaultBucketBytes (4 MiB).
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  nn::Param p0(4, 8), p1(4, 8);
  const std::vector<std::vector<nn::Param*>> replicas{{&p0}, {&p1}};
  const ddp::GradientSynchronizer set(
      dm, replicas, ddp::SyncOptions{.bucket_bytes = 256});
  EXPECT_EQ(set.options().bucket_bytes, 256u);
  const ddp::GradientSynchronizer unset(dm, replicas, ddp::SyncOptions{});
  EXPECT_EQ(unset.options().bucket_bytes, std::size_t{4} << 20);
}

TEST(GradSync, BroadcastDevicePlacedParamsUsesAccountedPeerCopies) {
  // Regression: broadcast_params used to memcpy device-placed replicas on
  // the host — no trace event, no simulated time on either device, and a
  // hop priced as if device 0 always sent.  Device-resident replicas must
  // travel as genuine peer copies that advance both endpoints' clocks.
  namespace prof = sagesim::prof;
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto a = make_mlp(1, 4, 8, 2);
  auto b = make_mlp(999, 4, 8, 2);  // different init
  std::vector<std::vector<nn::Param*>> replicas{a->params(), b->params()};
  for (std::size_t r = 0; r < 2; ++r)
    for (nn::Param* p : replicas[r])
      p->value.to_device(dm.device(r)).throw_if_error();

  ddp::broadcast_params(dm, replicas);

  // Values propagated from rank 0...
  for (std::size_t i = 0; i < replicas[0].size(); ++i)
    for (std::size_t j = 0; j < replicas[0][i]->size(); ++j)
      ASSERT_FLOAT_EQ(replicas[1][i]->value[j], replicas[0][i]->value[j]);
  // ...as accounted D2D copies, one per parameter...
  std::size_t peer_copies = 0;
  for (const auto& e : dm.timeline().snapshot(prof::EventKind::kMemcpyD2D))
    if (e.name == "memcpy_peer") ++peer_copies;
  EXPECT_EQ(peer_copies, replicas[0].size());
  // ...that cost simulated time on BOTH devices (the link is busy at each
  // end), not just the sender.
  EXPECT_GT(dm.device(0).stream_time(0), 0.0);
  EXPECT_GT(dm.device(1).stream_time(0), 0.0);
}

TEST(GradSync, BroadcastParamsMakesReplicasIdentical) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto a = make_mlp(1, 4, 8, 2);
  auto b = make_mlp(999, 4, 8, 2);  // different init
  std::vector<std::vector<nn::Param*>> replicas{a->params(), b->params()};
  ddp::broadcast_params(dm, replicas);
  Rng rng(5);
  tensor::Tensor x(3, 4);
  x.init_uniform(rng, -1, 1);
  const auto ya = a->forward(nullptr, x, false);
  const auto yb = b->forward(nullptr, x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) ASSERT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(DdpEquivalence, TwoGpuStepMatchesSingleGpuFullBatch) {
  // The fundamental DDP contract: averaging per-shard gradients of a
  // *linear* loss-mean equals the full-batch gradient when shards are
  // equal-sized, so one DDP step == one full-batch step.
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);

  Rng rng(7);
  const std::size_t n = 64, d = 6;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 1));
  }

  // Reference: single full-batch SGD step (no dropout anywhere).
  auto ref = make_mlp(123, d, 8, 2);
  nn::Sgd ref_opt(0.1f);
  ref->zero_grad();
  auto loss = nn::softmax_cross_entropy(nullptr, ref->forward(nullptr, x, true), y);
  ref->backward(nullptr, loss.dlogits);
  auto ref_params = ref->params();
  ref_opt.step(nullptr, ref_params);

  // DDP: 2 replicas, same init seed.
  ddp::DataParallelTrainer trainer(
      cluster, [&] { return make_mlp(123, d, 8, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); });
  ASSERT_TRUE(trainer.try_step(x, y));

  const auto y_ref = ref->forward(nullptr, x, false);
  const auto y_ddp = trainer.predict(x);
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    ASSERT_NEAR(y_ref[i], y_ddp[i], 1e-4f) << "at " << i;
}

TEST(DdpTrainer, LossDecreasesOverSteps) {
  gpu::DeviceManager dm(4, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  Rng rng(8);
  const std::size_t n = 128, d = 8;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -0.7 : 0.7, 1));
  }
  ddp::DataParallelTrainer trainer(
      cluster, [&] { return make_mlp(55, d, 16, 2); },
      [] { return std::make_unique<nn::Adam>(5e-3f); });
  double first = 0.0, last = 0.0;
  for (int s = 0; s < 25; ++s) {
    const auto stats = trainer.try_step(x, y).value();
    if (s == 0) first = stats.mean_loss;
    last = stats.mean_loss;
    EXPECT_GT(stats.sim_time_s, 0.0);
  }
  EXPECT_LT(last, first);
  EXPECT_GT(nn::accuracy(trainer.predict(x), y), 0.8);
}

TEST(DdpTrainer, RingAndNaiveConvergeIdentically) {
  Rng rng(9);
  const std::size_t n = 64, d = 4;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 0.5));
  }

  auto run = [&](ddp::AllReduceAlgo algo) {
    gpu::DeviceManager dm(2, gpu::spec::test_tiny());
    sagesim::dflow::Cluster cluster(dm);
    ddp::DataParallelTrainer trainer(
        cluster, [&] { return make_mlp(321, d, 8, 2); },
        [] { return std::make_unique<nn::Sgd>(0.05f); },
        ddp::TrainerOptions{.algo = algo});
    for (int s = 0; s < 10; ++s) EXPECT_TRUE(trainer.try_step(x, y));
    return trainer.predict(x);
  };
  const auto ring = run(ddp::AllReduceAlgo::kRing);
  const auto naive = run(ddp::AllReduceAlgo::kNaive);
  for (std::size_t i = 0; i < ring.size(); ++i)
    ASSERT_NEAR(ring[i], naive[i], 1e-4f);
}

TEST(DdpTrainer, RejectsDegenerateInputs) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  EXPECT_THROW(ddp::DataParallelTrainer(
                   cluster, [] { return make_mlp(1, 2, 4, 2); },
                   [] { return std::make_unique<nn::Sgd>(0.1f); }),
               std::invalid_argument);  // single worker

  gpu::DeviceManager dm2(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster2(dm2);
  ddp::DataParallelTrainer trainer(
      cluster2, [] { return make_mlp(1, 2, 4, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); });
  tensor::Tensor x(1, 2);  // batch smaller than world size
  const std::vector<int> y{0};
  EXPECT_THROW((void)trainer.try_step(x, y), std::invalid_argument);
}

TEST(DdpTrainer, PlacesReplicasOnRankDevices) {
  namespace mem = sagesim::mem;
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  ddp::DataParallelTrainer trainer(
      cluster, [] { return make_mlp(11, 4, 8, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); });
  for (int r = 0; r < 2; ++r) {
    for (nn::Param* p : trainer.replica(r).params()) {
      EXPECT_EQ(p->value.placement(), mem::Placement::kDevice);
      EXPECT_EQ(p->grad.placement(), mem::Placement::kDevice);
      ASSERT_NE(p->value.device(), nullptr);
      EXPECT_EQ(p->value.device()->ordinal(), r);
    }
  }
}

TEST(DdpTrainer, CheckpointRoundTripsPlacement) {
  namespace mem = sagesim::mem;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sagesim_test_ddp_place")
          .string();
  std::filesystem::remove_all(dir);

  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  Rng rng(14);
  const std::size_t n = 32, d = 4;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 1));
  }

  ddp::TrainerOptions opts;
  opts.checkpoint_dir = dir;
  ddp::DataParallelTrainer a(
      cluster, [] { return make_mlp(77, 4, 8, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); }, opts);
  for (int s = 0; s < 3; ++s) ASSERT_TRUE(a.try_step(x, y));
  ASSERT_TRUE(a.save_checkpoint(3).ok());
  const auto ref = a.predict(x);

  // A fresh trainer restores values AND placement: every parameter comes
  // back device-resident on the rank it was saved from.
  ddp::DataParallelTrainer b(
      cluster, [] { return make_mlp(1234, 4, 8, 2); },  // different init
      [] { return std::make_unique<nn::Sgd>(0.1f); }, opts);
  sagesim::Expected<std::uint64_t> epoch = b.restore_latest();
  ASSERT_TRUE(epoch);
  EXPECT_EQ(*epoch, 3u);
  for (int r = 0; r < 2; ++r) {
    for (nn::Param* p : b.replica(r).params()) {
      EXPECT_EQ(p->value.placement(), mem::Placement::kDevice);
      ASSERT_NE(p->value.device(), nullptr);
      EXPECT_EQ(p->value.device()->ordinal(), r);
    }
  }
  const auto restored = b.predict(x);
  ASSERT_EQ(ref.size(), restored.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], restored[i]) << "at " << i;  // bit-identical restore
  std::filesystem::remove_all(dir);
}

TEST(DdpTrainer, PoolHitRateExceedsNinetyPercentAfterWarmup) {
  namespace mem = sagesim::mem;
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  Rng rng(15);
  const std::size_t n = 64, d = 8;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 1));
  }
  ddp::DataParallelTrainer trainer(
      cluster, [] { return make_mlp(5, 8, 16, 2); },
      [] { return std::make_unique<nn::Adam>(1e-3f); });
  for (int s = 0; s < 3; ++s)
    ASSERT_TRUE(trainer.try_step(x, y));  // warm every size class

  mem::host_pool().reset_stats();
  mem::device_pool(dm.device(0)).reset_stats();
  mem::device_pool(dm.device(1)).reset_stats();
  for (int s = 0; s < 20; ++s) ASSERT_TRUE(trainer.try_step(x, y));

  // Steady state allocates the same sizes every step, so the free lists
  // serve (nearly) everything; a sub-90% rate means recycling regressed.
  EXPECT_GT(mem::host_pool().stats().hit_rate(), 0.9);
  for (int r = 0; r < 2; ++r) {
    const mem::PoolStats s = mem::device_pool(dm.device(r)).stats();
    EXPECT_GT(s.hit_rate(), 0.9) << "device " << r;
    EXPECT_GT(s.hits, 0u);
  }
}

TEST(DdpTrainer, GradAccumulationMatchesSingleMicroBatch) {
  // Gradient accumulation contract: splitting each rank's shard into A
  // contiguous micro-batches and accumulating (with per-slice dlogits
  // rescaled by slice/shard row ratio) must recover the same mean-over-shard
  // gradient as one pass — so A=4 and A=1 land on the same parameters up to
  // float summation-order noise.  No dropout so forward is deterministic.
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  Rng rng(11);
  const std::size_t n = 64, d = 6;
  tensor::Tensor x(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t f = 0; f < d; ++f)
      x.at(i, f) = static_cast<float>(rng.normal(y[i] == 0 ? -1 : 1, 1));
  }

  auto run = [&](std::size_t accum) {
    ddp::TrainerOptions opts;
    opts.grad_accum_steps = accum;
    ddp::DataParallelTrainer trainer(
        cluster, [&] { return make_mlp(321, d, 8, 2); },
        [] { return std::make_unique<nn::Sgd>(0.1f); }, opts);
    for (int s = 0; s < 3; ++s) EXPECT_TRUE(trainer.try_step(x, y));
    return trainer.predict(x);
  };

  const auto base = run(1);
  const auto split = run(4);
  ASSERT_EQ(base.size(), split.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    ASSERT_NEAR(base[i], split[i], 1e-5f) << "at " << i;
}

TEST(DdpTrainer, GradAccumulationValidatesOptions) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::dflow::Cluster cluster(dm);
  tensor::Tensor x(8, 4);
  std::vector<int> y(8, 0);
  ddp::TrainerOptions opts;
  opts.grad_accum_steps = 0;
  ddp::DataParallelTrainer zero(
      cluster, [&] { return make_mlp(1, 4, 8, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); }, opts);
  EXPECT_THROW((void)zero.try_step(x, y), std::invalid_argument);

  // 8 rows / 2 ranks = 4 per shard; 8 micro-batches per shard would leave
  // empty slices — rejected, not silently degenerate.
  opts.grad_accum_steps = 8;
  ddp::DataParallelTrainer shredded(
      cluster, [&] { return make_mlp(1, 4, 8, 2); },
      [] { return std::make_unique<nn::Sgd>(0.1f); }, opts);
  EXPECT_THROW((void)shredded.try_step(x, y), std::invalid_argument);
}
