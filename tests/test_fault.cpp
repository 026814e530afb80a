// The fault-injection matrix: deterministic injector draws, preemption and
// deadline semantics on the runtime, retry/backoff and rank elasticity on
// the cluster, the spot market -> membership binding, checkpoint/restart
// (including truncated-file recovery), and the headline property — a
// distributed GCN run under seeded preemption reaches the same final loss
// as the fault-free run, bit-identically, through >= 2 checkpoint restores.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/provisioner.hpp"
#include "cloudsim/spot.hpp"
#include "core/distributed_gcn.hpp"
#include "ddp/trainer.hpp"
#include "dflow/cluster.hpp"
#include "dflow/elastic.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "runtime/fault.hpp"
#include "runtime/scheduler.hpp"

namespace fs = std::filesystem;
namespace rt = sagesim::runtime;
namespace cloud = sagesim::cloud;
namespace core = sagesim::core;
namespace ddp = sagesim::ddp;
namespace dflow = sagesim::dflow;
namespace gpu = sagesim::gpu;
namespace graph = sagesim::graph;
namespace nn = sagesim::nn;
namespace tensor = sagesim::tensor;
using sagesim::ErrorCode;
using sagesim::Expected;
using sagesim::Status;
using sagesim::stats::Rng;
using namespace std::chrono_literals;

namespace {

/// Fresh scratch directory under the system temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sagesim_fault_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

graph::Dataset small_dataset(std::uint64_t seed = 77) {
  Rng rng(seed);
  graph::PlantedPartitionParams p;
  p.num_nodes = 240;
  p.num_classes = 3;
  p.feature_dim = 16;
  p.intra_edge_prob = 0.06;
  p.inter_edge_prob = 0.003;
  p.feature_noise_sd = 1.0;
  return graph::planted_partition(p, rng);
}

core::DistributedGcnConfig gcn_config(int k, int epochs = 16) {
  core::DistributedGcnConfig cfg;
  cfg.num_partitions = k;
  cfg.epochs = epochs;
  cfg.hidden = 8;
  cfg.dropout = 0.1f;
  return cfg;
}

std::unique_ptr<nn::Sequential> make_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto m = std::make_unique<nn::Sequential>();
  m->emplace<nn::Dense>(4, 8, rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Dense>(8, 2, rng);
  return m;
}

}  // namespace

// --- FaultInjector ------------------------------------------------------------

TEST(FaultInjector, SameSeedSameProgramSameDecisions) {
  rt::FaultConfig cfg;
  cfg.seed = 123;
  cfg.preempt_probability = 0.3;
  cfg.delay_probability = 0.3;

  rt::FaultInjector a(cfg);
  rt::FaultInjector b(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.plan("task");
    const auto db = b.plan("task");
    EXPECT_EQ(da.preempt, db.preempt);
    EXPECT_EQ(da.delay_ms, db.delay_ms);
  }
  EXPECT_GT(a.preemptions(), 0u);
  EXPECT_GT(a.delays(), 0u);
}

TEST(FaultInjector, NonMatchingNamesConsumeNoDraws) {
  rt::FaultConfig cfg;
  cfg.seed = 9;
  cfg.preempt_probability = 0.5;
  cfg.name_filter = "allreduce";

  rt::FaultInjector a(cfg);
  rt::FaultInjector b(cfg);
  // b plans a pile of unrelated tasks first; the targeted stream must not
  // shift (this is what keeps fault patterns stable as programs grow).
  for (int i = 0; i < 50; ++i) {
    const auto d = b.plan("gcn_epoch");
    EXPECT_FALSE(d.preempt);
    EXPECT_EQ(d.delay_ms, 0.0);
  }
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(a.plan("grad_allreduce").preempt,
              b.plan("grad_allreduce").preempt);
}

TEST(FaultInjector, MaxPreemptionsCapsInjection) {
  rt::FaultConfig cfg;
  cfg.seed = 5;
  cfg.preempt_probability = 1.0;
  cfg.max_preemptions = 3;
  rt::FaultInjector inj(cfg);
  int preempted = 0;
  for (int i = 0; i < 10; ++i)
    if (inj.plan("t").preempt) ++preempted;
  EXPECT_EQ(preempted, 3);
  EXPECT_EQ(inj.preemptions(), 3u);
}

TEST(FaultInjector, FromEnvReadsSeedAndRate) {
  ::setenv("SAGESIM_FAULT_SEED", "777", 1);
  ::setenv("SAGESIM_FAULT_RATE", "0.25", 1);
  const auto cfg = rt::FaultConfig::from_env();
  EXPECT_EQ(cfg.seed, 777u);
  EXPECT_DOUBLE_EQ(cfg.preempt_probability, 0.25);
  ::unsetenv("SAGESIM_FAULT_RATE");
  const auto defaulted = rt::FaultConfig::from_env();
  EXPECT_DOUBLE_EQ(defaulted.preempt_probability, 0.05);
  ::unsetenv("SAGESIM_FAULT_SEED");
  const auto off = rt::FaultConfig::from_env();
  EXPECT_DOUBLE_EQ(off.preempt_probability, 0.0);
}

// --- runtime-level injection --------------------------------------------------

TEST(RuntimeFault, InjectedPreemptionFailsWithoutRunningBody) {
  rt::Scheduler sched(2);
  rt::FaultConfig cfg;
  cfg.preempt_probability = 1.0;
  cfg.max_preemptions = 1;
  sched.set_fault_injector(std::make_shared<rt::FaultInjector>(cfg));

  std::atomic<bool> ran{false};
  auto doomed = sched.submit("victim", [&] { ran.store(true); return 1; });
  const Status s = doomed.wait_status();
  EXPECT_EQ(s.code(), ErrorCode::kPreempted);
  EXPECT_TRUE(s.retryable());
  EXPECT_FALSE(ran.load());  // side-effect free: a retry is always safe

  auto fine = sched.submit("survivor", [] { return 2; });
  EXPECT_EQ(fine.get(), 2);
}

TEST(RuntimeFault, InjectedDelayStillSucceeds) {
  rt::Scheduler sched(2);
  rt::FaultConfig cfg;
  cfg.delay_probability = 1.0;
  cfg.delay_ms = 1.0;
  auto inj = std::make_shared<rt::FaultInjector>(cfg);
  sched.set_fault_injector(inj);
  auto f = sched.submit("slowed", [] { return 3; });
  EXPECT_EQ(f.get(), 3);
  EXPECT_GE(inj->delays(), 1u);
}

TEST(RuntimeFault, DeadlineExceededWhenStartMissesTimeout) {
  rt::Scheduler sched(2);
  auto slow = sched.submit("slow_dep", [] {
    std::this_thread::sleep_for(20ms);
    return 0;
  });
  // The dependent's deadline (1us after submit) has long passed by the time
  // its dependency clears, so it must fail retryably without running.
  std::atomic<bool> ran{false};
  auto late = sched.submit(
      "late", [&] { ran.store(true); return 1; }, {slow.erased()},
      /*lane=*/-1, /*timeout_s=*/1e-6);
  const Status s = late.wait_status();
  EXPECT_EQ(s.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(s.retryable());
  EXPECT_FALSE(ran.load());
}

// --- cluster retry and elasticity ---------------------------------------------

TEST(ClusterFault, SubmitRetrySurvivesInjectedPreemptions) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.seed = 1;
  faults.preempt_probability = 1.0;
  faults.max_preemptions = 2;
  faults.name_filter = "flaky";
  opts.faults = faults;
  dflow::Cluster cluster(dm, opts);

  // Default policy allows 3 attempts; the first two are preempted by the
  // injector (cap 2), the third runs clean.
  auto f = cluster.submit_retry("flaky",
                                [](dflow::WorkerCtx&) -> std::any { return 7; });
  EXPECT_EQ(f.result<int>().value(), 7);
  EXPECT_EQ(cluster.fault_injector()->preemptions(), 2u);
}

TEST(ClusterFault, RetryBudgetExhaustionSurfacesLastFailure) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.preempt_probability = 1.0;  // every attempt dies
  faults.name_filter = "cursed";
  opts.faults = faults;
  dflow::Cluster cluster(dm, opts);

  auto f = cluster.submit_retry(
      "cursed", [](dflow::WorkerCtx&) -> std::any { return 1; });
  const Status s = f.wait_status();
  EXPECT_EQ(s.code(), ErrorCode::kPreempted);
}

TEST(ClusterFault, PinnedSubmitToPreemptedRankFailsFast) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  cluster.preempt_rank(0);
  EXPECT_FALSE(cluster.rank_available(0));
  EXPECT_EQ(cluster.active_world_size(), 1);

  auto f = cluster.submit(
      "pinned", [](dflow::WorkerCtx&) -> std::any { return 1; }, {}, 0);
  const Status s = f.wait_status();
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(s.retryable());

  // submit_retry degrades to the stealable pool: work migrates off the
  // reclaimed rank instead of waiting for it.
  auto retried = cluster.submit_retry(
      "migrates", [](dflow::WorkerCtx&) -> std::any { return 5; }, {}, 0);
  EXPECT_EQ(retried.result<int>().value(), 5);

  cluster.restore_rank(0);
  EXPECT_TRUE(cluster.rank_available(0));
  auto back = cluster.submit(
      "pinned2", [](dflow::WorkerCtx&) -> std::any { return 6; }, {}, 0);
  EXPECT_EQ(back.result<int>().value(), 6);
}

TEST(ClusterFault, TryGatherReturnsFirstFailureInOrder) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  auto good = cluster.submit("g", [](dflow::WorkerCtx&) -> std::any { return 1; });
  auto bad = cluster.submit("b", [](dflow::WorkerCtx&) -> std::any {
    throw sagesim::Preempted("mid-collective");
  });
  const auto gathered = cluster.try_gather({good, bad});
  ASSERT_FALSE(gathered);
  EXPECT_EQ(gathered.status().code(), ErrorCode::kPreempted);

  const auto all_good = cluster.try_gather({good});
  ASSERT_TRUE(all_good);
  EXPECT_EQ(std::any_cast<int>((*all_good)[0]), 1);
}

TEST(ClusterFault, RankValidationThrows) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  EXPECT_THROW(cluster.preempt_rank(5), std::out_of_range);
  EXPECT_THROW(cluster.restore_rank(-1), std::out_of_range);
}

// --- ddp: preempt during the all-reduce ---------------------------------------

TEST(DdpFault, StepSurvivesPreemptedAllReduce) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.seed = 3;
  faults.preempt_probability = 1.0;
  faults.max_preemptions = 1;
  faults.name_filter = "allreduce";
  opts.faults = faults;
  dflow::Cluster cluster(dm, opts);

  ddp::DataParallelTrainer trainer(
      cluster, [] { return make_mlp(11); },
      [] { return std::make_unique<nn::Sgd>(0.05f); }, ddp::TrainerOptions{});

  Rng rng(21);
  tensor::Tensor x(8, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal());
  std::vector<int> y(8);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);

  const Expected<ddp::StepStats> stats = trainer.try_step(x, y);
  ASSERT_TRUE(stats) << stats.status().to_string();
  EXPECT_GT(stats->mean_loss, 0.0);
  EXPECT_EQ(cluster.fault_injector()->preemptions(), 1u);

  // Replicas stayed in sync through the retried collective.
  const Expected<ddp::StepStats> again = trainer.try_step(x, y);
  ASSERT_TRUE(again) << again.status().to_string();
}

TEST(DdpFault, CheckpointRestoreRewindsParameters) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  ddp::TrainerOptions opts;
  opts.checkpoint_dir = scratch_dir("ddp_ckpt");
  ddp::DataParallelTrainer trainer(
      cluster, [] { return make_mlp(13); },
      [] { return std::make_unique<nn::Sgd>(0.05f, 0.9f); }, opts);

  Rng rng(22);
  tensor::Tensor x(8, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal());
  std::vector<int> y{0, 1, 0, 1, 0, 1, 0, 1};
  tensor::Tensor probe(2, 4);
  for (std::size_t i = 0; i < probe.size(); ++i)
    probe.data()[i] = 0.25f * static_cast<float>(i);

  for (int s = 0; s < 3; ++s) ASSERT_TRUE(trainer.try_step(x, y));
  ASSERT_TRUE(trainer.save_checkpoint(3).ok());
  const tensor::Tensor at_ckpt = trainer.predict(probe);

  for (int s = 0; s < 2; ++s)
    ASSERT_TRUE(trainer.try_step(x, y));  // drift past the save
  const Expected<std::uint64_t> epoch = trainer.restore_latest();
  ASSERT_TRUE(epoch) << epoch.status().to_string();
  EXPECT_EQ(*epoch, 3u);

  const tensor::Tensor restored = trainer.predict(probe);
  ASSERT_TRUE(restored.same_shape(at_ckpt));
  for (std::size_t i = 0; i < restored.size(); ++i)
    ASSERT_EQ(restored.data()[i], at_ckpt.data()[i]) << "logit " << i;
}

TEST(DdpFault, RejectsPerReplicaCheckpointLayout) {
  // The per-replica layout older builds wrote ("world", "r<r>.param<i>",
  // ...) is refused as a whole: no replica is touched.
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  ddp::TrainerOptions opts;
  opts.checkpoint_dir = scratch_dir("ddp_old_layout");
  ddp::DataParallelTrainer trainer(
      cluster, [] { return make_mlp(13); },
      [] { return std::make_unique<nn::Sgd>(0.05f, 0.9f); }, opts);

  nn::Checkpoint old;
  old.epoch = 3;
  old.scalars["world"] = 2.0;
  std::vector<std::vector<tensor::Tensor>> before(2);
  for (int r = 0; r < 2; ++r) {
    const std::string base = "r" + std::to_string(r) + ".";
    const auto params = trainer.replica(r).params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      before[static_cast<std::size_t>(r)].push_back(
          params[p]->value.host_copy());
      tensor::Tensor t(params[p]->value.rows(), params[p]->value.cols());
      t.fill(0.5f);
      old.put(base + "param" + std::to_string(p), t);
    }
    old.scalars[base + "opt_n"] = 0.0;
    old.scalars[base + "opt_t"] = 0.0;
  }
  ASSERT_TRUE(
      nn::save_checkpoint(nn::checkpoint_path(opts.checkpoint_dir, "ddp", 3),
                          old)
          .ok());

  const Expected<std::uint64_t> epoch = trainer.restore_latest();
  ASSERT_FALSE(epoch);
  EXPECT_EQ(epoch.status().code(), ErrorCode::kFailedPrecondition);
  for (int r = 0; r < 2; ++r) {
    const auto params = trainer.replica(r).params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      const tensor::Tensor now = params[p]->value.host_copy();
      const tensor::Tensor& was = before[static_cast<std::size_t>(r)][p];
      ASSERT_TRUE(now.same_shape(was));
      for (std::size_t i = 0; i < now.size(); ++i)
        ASSERT_EQ(now.data()[i], was.data()[i])
            << "rank " << r << " param " << p << " elem " << i;
    }
  }
}

// --- spot market --------------------------------------------------------------

TEST(SpotFleet, PriceTraceIsStepFunction) {
  cloud::SpotFleetConfig cfg;
  cfg.trace = {{0.0, 0.5}, {1.0, 2.0}, {2.0, 0.4}};
  cloud::SpotFleet fleet(1, cfg);
  EXPECT_DOUBLE_EQ(fleet.price_at(0.0), 0.5);
  EXPECT_DOUBLE_EQ(fleet.price_at(0.99), 0.5);
  EXPECT_DOUBLE_EQ(fleet.price_at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(fleet.price_at(5.0), 0.4);
}

TEST(SpotFleet, NoticeReclaimReacquireCycle) {
  cloud::SpotFleetConfig cfg;
  cfg.trace = {{0.0, 0.5}, {1.0, 2.0}, {1.2, 0.5}};
  cfg.bid_usd = 1.0;
  cfg.grace_window_h = 0.05;
  cfg.reacquire_delay_h = 0.1;
  cloud::SpotFleet fleet(2, cfg);

  const auto events = fleet.advance(3.0);
  ASSERT_TRUE(events) << events.status().to_string();

  // Per slot: notice at the spike, reclaim one grace window later, capacity
  // back after the price drop plus the re-acquisition delay.
  int noticed = 0, reclaimed = 0, held = 0;
  double last_t = 0.0;
  for (const auto& ev : *events) {
    EXPECT_GE(ev.time_h, last_t);  // ordered stream
    last_t = ev.time_h;
    switch (ev.state) {
      case cloud::SpotSlotState::kNoticed:
        ++noticed;
        EXPECT_NEAR(ev.time_h, 1.0, 1e-9);
        break;
      case cloud::SpotSlotState::kReclaimed:
        ++reclaimed;
        EXPECT_NEAR(ev.time_h, 1.05, 1e-9);
        break;
      case cloud::SpotSlotState::kHeld:
        ++held;
        EXPECT_GE(ev.time_h, 1.2 + 0.1 - 1e-9);
        break;
    }
  }
  EXPECT_EQ(noticed, 2);
  EXPECT_EQ(reclaimed, 2);
  EXPECT_EQ(held, 2);
  EXPECT_EQ(fleet.preemption_count(), 2u);
  EXPECT_EQ(fleet.reacquisition_count(), 2u);
  EXPECT_EQ(fleet.held_count(), 2);
}

TEST(SpotFleet, NoticeIsFinalEvenIfPriceRecovers) {
  cloud::SpotFleetConfig cfg;
  // Spike shorter than the grace window: price is back under bid at 1.02
  // but the notice at 1.0 still reclaims at 1.05 (the real spot contract).
  cfg.trace = {{0.0, 0.5}, {1.0, 2.0}, {1.02, 0.5}};
  cfg.bid_usd = 1.0;
  cfg.grace_window_h = 0.05;
  cfg.reacquire_delay_h = 0.1;
  cloud::SpotFleet fleet(1, cfg);

  const auto events = fleet.advance(0.9);
  ASSERT_TRUE(events);
  EXPECT_TRUE(events->empty());

  const auto rest = fleet.advance(2.0);
  ASSERT_TRUE(rest);
  std::vector<cloud::SpotSlotState> seq;
  for (const auto& ev : *rest) seq.push_back(ev.state);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], cloud::SpotSlotState::kNoticed);
  EXPECT_EQ(seq[1], cloud::SpotSlotState::kReclaimed);
  EXPECT_EQ(seq[2], cloud::SpotSlotState::kHeld);
  EXPECT_NEAR((*rest)[1].time_h, 1.05, 1e-9);
}

TEST(SpotFleet, BackwardsClockIsInvalidArgument) {
  cloud::SpotFleetConfig cfg;
  cfg.trace = {{0.0, 0.5}};
  cloud::SpotFleet fleet(1, cfg);
  ASSERT_TRUE(fleet.advance(1.0));
  const auto back = fleet.advance(0.5);
  ASSERT_FALSE(back);
  EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SpotFleet, ConstructorRejectsMisuse) {
  EXPECT_THROW(cloud::SpotFleet(1, {}), std::invalid_argument);  // empty trace
  cloud::SpotFleetConfig unsorted;
  unsorted.trace = {{1.0, 0.5}, {0.5, 0.5}};
  EXPECT_THROW(cloud::SpotFleet(1, unsorted), std::invalid_argument);
  cloud::SpotFleetConfig ok;
  ok.trace = {{0.0, 0.5}};
  EXPECT_THROW(cloud::SpotFleet(0, ok), std::invalid_argument);
}

TEST(SpotFleet, SyntheticTraceDrivesFullCycles) {
  const auto trace = cloud::synthetic_price_trace(10.0, 0.4, 2.0, 3, 0.5);
  cloud::SpotFleetConfig cfg;
  cfg.trace = trace;
  cfg.bid_usd = 1.0;
  cloud::SpotFleet fleet(2, cfg);
  const auto events = fleet.advance(10.0);
  ASSERT_TRUE(events);
  EXPECT_EQ(fleet.preemption_count(), 3u * 2u);  // every spike hits each slot
  EXPECT_EQ(fleet.held_count(), 2);              // re-acquired after each
}

TEST(SpotElastic, EventsDriveClusterMembership) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  std::vector<cloud::SpotEvent> events{
      {1.0, 0, cloud::SpotSlotState::kNoticed},    // grace: no change
      {1.05, 0, cloud::SpotSlotState::kReclaimed},
      {1.05, 7, cloud::SpotSlotState::kReclaimed},  // outside world: ignored
      {1.3, 0, cloud::SpotSlotState::kHeld},
  };
  EXPECT_EQ(dflow::apply_spot_events(cluster, events), 2);
  EXPECT_TRUE(cluster.rank_available(0));
  EXPECT_EQ(cluster.active_world_size(), 2);

  EXPECT_EQ(dflow::apply_spot_events(
                cluster, {{2.0, 1, cloud::SpotSlotState::kReclaimed}}),
            1);
  EXPECT_FALSE(cluster.rank_available(1));
}

// --- provisioner Status surface -----------------------------------------------

TEST(ProvisionerFault, TryLaunchClassifiesFailures) {
  cloud::Provisioner aws;
  const auto role = cloud::student_role("alice");

  cloud::Provisioner::LaunchRequest req;
  req.type_name = "g4dn.xlarge";
  const auto ok = aws.try_launch(role, req);
  ASSERT_TRUE(ok) << ok.status().to_string();
  EXPECT_EQ(ok->size(), 1u);

  // IAM denial (4 GPUs > student cap): illegal in the current state.
  req.type_name = "p3.8xlarge";
  const auto iam = aws.try_launch(role, req);
  ASSERT_FALSE(iam);
  EXPECT_EQ(iam.status().code(), ErrorCode::kFailedPrecondition);

  // Malformed request.
  req.type_name = "g4dn.xlarge";
  req.count = 0;
  const auto bad = aws.try_launch(role, req);
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ProvisionerFault, TryLaunchBudgetDenialIsResourceExhausted) {
  cloud::Provisioner aws;
  const auto role = cloud::student_role("bob");
  aws.set_budget_cap(role.name(), {10.0});
  cloud::Provisioner::LaunchRequest req;
  req.type_name = "p3.2xlarge";
  const auto first = aws.try_launch(role, req);
  ASSERT_TRUE(first);
  aws.advance_time(3.0);  // $9.18 accrued: the next launch busts the cap
  const auto denied = aws.try_launch(role, req);
  ASSERT_FALSE(denied);
  EXPECT_EQ(denied.status().code(), ErrorCode::kResourceExhausted);
}

// --- checkpoints --------------------------------------------------------------

TEST(CheckpointFault, RoundTripsTensorsBlobsAndScalars) {
  const std::string dir = scratch_dir("ckpt_roundtrip");
  nn::Checkpoint ckpt;
  ckpt.epoch = 12;
  tensor::Tensor t(2, 3);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = 0.5f * static_cast<float>(i);
  ckpt.tensors["w"] = t;
  ckpt.blobs["rng0"] = nn::serialize_engine(std::mt19937_64(99));
  ckpt.scalars["loss.0"] = 1.25;

  const std::string path = nn::checkpoint_path(dir, "gcn", 12);
  ASSERT_TRUE(nn::save_checkpoint(path, ckpt).ok());

  const auto loaded = nn::load_checkpoint(path);
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded->epoch, 12u);
  ASSERT_TRUE(loaded->tensors.at("w").same_shape(t));
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(loaded->tensors.at("w").data()[i], t.data()[i]);
  EXPECT_EQ(loaded->blobs.at("rng0"), ckpt.blobs.at("rng0"));
  EXPECT_DOUBLE_EQ(loaded->scalars.at("loss.0"), 1.25);
}

TEST(CheckpointFault, TruncatedNewestFallsBackToOlder) {
  const std::string dir = scratch_dir("ckpt_truncated");
  nn::Checkpoint ckpt;
  ckpt.scalars["x"] = 1.0;
  ckpt.epoch = 2;
  ASSERT_TRUE(nn::save_checkpoint(nn::checkpoint_path(dir, "gcn", 2), ckpt).ok());
  ckpt.epoch = 4;
  ckpt.scalars["x"] = 2.0;
  const std::string newest = nn::checkpoint_path(dir, "gcn", 4);
  ASSERT_TRUE(nn::save_checkpoint(newest, ckpt).ok());

  // Simulate a preemption mid-write: chop the newest file in half.
  std::ifstream in(newest, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(newest, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  const auto direct = nn::load_checkpoint(newest);
  ASSERT_FALSE(direct);
  EXPECT_EQ(direct.status().code(), ErrorCode::kDataLoss);

  const auto latest = nn::load_latest_checkpoint(dir, "gcn");
  ASSERT_TRUE(latest) << latest.status().to_string();
  EXPECT_EQ(latest->epoch, 2u);
  EXPECT_DOUBLE_EQ(latest->scalars.at("x"), 1.0);
}

TEST(CheckpointFault, MissingDirectoryIsUnavailable) {
  const auto missing =
      nn::load_latest_checkpoint("/nonexistent/sagesim_nowhere", "gcn");
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.status().code(), ErrorCode::kUnavailable);
}

TEST(CheckpointFault, EngineSerializationResumesStream) {
  std::mt19937_64 original(42);
  for (int i = 0; i < 17; ++i) original();  // advance mid-stream
  const std::string blob = nn::serialize_engine(original);

  std::mt19937_64 resumed;
  ASSERT_TRUE(nn::deserialize_engine(blob, resumed).ok());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(original(), resumed());

  std::mt19937_64 junk;
  EXPECT_EQ(nn::deserialize_engine("not an engine state", junk).code(),
            ErrorCode::kDataLoss);
}

// --- the headline: distributed GCN under preemption ---------------------------

TEST(GcnFault, PreemptedRunMatchesFaultFreeFinalLoss) {
  const auto dataset = small_dataset();

  // Fault-free reference: the all-up-front fast path.
  gpu::DeviceManager dm_clean(2, gpu::spec::test_tiny());
  dflow::Cluster clean(dm_clean);
  const auto ref = core::try_train_distributed_gcn(dataset, clean,
                                                   gcn_config(2));
  ASSERT_TRUE(ref) << ref.status().to_string();
  EXPECT_EQ(ref->chunk_restarts, 0u);
  EXPECT_EQ(ref->final_world, 2);

  // Same seed, 20% of epoch tasks preempted: chunked checkpoint/restart
  // path, which must reconverge to the bit-identical trajectory.
  gpu::DeviceManager dm_fault(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.seed = 2026;
  faults.preempt_probability = 0.2;
  faults.name_filter = "gcn_epoch";
  opts.faults = faults;
  dflow::Cluster faulty(dm_fault, opts);

  auto cfg = gcn_config(2);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_acceptance");
  cfg.fault.checkpoint_every = 2;
  cfg.fault.max_chunk_attempts = 64;
  const auto run = core::try_train_distributed_gcn(dataset, faulty, cfg);
  ASSERT_TRUE(run) << run.status().to_string();

  // The acceptance bar: >= 2 restore cycles actually exercised, and the
  // final loss within 1e-6 of fault-free (bit-identical in practice).
  EXPECT_GE(run->chunk_restarts, 2u);
  EXPECT_GE(run->checkpoints_restored, 2u);
  EXPECT_GT(run->checkpoints_written, 0u);
  ASSERT_EQ(run->epoch_losses.size(), ref->epoch_losses.size());
  for (std::size_t e = 0; e < run->epoch_losses.size(); ++e)
    ASSERT_NEAR(run->epoch_losses[e], ref->epoch_losses[e], 1e-9)
        << "epoch " << e;
  EXPECT_NEAR(run->epoch_losses.back(), ref->epoch_losses.back(), 1e-6);
  EXPECT_NEAR(run->test_accuracy, ref->test_accuracy, 1e-6);
  EXPECT_GT(faulty.fault_injector()->preemptions(), 0u);
}

TEST(GcnFault, ResumesBitIdenticallyAcrossProcessRestart) {
  const auto dataset = small_dataset();

  // One uninterrupted 16-epoch run.
  gpu::DeviceManager dm_a(2, gpu::spec::test_tiny());
  dflow::Cluster cluster_a(dm_a);
  auto cfg_a = gcn_config(2);
  cfg_a.fault.enabled = true;
  cfg_a.fault.checkpoint_dir = scratch_dir("gcn_resume_a");
  cfg_a.fault.checkpoint_every = 4;
  const auto full = core::try_train_distributed_gcn(dataset, cluster_a, cfg_a);
  ASSERT_TRUE(full) << full.status().to_string();

  // The same run "killed" after 8 epochs, then restarted to 16: the second
  // call resumes from the on-disk checkpoint instead of epoch 0.
  const std::string dir = scratch_dir("gcn_resume_b");
  {
    gpu::DeviceManager dm(2, gpu::spec::test_tiny());
    dflow::Cluster cluster(dm);
    auto cfg = gcn_config(2, /*epochs=*/8);
    cfg.fault.enabled = true;
    cfg.fault.checkpoint_dir = dir;
    cfg.fault.checkpoint_every = 4;
    const auto half = core::try_train_distributed_gcn(dataset, cluster, cfg);
    ASSERT_TRUE(half) << half.status().to_string();
    ASSERT_EQ(half->epoch_losses.size(), 8u);
  }
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  auto cfg = gcn_config(2, /*epochs=*/16);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = dir;
  cfg.fault.checkpoint_every = 4;
  const auto resumed = core::try_train_distributed_gcn(dataset, cluster, cfg);
  ASSERT_TRUE(resumed) << resumed.status().to_string();
  EXPECT_GE(resumed->checkpoints_restored, 1u);

  ASSERT_EQ(resumed->epoch_losses.size(), full->epoch_losses.size());
  for (std::size_t e = 0; e < full->epoch_losses.size(); ++e)
    ASSERT_EQ(resumed->epoch_losses[e], full->epoch_losses[e])
        << "epoch " << e;  // bit-identical, not merely close
  EXPECT_EQ(resumed->test_accuracy, full->test_accuracy);
}

TEST(GcnFault, CheckpointKeyLayoutIsPinned) {
  // Checkpoint directories written by earlier builds resume only while this
  // key set holds.  The checkpoint after the first chunk carries velocity.
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  auto cfg = gcn_config(2, /*epochs=*/4);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_layout");
  cfg.fault.checkpoint_every = 2;
  ASSERT_TRUE(core::try_train_distributed_gcn(dataset, cluster, cfg));

  const auto ckpt = nn::load_checkpoint(
      nn::checkpoint_path(cfg.fault.checkpoint_dir, "gcn", 2));
  ASSERT_TRUE(ckpt) << ckpt.status().to_string();
  std::set<std::string> tensors, scalars, blobs;
  for (const auto& [name, t] : ckpt->tensors) tensors.insert(name);
  for (const auto& [name, v] : ckpt->scalars) scalars.insert(name);
  for (const auto& [name, b] : ckpt->blobs) blobs.insert(name);
  EXPECT_EQ(tensors, (std::set<std::string>{"param0", "param1", "param2",
                                            "param3", "opt0", "opt1", "opt2",
                                            "opt3"}));
  EXPECT_EQ(scalars, (std::set<std::string>{"k", "opt_n", "opt_t", "loss.0",
                                            "loss.1"}));
  EXPECT_EQ(blobs, (std::set<std::string>{"rng0", "rng1"}));
  EXPECT_EQ(ckpt->scalars.at("k"), 2.0);
  EXPECT_EQ(ckpt->scalars.at("opt_n"), 4.0);
}

TEST(GcnFault, FlippedHeaderEpochFallsBackToOlderCheckpoint) {
  // The header epoch sits outside the payload checksum; a flip in any of
  // its 64 bits must read as a corrupt file, so the resume falls back to
  // the older checkpoint and still lands bit-identically.
  const auto dataset = small_dataset();
  auto run = [&](const std::string& dir, int epochs) {
    gpu::DeviceManager dm(2, gpu::spec::test_tiny());
    dflow::Cluster cluster(dm);
    auto cfg = gcn_config(2, epochs);
    cfg.fault.enabled = true;
    cfg.fault.checkpoint_dir = dir;
    cfg.fault.checkpoint_every = 4;
    return core::try_train_distributed_gcn(dataset, cluster, cfg);
  };
  const auto full = run(scratch_dir("gcn_flip_full"), 16);
  ASSERT_TRUE(full) << full.status().to_string();
  const std::string half = scratch_dir("gcn_flip_half");
  ASSERT_TRUE(run(half, 8));

  // magic[8] | u32 version | u64 epoch | ...
  constexpr std::size_t kEpochOffset = 12;
  for (int bit = 0; bit < 64; ++bit) {
    const std::string dir = scratch_dir("gcn_flip_bit");
    fs::copy(half, dir);
    const std::string newest = nn::checkpoint_path(dir, "gcn", 8);
    {
      std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
      const auto pos = static_cast<std::streamoff>(kEpochOffset + bit / 8);
      char byte = 0;
      f.seekg(pos);
      f.get(byte);
      byte = static_cast<char>(byte ^ (1 << (bit % 8)));
      f.seekp(pos);
      f.put(byte);
      ASSERT_TRUE(f.good()) << "bit " << bit;
    }
    Expected<core::DistributedGcnResult> resumed = Status::internal("unset");
    ASSERT_NO_THROW(resumed = run(dir, 16)) << "bit " << bit;
    ASSERT_TRUE(resumed) << "bit " << bit << ": "
                         << resumed.status().to_string();
    EXPECT_EQ(resumed->checkpoints_restored, 1u) << "bit " << bit;
    // Resumed from epoch 4: epochs 8, 12 and 16 are written again.
    EXPECT_EQ(resumed->checkpoints_written, 3u) << "bit " << bit;
    ASSERT_EQ(resumed->epoch_losses, full->epoch_losses) << "bit " << bit;
  }
}

TEST(GcnFault, ShrinksToSurvivingRanksWhenAllowed) {
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  cluster.preempt_rank(1);  // rank 1 is gone before training starts

  auto cfg = gcn_config(2, /*epochs=*/10);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_shrink");
  cfg.fault.checkpoint_every = 5;
  cfg.fault.allow_shrink = true;
  const auto run = core::try_train_distributed_gcn(dataset, cluster, cfg);
  ASSERT_TRUE(run) << run.status().to_string();
  EXPECT_EQ(run->reshards, 1u);
  EXPECT_EQ(run->final_world, 1);
  EXPECT_GE(run->chunk_restarts, 1u);
  EXPECT_EQ(run->epoch_losses.size(), 10u);
  EXPECT_GT(run->test_accuracy, 0.3);
}

TEST(GcnFault, RankLossWithoutShrinkIsUnavailable) {
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  cluster.preempt_rank(1);

  auto cfg = gcn_config(2, /*epochs=*/10);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_noshrink");
  cfg.fault.allow_shrink = false;
  const auto run = core::try_train_distributed_gcn(dataset, cluster, cfg);
  ASSERT_FALSE(run);
  EXPECT_EQ(run.status().code(), ErrorCode::kUnavailable);
}

TEST(GcnFault, RemapsOntoSpareRankWithoutResharding) {
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(3, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  cluster.preempt_rank(1);  // rank 2 is a live spare

  auto cfg = gcn_config(2, /*epochs=*/10);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_remap");
  cfg.fault.checkpoint_every = 5;
  const auto run = core::try_train_distributed_gcn(dataset, cluster, cfg);
  ASSERT_TRUE(run) << run.status().to_string();
  EXPECT_EQ(run->reshards, 0u);       // partitions kept, ranks remapped
  EXPECT_EQ(run->final_world, 2);
  EXPECT_GE(run->chunk_restarts, 1u);
  EXPECT_EQ(run->epoch_losses.size(), 10u);
}

TEST(GcnFault, PreemptionKeepsFiringAcrossReshard) {
  // Matrix case "preempt during re-partition": injected preemptions stay
  // active while the run also loses a rank and re-shards — the shrunk world
  // keeps absorbing faults through chunk retries.
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(3, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.seed = 7;
  faults.preempt_probability = 0.15;
  faults.name_filter = "gcn_epoch";
  opts.faults = faults;
  dflow::Cluster cluster(dm, opts);
  cluster.preempt_rank(1);
  cluster.preempt_rank(2);  // only rank 0 survives: k 3 -> 1

  auto cfg = gcn_config(3, /*epochs=*/8);
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_dir = scratch_dir("gcn_reshard_faults");
  cfg.fault.checkpoint_every = 2;
  cfg.fault.max_chunk_attempts = 64;
  cfg.fault.allow_shrink = true;
  const auto run = core::try_train_distributed_gcn(dataset, cluster, cfg);
  ASSERT_TRUE(run) << run.status().to_string();
  EXPECT_EQ(run->reshards, 1u);
  EXPECT_EQ(run->final_world, 1);
  EXPECT_EQ(run->epoch_losses.size(), 8u);
}

TEST(GcnFault, ValidatesFaultOptions) {
  const auto dataset = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  auto cfg = gcn_config(2);
  cfg.fault.enabled = true;  // no checkpoint_dir
  EXPECT_THROW(core::try_train_distributed_gcn(dataset, cluster, cfg),
               std::invalid_argument);
  cfg.fault.checkpoint_dir = "/tmp/x";
  cfg.fault.checkpoint_every = 0;
  EXPECT_THROW(core::try_train_distributed_gcn(dataset, cluster, cfg),
               std::invalid_argument);
}
