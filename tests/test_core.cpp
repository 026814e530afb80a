// Tests for the core module: Algorithm 1 (distributed GCN training) and
// the LabRunner integration surface.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>

#include "core/distributed_gcn.hpp"
#include "core/lab_runner.hpp"
#include "core/version.hpp"
#include "mem/buffer.hpp"

namespace core = sagesim::core;
namespace graph = sagesim::graph;
namespace gpu = sagesim::gpu;
namespace dflow = sagesim::dflow;
using sagesim::stats::Rng;

namespace {

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

core::DistributedGcnConfig fast_config(int k) {
  core::DistributedGcnConfig cfg;
  cfg.num_partitions = k;
  cfg.epochs = 25;
  cfg.hidden = 8;
  cfg.dropout = 0.1f;
  return cfg;
}

}  // namespace

TEST(Version, IsPopulated) {
  EXPECT_STREQ(sagesim::version(), "1.0.0");
  EXPECT_NE(std::string(sagesim::description()).find("sagesim"),
            std::string::npos);
}

TEST(Alg1, SequentialBaselineLearns) {
  const auto ds = small_dataset();
  gpu::DeviceManager dm(1, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  const auto res =
      core::try_train_distributed_gcn(ds, cluster, fast_config(1)).value();
  EXPECT_EQ(res.epoch_losses.size(), 25u);
  EXPECT_LT(res.epoch_losses.back(), 0.7 * res.epoch_losses.front());
  EXPECT_GT(res.test_accuracy, 0.7);
  EXPECT_EQ(res.partition.edge_cut, 0u);
  EXPECT_EQ(res.cut_edges_dropped, 0u);
}

TEST(Alg1, DistributedTrainingLearnsOnEveryWorkerCount) {
  const auto ds = small_dataset();
  for (int k : {2, 3}) {
    gpu::DeviceManager dm(static_cast<std::size_t>(k), gpu::spec::t4());
    dflow::Cluster cluster(dm);
    const auto res =
        core::try_train_distributed_gcn(ds, cluster, fast_config(k)).value();
    EXPECT_LT(res.epoch_losses.back(), res.epoch_losses.front()) << "k=" << k;
    EXPECT_GT(res.test_accuracy, 0.6) << "k=" << k;
    EXPECT_EQ(res.gpu_utilization.size(), static_cast<std::size_t>(k));
  }
}

TEST(Alg1, MetisPartitionCutsFewerEdgesThanRandom) {
  const auto ds = small_dataset();
  gpu::DeviceManager dm_a(2, gpu::spec::t4());
  dflow::Cluster cluster_a(dm_a);
  auto cfg = fast_config(2);
  cfg.epochs = 3;
  const auto metis =
      core::try_train_distributed_gcn(ds, cluster_a, cfg).value();

  gpu::DeviceManager dm_b(2, gpu::spec::t4());
  dflow::Cluster cluster_b(dm_b);
  cfg.strategy = core::PartitionStrategy::kRandom;
  const auto random =
      core::try_train_distributed_gcn(ds, cluster_b, cfg).value();

  EXPECT_LT(metis.partition.edge_cut, random.partition.edge_cut);
  EXPECT_LT(metis.cut_edges_dropped, random.cut_edges_dropped);
}

TEST(Alg1, SimulatedTimeIncludesSchedulerOverhead) {
  const auto ds = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  auto cfg = fast_config(2);
  cfg.epochs = 5;
  const auto res = core::try_train_distributed_gcn(ds, cluster, cfg).value();
  // 5 epochs x 2k tasks x 1 ms = 20 ms of scheduler time at minimum.
  EXPECT_GE(res.train_sim_seconds, 5 * 2 * 2 * cfg.scheduler_overhead_s);
  const double sched =
      dm.timeline().total_time(sagesim::prof::EventKind::kScheduler);
  EXPECT_NEAR(sched, 5 * 2 * 2 * cfg.scheduler_overhead_s, 1e-9);
}

TEST(Alg1, ValidatesConfiguration) {
  const auto ds = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  auto cfg = fast_config(4);  // more partitions than workers
  EXPECT_THROW((void)core::try_train_distributed_gcn(ds, cluster, cfg),
               std::invalid_argument);
  cfg = fast_config(0);
  EXPECT_THROW((void)core::try_train_distributed_gcn(ds, cluster, cfg),
               std::invalid_argument);
  cfg = fast_config(2);
  cfg.epochs = 0;
  EXPECT_THROW((void)core::try_train_distributed_gcn(ds, cluster, cfg),
               std::invalid_argument);
}

TEST(Alg1, BlockStrategyRuns) {
  const auto ds = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  auto cfg = fast_config(2);
  cfg.strategy = core::PartitionStrategy::kBlock;
  cfg.epochs = 3;
  const auto res = core::try_train_distributed_gcn(ds, cluster, cfg).value();
  EXPECT_GT(res.partition.edge_cut, 0u);
}

TEST(Alg1, StrategyNamesAreStable) {
  EXPECT_STREQ(core::to_string(core::PartitionStrategy::kMetis), "metis");
  EXPECT_STREQ(core::to_string(core::PartitionStrategy::kRandom), "random");
  EXPECT_STREQ(core::to_string(core::PartitionStrategy::kBlock), "block");
}

// --- LabRunner ----------------------------------------------------------------

TEST(LabRunner, TitleLookup) {
  EXPECT_NE(core::LabRunner::title_of(3).find("memory profiling"),
            std::string::npos);
  EXPECT_THROW(core::LabRunner::title_of(7), std::invalid_argument);
  EXPECT_THROW(core::LabRunner::title_of(16), std::invalid_argument);
}

TEST(LabRunner, Week1AwsSetupPasses) {
  core::LabRunner runner(123);
  const auto r = runner.run(1);
  EXPECT_TRUE(r.passed) << r.notes;
  EXPECT_EQ(r.week, 1);
}

TEST(LabRunner, Week2MatmulCorrectnessPasses) {
  core::LabRunner runner(123);
  const auto r = runner.run(2);
  EXPECT_TRUE(r.passed) << r.notes;
  EXPECT_GT(r.sim_gpu_seconds, 0.0);
}

TEST(LabRunner, Week3ProfilingDetectsTransfers) {
  core::LabRunner runner(123);
  const auto r = runner.run(3);
  EXPECT_TRUE(r.passed) << r.notes;
  EXPECT_FALSE(r.notes.empty());
}

TEST(LabRunner, Week6DataframePipelinePasses) {
  core::LabRunner runner(123);
  const auto r = runner.run(6);
  EXPECT_TRUE(r.passed) << r.notes;
}

TEST(LabRunner, Week10DdpPasses) {
  core::LabRunner runner(123);
  const auto r = runner.run(10);
  EXPECT_TRUE(r.passed) << r.notes;
}

TEST(LabRunner, Week12RagRetrievalPasses) {
  core::LabRunner runner(123);
  const auto r = runner.run(12);
  EXPECT_TRUE(r.passed) << r.notes;
}

// --- Workflow builder ------------------------------------------------------------

#include "cloudsim/provisioner.hpp"
#include "core/workflow.hpp"

namespace {

struct WorkflowFixture : ::testing::Test {
  gpu::DeviceManager devices{1, gpu::spec::test_tiny()};
  sagesim::cloud::Provisioner aws;
  core::WorkflowContext ctx{devices, aws};
};

}  // namespace

TEST_F(WorkflowFixture, StagesRunInOrderAndShareState) {
  core::Workflow wf("test");
  wf.stage("produce", [](core::WorkflowContext& c) { c.put("x", 41); })
      .stage("consume", [](core::WorkflowContext& c) {
        c.get<int>("x") += 1;
      });
  const auto report = wf.run(ctx);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_TRUE(report.stages[0].ok());
  EXPECT_EQ(ctx.get<int>("x"), 42);
}

TEST_F(WorkflowFixture, FailureSkipsLaterStagesButRunsTeardown) {
  bool teardown_ran = false, later_ran = false;
  core::Workflow wf("failing");
  wf.stage("boom", [](core::WorkflowContext&) {
      throw std::runtime_error("exploded");
    })
      .stage("later", [&](core::WorkflowContext&) { later_ran = true; })
      .stage("teardown", [&](core::WorkflowContext&) { teardown_ran = true; },
             /*always_run=*/true);
  const auto report = wf.run(ctx);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(later_ran);
  EXPECT_TRUE(teardown_ran);
  EXPECT_EQ(report.stages[0].error(), "exploded");
  EXPECT_NE(report.stages[1].error().find("skipped"), std::string::npos);
}

TEST_F(WorkflowFixture, TracksSimGpuTimePerStage) {
  core::Workflow wf("timed");
  wf.stage("kernel", [](core::WorkflowContext& c) {
    c.devices().device(0).launch_linear("k", 1u << 16, 128,
                                        [](const gpu::ThreadCtx&) {});
  });
  const auto report = wf.run(ctx);
  EXPECT_GT(report.stages[0].sim_gpu_seconds, 0.0);
  EXPECT_GT(report.total_sim_gpu_seconds, 0.0);
}

TEST_F(WorkflowFixture, ContextValidation) {
  EXPECT_THROW(ctx.get<int>("missing"), std::out_of_range);
  ctx.put("s", std::string("hello"));
  EXPECT_THROW(ctx.get<int>("s"), std::bad_any_cast);
  EXPECT_TRUE(ctx.has("s"));
  core::Workflow wf("bad");
  EXPECT_THROW(wf.stage("null", nullptr), std::invalid_argument);
}

TEST_F(WorkflowFixture, DagDiamondRespectsExplicitDeps) {
  // fetch -> {clean, featurize} -> train: the join must observe both
  // branches regardless of which execution path (inline or pooled) runs.
  std::atomic<int> clock{0};
  std::atomic<int> fetch_t{-1}, clean_t{-1}, feat_t{-1}, train_t{-1};
  core::Workflow wf("diamond");
  wf.stage("fetch", [&](core::WorkflowContext& c) {
      fetch_t = clock.fetch_add(1);
      c.put("rows", 100);
    })
      .stage("clean",
             [&](core::WorkflowContext& c) {
               clean_t = clock.fetch_add(1);
               c.put("clean_rows", c.get<int>("rows") - 10);
             },
             core::StageOptions{.after = {"fetch"}})
      .stage("featurize",
             [&](core::WorkflowContext& c) {
               feat_t = clock.fetch_add(1);
               c.put("features", c.get<int>("rows") * 8);
             },
             core::StageOptions{.after = {"fetch"}})
      .stage("train",
             [&](core::WorkflowContext& c) {
               train_t = clock.fetch_add(1);
               c.put("model",
                     c.get<int>("clean_rows") + c.get<int>("features"));
             },
             core::StageOptions{.after = {"clean", "featurize"}});
  const auto report = wf.run(ctx);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(ctx.get<int>("model"), 890);
  EXPECT_LT(fetch_t.load(), clean_t.load());
  EXPECT_LT(fetch_t.load(), feat_t.load());
  EXPECT_GT(train_t.load(), clean_t.load());
  EXPECT_GT(train_t.load(), feat_t.load());
}

TEST_F(WorkflowFixture, DagUnknownDependencyThrowsAtDeclaration) {
  core::Workflow wf("bad-dep");
  wf.stage("a", [](core::WorkflowContext&) {});
  EXPECT_THROW(wf.stage("b", [](core::WorkflowContext&) {},
                        core::StageOptions{.after = {"nope"}}),
               std::invalid_argument);
  // Forward references are unknown names too: DAGs are built append-only.
  EXPECT_THROW(wf.stage("c", [](core::WorkflowContext&) {},
                        core::StageOptions{.after = {"c"}}),
               std::invalid_argument);
}

TEST_F(WorkflowFixture, DagFailureOnlyPoisonsDescendants) {
  bool sibling_ran = false, child_of_bad_ran = false;
  core::Workflow wf("partial-failure");
  wf.stage("root", [](core::WorkflowContext&) {})
      .stage("bad",
             [](core::WorkflowContext&) { throw std::runtime_error("x"); },
             core::StageOptions{.after = {"root"}})
      .stage("sibling",
             [&](core::WorkflowContext&) { sibling_ran = true; },
             core::StageOptions{.after = {"root"}})
      .stage("child_of_bad",
             [&](core::WorkflowContext&) { child_of_bad_ran = true; },
             core::StageOptions{.after = {"bad"}});
  const auto report = wf.run(ctx);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(sibling_ran);       // disjoint branch is unaffected
  EXPECT_FALSE(child_of_bad_ran); // downstream of the failure is skipped
  EXPECT_NE(report.stages[3].error().find("skipped"), std::string::npos);
}

TEST_F(WorkflowFixture, DagAlwaysRunStaysPoisoned) {
  // Teardown runs after a failure, but the poison passes through it: a
  // stage downstream of teardown must still be skipped.
  bool teardown_ran = false, resurrected = false;
  core::Workflow wf("poison");
  wf.stage("bad",
           [](core::WorkflowContext&) { throw std::runtime_error("x"); })
      .stage("teardown",
             [&](core::WorkflowContext&) { teardown_ran = true; },
             core::StageOptions{.after = {"bad"}, .always_run = true})
      .stage("after_teardown",
             [&](core::WorkflowContext&) { resurrected = true; },
             core::StageOptions{.after = {"teardown"}});
  const auto report = wf.run(ctx);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(teardown_ran);
  EXPECT_FALSE(resurrected);
}

TEST_F(WorkflowFixture, DagRootsWithoutDepsMayStartImmediately) {
  // Two independent roots plus a join; also exercises StageOptions with an
  // empty `after` list (explicit root).
  core::Workflow wf("roots");
  wf.stage("left", [](core::WorkflowContext& c) { c.put("l", 1); },
           core::StageOptions{})
      .stage("right", [](core::WorkflowContext& c) { c.put("r", 2); },
             core::StageOptions{})
      .stage("join",
             [](core::WorkflowContext& c) {
               c.put("sum", c.get<int>("l") + c.get<int>("r"));
             },
             core::StageOptions{.after = {"left", "right"}});
  const auto report = wf.run(ctx);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(ctx.get<int>("sum"), 3);
}

TEST(Alg1, LossTrajectoryIsPinned) {
  // Every epoch loss and the test accuracy of a small Algorithm 1 run, in
  // hex float.  The naive reference kernels produce these same bits (the
  // blocked engines keep their ascending-k / ascending-edge folds), so a
  // change that moves any of them breaks the checkpoint-compatibility
  // contract: a checkpoint written before it would no longer resume onto
  // the same trajectory.
  const auto ds = small_dataset();
  gpu::DeviceManager dm(2, gpu::spec::t4());
  dflow::Cluster cluster(dm);
  const auto res =
      core::try_train_distributed_gcn(ds, cluster, fast_config(2)).value();
  const double pinned[] = {
      0x1.61aa40b650427p+0, 0x1.4883f6277cbdp+0, 0x1.38abdcf65ce94p+0,
      0x1.1997efe8ac614p+0, 0x1.fbef3235f7b28p-1, 0x1.bf437b0dd67c8p-1,
      0x1.8bb00a8194dbp-1, 0x1.5d4df8ca6d844p-1, 0x1.2ae9ab02c47f4p-1,
      0x1.f1d6cc6d2bb02p-2, 0x1.b50c52633cb05p-2, 0x1.7481141fc0bdcp-2,
      0x1.3d0959f5cb6a8p-2, 0x1.0b1765b8d8a93p-2, 0x1.ece709a8f520ap-3,
      0x1.963986df28ebap-3, 0x1.5e387107bd941p-3, 0x1.37bccb43dad5ep-3,
      0x1.0932ecd69e8acp-3, 0x1.c5032372917ecp-4, 0x1.41b0630ebef65p-4,
      0x1.707c99afb8a2ep-4, 0x1.29130ce4c1884p-4, 0x1.4a72026dfb741p-4,
      0x1.400a3e1ba9379p-4
  };
  ASSERT_EQ(res.epoch_losses.size(), std::size(pinned));
  for (std::size_t e = 0; e < std::size(pinned); ++e)
    EXPECT_EQ(res.epoch_losses[e], pinned[e])
        << "epoch " << e << ": " << std::hexfloat << res.epoch_losses[e];
  EXPECT_EQ(res.test_accuracy, 0x1.faaaaaaaaaaabp-1)
      << std::hexfloat << res.test_accuracy;
}

TEST(Alg1, TransferCountsArePinnedAndDeterministic) {
  // The Buffer layer is the only H2D/D2H producer, so the data movement of
  // a fault-free run is exactly enumerable.  Per rank, placement uploads
  // 1 feature matrix + 3 adjacency arrays + 4 parameters + 4 gradients;
  // finish() downloads replica 0's 4 parameters for host-side evaluation.
  namespace mem = sagesim::mem;
  namespace prof = sagesim::prof;
  const auto ds = small_dataset();

  struct Snap {
    std::size_t h2d_events{0}, d2h_events{0};
    std::size_t broadcast_events{0};
    double broadcast_bytes{0.0};
    mem::TransferCounters ledger;
  };
  auto run = [&](int epochs) {
    gpu::DeviceManager dm(2, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    auto cfg = fast_config(2);
    cfg.epochs = epochs;
    mem::reset_transfer_ledger();
    (void)core::try_train_distributed_gcn(ds, cluster, cfg).value();
    Snap snap{dm.timeline().snapshot(prof::EventKind::kMemcpyH2D).size(),
              dm.timeline().snapshot(prof::EventKind::kMemcpyD2H).size(),
              0,
              0.0,
              mem::transfer_ledger()};
    for (const auto& e :
         dm.timeline().snapshot(prof::EventKind::kMemcpyD2D)) {
      if (e.name != "param_broadcast") continue;
      ++snap.broadcast_events;
      if (const auto it = e.counters.find("bytes"); it != e.counters.end())
        snap.broadcast_bytes += it->second;
    }
    return snap;
  };

  const auto one = run(1);
  EXPECT_EQ(one.h2d_events, 24u);  // 2 ranks x (1 + 3 + 4 + 4)
  EXPECT_EQ(one.d2h_events, 4u);   // replica 0's parameters come home
  EXPECT_EQ(one.ledger.h2d_count, 24u);
  EXPECT_EQ(one.ledger.d2h_count, 4u);
  EXPECT_GT(one.ledger.h2d_bytes, 0u);
  EXPECT_GT(one.ledger.d2h_bytes, 0u);
  // The initial θ broadcast is accounted wire traffic too: one modeled hop
  // per parameter per non-root rank (regression — it used to be a silent
  // host memcpy).
  EXPECT_EQ(one.broadcast_events, 4u);  // 4 params x 1 non-root rank
  EXPECT_GT(one.broadcast_bytes, 0.0);

  // Steady-state epochs move zero additional bytes — shards and weights
  // stay device-resident — and a rerun is byte-for-byte deterministic.
  const auto five = run(5);
  EXPECT_EQ(five.h2d_events, 24u);
  EXPECT_EQ(five.d2h_events, 4u);
  EXPECT_EQ(five.ledger.h2d_bytes, one.ledger.h2d_bytes);
  EXPECT_EQ(five.ledger.d2h_bytes, one.ledger.d2h_bytes);
  EXPECT_EQ(five.broadcast_events, one.broadcast_events);
  EXPECT_EQ(five.broadcast_bytes, one.broadcast_bytes);
}
