// The multi-tenant control plane matrix: fair-share convergence and
// weighted shares, gang all-or-nothing placement with EASY backfill that
// never delays the head, IAM quota admission (permanent vs retryable with
// a retry-after hint), budget-cap projection at admission and the mid-job
// cutoff backstop under spot churn, preempted-payload restart that resumes
// bit-identically from its checkpoint through the manager's requeue path,
// terminal payload failure (non-retryable, or retries exhausted),
// starvation freedom via priority aging, the tenant ledger's spot /
// on-demand split, the job-control cancellation surface, the semester load
// generator, and a concurrent submit/advance hammer for TSAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/cost.hpp"
#include "cloudsim/iam.hpp"
#include "cloudsim/spot.hpp"
#include "core/distributed_gcn.hpp"
#include "core/jobs.hpp"
#include "dflow/cluster.hpp"
#include "edu/enrollment.hpp"
#include "graph/generators.hpp"
#include "runtime/job_control.hpp"
#include "sched/fair_share.hpp"
#include "sched/manager.hpp"
#include "sched/semester.hpp"
#include "sched/telemetry.hpp"

namespace fs = std::filesystem;
namespace cloud = sagesim::cloud;
namespace core = sagesim::core;
namespace dflow = sagesim::dflow;
namespace edu = sagesim::edu;
namespace gpu = sagesim::gpu;
namespace graph = sagesim::graph;
namespace rt = sagesim::runtime;
namespace sched = sagesim::sched;
using sagesim::ErrorCode;
using sagesim::Expected;
using sagesim::Status;
using sagesim::stats::Rng;

namespace {

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sagesim_sched_" + name);
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

/// A small on-demand-only fleet with no aging surprises.
sched::ManagerConfig fleet(int nodes) {
  sched::ManagerConfig cfg;
  cfg.min_nodes = nodes;
  cfg.max_nodes = nodes;
  cfg.fair_share.aging_h = 1e6;  // tests enable aging explicitly
  cfg.idle_scale_down_h = 1e6;
  return cfg;
}

sched::TenantConfig unlimited(const std::string& id, double weight = 1.0,
                              double budget_usd = 1e6) {
  sched::TenantConfig cfg;
  cfg.id = id;
  cfg.weight = weight;
  cfg.budget_usd = budget_usd;
  cfg.role = cloud::instructor_role();
  return cfg;
}

sched::JobSpec synthetic(const std::string& tenant, int ranks,
                         double service_h,
                         sched::JobClass cls = sched::JobClass::kNormal) {
  sched::JobSpec spec;
  spec.tenant = tenant;
  spec.ranks = ranks;
  spec.service_h = service_h;
  spec.priority = cls;
  return spec;
}

}  // namespace

// --- FairShare ----------------------------------------------------------

TEST(FairShare, DecaysWithHalfLifeAndDividesByWeight) {
  sched::FairShareConfig cfg;
  cfg.half_life_h = 24.0;
  sched::FairShare fs(cfg);
  fs.set_weight("grad", 2.0);
  fs.charge("grad", 8.0, 0.0);
  fs.charge("ug", 8.0, 0.0);
  EXPECT_DOUBLE_EQ(fs.usage("grad", 0.0), 8.0);
  EXPECT_NEAR(fs.usage("grad", 24.0), 4.0, 1e-12);  // one half-life
  // Same usage, double weight -> half the score.
  EXPECT_NEAR(fs.share_score("grad", 0.0) * 2.0, fs.share_score("ug", 0.0),
              1e-12);
  EXPECT_DOUBLE_EQ(fs.share_score("idle-tenant", 10.0), 0.0);
  EXPECT_THROW(fs.set_weight("x", 0.0), std::invalid_argument);
  EXPECT_THROW(fs.charge("x", -1.0, 0.0), std::invalid_argument);
}

// --- JobControl ---------------------------------------------------------

TEST(JobControl, DeadlineTightensAndFaultsRoute) {
  rt::JobControl control;
  EXPECT_DOUBLE_EQ(control.effective_timeout_s(0.0), 0.0);
  control.set_deadline_s(5.0);
  EXPECT_DOUBLE_EQ(control.effective_timeout_s(0.0), 5.0);
  EXPECT_DOUBLE_EQ(control.effective_timeout_s(2.0), 2.0);
  EXPECT_DOUBLE_EQ(control.effective_timeout_s(9.0), 5.0);

  control.route_fault(Status::preempted("rank lost"));
  control.route_fault(Status::unavailable("down"));
  EXPECT_EQ(control.retryable_faults(), 2u);
  EXPECT_TRUE(control.terminal_fault().ok());
  control.route_fault(Status::data_loss("bad checkpoint"));
  control.route_fault(Status::internal("second terminal, ignored"));
  EXPECT_EQ(control.terminal_fault().code(), ErrorCode::kDataLoss);

  EXPECT_FALSE(control.cancel_requested());
  control.cancel("budget");
  control.cancel("second reason loses");
  EXPECT_TRUE(control.cancel_requested());
  EXPECT_EQ(control.cancel_reason(), "budget");
}

TEST(JobControl, CancelStopsNewSubmitsOnLeasedCluster) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  rt::JobControl control;
  dflow::ClusterOptions opts;
  opts.control = &control;
  opts.lease = dflow::LeaseBinding{"lease-7-0", {"i-000001", "i-000002"}};
  dflow::Cluster cluster(dm, opts);

  EXPECT_EQ(cluster.instance_id(0), "i-000001");
  EXPECT_EQ(cluster.instance_id(1), "i-000002");
  EXPECT_THROW(cluster.instance_id(2), std::out_of_range);

  auto ok = cluster.submit("warm", [](dflow::WorkerCtx&) { return 1; });
  EXPECT_TRUE(ok.wait_status().ok());
  EXPECT_GE(control.attached_count(), 1u);

  control.cancel("job over budget");
  auto dead = cluster.submit("late", [](dflow::WorkerCtx&) { return 2; });
  const Status s = dead.wait_status();
  EXPECT_EQ(s.code(), ErrorCode::kCancelled);
  EXPECT_NE(s.message().find("job over budget"), std::string::npos);
}

TEST(JobControl, LeaseWidthMustMatchDevices) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  opts.lease = dflow::LeaseBinding{"lease-1-0", {"i-000001"}};
  EXPECT_THROW(dflow::Cluster(dm, opts), std::invalid_argument);
  // No lease: the accessor is API misuse.
  dflow::Cluster bare(dm);
  EXPECT_THROW(bare.instance_id(0), std::logic_error);
}

// --- admission ----------------------------------------------------------

TEST(Admission, UnknownTenantAndMalformedSpecs) {
  sched::ClusterManager mgr(fleet(2));
  auto r = mgr.submit(synthetic("ghost", 1, 1.0));
  ASSERT_FALSE(r);
  EXPECT_EQ(r.status().code(), ErrorCode::kFailedPrecondition);

  mgr.register_tenant("alice");
  EXPECT_EQ(mgr.submit(synthetic("alice", 0, 1.0)).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.submit(synthetic("alice", 1, 0.0)).status().code(),
            ErrorCode::kInvalidArgument);
  // Wider than the whole fleet can ever be: permanent, not a queue matter.
  EXPECT_EQ(mgr.submit(synthetic("alice", 99, 1.0)).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_THROW(mgr.register_tenant("alice"), std::invalid_argument);
}

TEST(Admission, StudentQuotaPermanentVsRetryable) {
  sched::ManagerConfig cfg = fleet(1);
  sched::ClusterManager mgr(cfg);
  mgr.register_tenant("stu");  // student_role: 3 GPUs/request, 3 concurrent

  // Per-request cap: permanent (shrink the request), not retryable.
  auto wide = mgr.submit(synthetic("stu", 4, 1.0));
  // ranks=4 > max_nodes=1 is invalid; use a wider fleet for the IAM cap.
  EXPECT_EQ(wide.status().code(), ErrorCode::kInvalidArgument);

  sched::ClusterManager mgr4(fleet(4));
  mgr4.register_tenant("stu");
  auto iam = mgr4.submit(synthetic("stu", 4, 1.0));
  ASSERT_FALSE(iam);
  EXPECT_EQ(iam.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(iam.status().retryable());

  // Concurrent cap: three outstanding jobs fill the student quota; the
  // fourth is rejected retryably with a retry-after hint.
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(mgr4.submit(synthetic("stu", 1, 1.0)));
  auto fourth = mgr4.submit(synthetic("stu", 1, 1.0));
  ASSERT_FALSE(fourth);
  EXPECT_EQ(fourth.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(fourth.status().retryable());
  EXPECT_NE(fourth.status().message().find("retry after"), std::string::npos);
  EXPECT_GT(mgr4.suggested_retry_h("stu"), 0.0);
  EXPECT_EQ(mgr4.stats().rejected_quota, 2u);

  // Capacity freed: the resubmit is admitted.
  mgr4.advance_to(1.5);
  EXPECT_TRUE(mgr4.submit(synthetic("stu", 1, 1.0)));
}

TEST(Admission, BudgetProjectionRejectsBeforeOverrun) {
  sched::ManagerConfig cfg = fleet(1);
  cfg.admission_margin = 1.0;
  sched::ClusterManager mgr(cfg);
  const double rate = cloud::catalog::by_name(cfg.node_type).hourly_usd;
  mgr.register_tenant(unlimited("bob", 1.0, /*budget=*/6.0 * rate));

  ASSERT_TRUE(mgr.submit(synthetic("bob", 1, 4.0)));  // projected 4h * rate
  auto over = mgr.submit(synthetic("bob", 1, 4.0));   // would project 8h
  ASSERT_FALSE(over);
  EXPECT_EQ(over.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(over.status().retryable());
  EXPECT_NE(over.status().message().find("budget"), std::string::npos);
  EXPECT_EQ(mgr.stats().rejected_budget, 1u);

  // The first job still completes and bills under the cap.
  ASSERT_TRUE(mgr.drain());
  EXPECT_LE(mgr.tenant_ledger().spend("bob"), 6.0 * rate + 1e-6);
}

// --- fair share across tenants ------------------------------------------

TEST(FairShareScheduling, AlternatesTenantsInsteadOfFifo) {
  sched::ClusterManager mgr(fleet(1));
  mgr.register_tenant(unlimited("a"));
  mgr.register_tenant(unlimited("b"));
  std::vector<sched::JobId> a_jobs, b_jobs;
  for (int i = 0; i < 6; ++i) a_jobs.push_back(*mgr.submit(synthetic("a", 1, 0.5)));
  for (int i = 0; i < 6; ++i) b_jobs.push_back(*mgr.submit(synthetic("b", 1, 0.5)));
  ASSERT_TRUE(mgr.drain());

  // FIFO would finish all of a's jobs first; fair share alternates, so
  // within the first four completions both tenants appear twice.
  std::vector<sched::JobRecord> recs = mgr.records();
  std::sort(recs.begin(), recs.end(),
            [](const sched::JobRecord& x, const sched::JobRecord& y) {
              return x.end_h < y.end_h;
            });
  int a_early = 0;
  for (int i = 0; i < 4; ++i) a_early += recs[static_cast<std::size_t>(i)].spec.tenant == "a";
  EXPECT_EQ(a_early, 2);
  // Everyone completed; GPU-hours split evenly.
  EXPECT_EQ(mgr.stats().completed, 12u);
  const auto ledger = mgr.tenant_ledger();
  EXPECT_NEAR(ledger.gpu_hours("a"), ledger.gpu_hours("b"), 1e-9);
}

TEST(FairShareScheduling, WeightsTiltTheSplit) {
  sched::ClusterManager mgr(fleet(1));
  mgr.register_tenant(unlimited("grad", 2.0));
  mgr.register_tenant(unlimited("ug", 1.0));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(mgr.submit(synthetic("grad", 1, 0.5)));
    ASSERT_TRUE(mgr.submit(synthetic("ug", 1, 0.5)));
  }
  ASSERT_TRUE(mgr.drain());
  std::vector<sched::JobRecord> recs = mgr.records();
  std::sort(recs.begin(), recs.end(),
            [](const sched::JobRecord& x, const sched::JobRecord& y) {
              return x.end_h < y.end_h;
            });
  // In the first 6 completions the weight-2 tenant lands ~2 of every 3.
  int grad_early = 0;
  for (int i = 0; i < 6; ++i)
    grad_early += recs[static_cast<std::size_t>(i)].spec.tenant == "grad";
  EXPECT_EQ(grad_early, 4);
}

// --- gang scheduling + backfill -----------------------------------------

TEST(GangScheduling, AllOrNothingWithBackfillThatNeverDelaysTheHead) {
  sched::ClusterManager mgr(fleet(4));
  for (const char* t : {"t1", "t2", "t3", "t4", "t5", "t6"})
    mgr.register_tenant(unlimited(t));

  const sched::JobId j1 = *mgr.submit(synthetic("t1", 2, 10.0));
  const sched::JobId j2 = *mgr.submit(synthetic("t2", 2, 2.0));
  const sched::JobId gang = *mgr.submit(synthetic("t3", 4, 1.0));
  const sched::JobId s1 = *mgr.submit(synthetic("t4", 1, 0.5));
  const sched::JobId s2 = *mgr.submit(synthetic("t5", 1, 5.0));
  const sched::JobId s3 = *mgr.submit(synthetic("t6", 1, 12.0));

  ASSERT_TRUE(mgr.drain());

  EXPECT_DOUBLE_EQ(mgr.job(j1).first_start_h, 0.0);
  EXPECT_DOUBLE_EQ(mgr.job(j2).first_start_h, 0.0);

  // The gang is the head once j2 frees two nodes at t=2: it cannot run
  // (needs all four), so it reserves t=10 (j1's finish).  s1 (ends 2.5)
  // and s2 (ends 7) backfill; s3 (12h) would overrun the reservation and
  // must wait behind the gang.
  EXPECT_NEAR(mgr.job(s1).first_start_h, 2.0, 1e-9);
  EXPECT_NEAR(mgr.job(s2).first_start_h, 2.0, 1e-9);
  EXPECT_TRUE(mgr.job(s1).backfilled);
  EXPECT_TRUE(mgr.job(s2).backfilled);
  EXPECT_NEAR(mgr.job(gang).first_start_h, 10.0, 1e-9);  // never delayed
  EXPECT_FALSE(mgr.job(gang).backfilled);
  EXPECT_NEAR(mgr.job(gang).end_h, 11.0, 1e-9);  // all-or-nothing, 4 ranks
  EXPECT_GE(mgr.job(s3).first_start_h, 10.0);
  EXPECT_EQ(mgr.stats().backfills, 2u);
  EXPECT_EQ(mgr.stats().completed, 6u);
}

// --- budget cutoff under spot churn -------------------------------------

TEST(BudgetCap, MidJobCutoffUnderRepeatedSpotPreemption) {
  sched::ManagerConfig cfg;
  cfg.min_nodes = 0;
  cfg.max_nodes = 1;
  cfg.spot_nodes = 1;
  cfg.spot_discount = 0.4;
  cfg.spot.trace = cloud::synthetic_price_trace(
      /*horizon_h=*/200.0, /*base=*/0.1, /*spike=*/10.0, /*spikes=*/100,
      /*spike_width_h=*/0.5);
  cfg.checkpoint_quantum_h = 0.0;  // preemption loses all progress
  cfg.restart_overhead_h = 0.0;
  cfg.admission_margin = 1.0;
  cfg.fair_share.aging_h = 1e6;
  cfg.idle_scale_down_h = 1e6;
  sched::ClusterManager mgr(cfg);

  const double od_rate = cloud::catalog::by_name(cfg.node_type).hourly_usd;
  const double cap = 1.5;
  mgr.register_tenant(unlimited("spender", 1.0, cap));

  // Admission projects 2h at the on-demand rate — well under the cap; the
  // spot spikes then preempt every cycle, progress resets (quantum 0), and
  // the re-billed attempts walk spend into the cap mid-job.
  sched::JobSpec spec = synthetic("spender", 1, 2.0);
  ASSERT_LT(cfg.admission_margin * 2.0 * od_rate, cap);
  const sched::JobId id = *mgr.submit(spec);
  mgr.advance_to(200.0);

  const sched::JobRecord rec = mgr.job(id);
  EXPECT_EQ(rec.state, sched::JobState::kKilled);
  EXPECT_EQ(rec.final_status.code(), ErrorCode::kResourceExhausted);
  EXPECT_GE(rec.preemptions, 2);
  EXPECT_EQ(mgr.stats().killed, 1u);
  const cloud::TenantLedger ledger = mgr.tenant_ledger();
  EXPECT_LE(ledger.spend("spender"), cap + 1e-6);
  EXPECT_NEAR(ledger.spend("spender"), cap, 0.05);
  // Everything billed was spot capacity, at the discounted rate.
  for (const auto& lease : ledger.records()) EXPECT_TRUE(lease.spot);
}

// --- starvation freedom --------------------------------------------------

TEST(Aging, BatchGangIsNotStarvedByInteractiveStream) {
  sched::ManagerConfig cfg = fleet(2);
  cfg.fair_share.aging_h = 1.0;
  sched::ClusterManager mgr(cfg);
  mgr.register_tenant(unlimited("bg"));
  mgr.register_tenant(unlimited("fg"));

  const sched::JobId gang =
      *mgr.submit(synthetic("bg", 2, 0.5, sched::JobClass::kBatch));
  // A continuous interactive stream that, unaged, would always outrank the
  // batch gang.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        mgr.submit(synthetic("fg", 1, 0.4, sched::JobClass::kInteractive)));
    mgr.advance_to(0.25 * (i + 1));
  }
  ASSERT_TRUE(mgr.drain());
  const sched::JobRecord rec = mgr.job(gang);
  EXPECT_EQ(rec.state, sched::JobState::kCompleted);
  // Aging promotes the gang to the head within ~2h; the reservation then
  // holds both nodes against the stream.
  EXPECT_LT(rec.first_start_h, 5.0);
  EXPECT_EQ(mgr.stats().completed, 25u);
}

// --- payload restart bit-identity ----------------------------------------

TEST(PayloadRestart, ResumesBitIdenticallyThroughManagerRequeue) {
  const auto dataset = small_dataset();

  // Reference: one uninterrupted fault-tolerant 16-epoch run.
  gpu::DeviceManager dm_ref(2, gpu::spec::test_tiny());
  dflow::Cluster cluster_ref(dm_ref);
  auto cfg_ref = gcn_config(2);
  cfg_ref.fault.enabled = true;
  cfg_ref.fault.checkpoint_dir = scratch_dir("ref");
  cfg_ref.fault.checkpoint_every = 4;
  const auto full =
      core::try_train_distributed_gcn(dataset, cluster_ref, cfg_ref);
  ASSERT_TRUE(full) << full.status().to_string();

  // Managed run: attempt 0 trains half the epochs on the leased cluster,
  // then reports a (simulated) spot preemption; the manager requeues and
  // attempt 1 resumes from the checkpoint directory.
  const std::string dir = scratch_dir("managed");
  std::vector<double> losses;
  std::size_t restored = 0;
  int attempts = 0;
  std::vector<std::string> leased_ids;

  sched::ClusterManager mgr(fleet(2));
  mgr.register_tenant(unlimited("researcher"));
  sched::JobSpec spec = synthetic("researcher", 2, 0.5);
  spec.kind = sched::JobKind::kGcnTraining;
  spec.checkpoint_dir = dir;
  spec.max_attempts = 4;
  spec.work = [&](sched::JobContext& ctx) -> Expected<double> {
    ++attempts;
    auto cfg = gcn_config(2, ctx.attempt == 0 ? 8 : 16);
    cfg.fault.enabled = true;
    cfg.fault.checkpoint_dir = ctx.spec->checkpoint_dir;
    cfg.fault.checkpoint_every = 4;
    auto result = core::try_train_distributed_gcn(dataset, *ctx.cluster, cfg);
    if (!result) return result.status();
    if (ctx.attempt == 0) {
      leased_ids = {ctx.cluster->instance_id(0), ctx.cluster->instance_id(1)};
      return Status::preempted("mid-training spot reclaim (simulated)");
    }
    losses = result->epoch_losses;
    restored = result->checkpoints_restored;
    return result->epoch_losses.back();
  };
  const sched::JobId id = *mgr.submit(std::move(spec));
  ASSERT_TRUE(mgr.drain());

  const sched::JobRecord rec = mgr.job(id);
  EXPECT_EQ(rec.state, sched::JobState::kCompleted);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(rec.restarts, 1);
  EXPECT_GE(restored, 1u);
  // The payload ran on a 2-instance lease from the manager's fleet.
  ASSERT_EQ(leased_ids.size(), 2u);
  EXPECT_FALSE(leased_ids[0].empty());
  EXPECT_NE(leased_ids[0], leased_ids[1]);

  ASSERT_EQ(losses.size(), full->epoch_losses.size());
  for (std::size_t e = 0; e < losses.size(); ++e)
    ASSERT_EQ(losses[e], full->epoch_losses[e]) << "epoch " << e;
}

// --- payload failure -----------------------------------------------------

TEST(PayloadFailure, EndsJobFailed) {
  int attempts = 0;
  sched::ClusterManager mgr(fleet(1));
  mgr.register_tenant(unlimited("student"));

  // A non-retryable payload error fails the job on its first attempt and
  // carries the payload's Status.
  sched::JobSpec broken = synthetic("student", 1, 0.5);
  broken.work = [&](sched::JobContext&) -> Expected<double> {
    ++attempts;
    return Status::data_loss("corrupt input shard (simulated)");
  };
  const sched::JobId broken_id = *mgr.submit(std::move(broken));
  ASSERT_TRUE(mgr.drain());
  const sched::JobRecord rec = mgr.job(broken_id);
  EXPECT_EQ(rec.state, sched::JobState::kFailed);
  EXPECT_EQ(rec.final_status.code(), ErrorCode::kDataLoss);
  EXPECT_EQ(rec.final_status.message(), "corrupt input shard (simulated)");
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(rec.restarts, 0);
  EXPECT_EQ(mgr.stats().failed, 1u);

  // A payload that fails retryably on every attempt is requeued until
  // max_attempts runs are spent, then fails with the last Status.
  attempts = 0;
  sched::JobSpec flaky = synthetic("student", 1, 0.5);
  flaky.max_attempts = 3;
  flaky.work = [&](sched::JobContext& ctx) -> Expected<double> {
    EXPECT_EQ(ctx.attempt, attempts);
    ++attempts;
    return Status::unavailable("rank down (simulated)");
  };
  const sched::JobId flaky_id = *mgr.submit(std::move(flaky));
  ASSERT_TRUE(mgr.drain());
  const sched::JobRecord flaky_rec = mgr.job(flaky_id);
  EXPECT_EQ(flaky_rec.state, sched::JobState::kFailed);
  EXPECT_EQ(flaky_rec.final_status.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(flaky_rec.final_status.retryable());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(flaky_rec.restarts, 2);
  EXPECT_EQ(mgr.stats().failed, 2u);
  EXPECT_EQ(mgr.stats().completed, 0u);
}

// --- workload adapters ----------------------------------------------------

TEST(JobAdapters, GcnDqnAndRagJobsRunOnLeasedClusters) {
  sched::ClusterManager mgr(fleet(2));
  mgr.register_tenant(unlimited("s1"));
  mgr.register_tenant(unlimited("s2"));
  mgr.register_tenant(unlimited("s3"));

  auto dataset = std::make_shared<const graph::Dataset>(small_dataset());
  auto gcn_cfg = gcn_config(1, /*epochs=*/6);
  const sched::JobId gcn =
      *mgr.submit(core::make_gcn_job("s1", dataset, gcn_cfg, 0.5));

  sagesim::rl::DqnConfig dqn_cfg;
  dqn_cfg.warmup_transitions = 16;
  dqn_cfg.batch_size = 8;
  const sched::JobId dqn =
      *mgr.submit(core::make_dqn_job("s2", dqn_cfg, /*episodes=*/4,
                                     /*grid_n=*/3, 0.5));

  sagesim::rag::SyntheticCorpusParams corpus;
  corpus.num_docs = 60;
  corpus.num_topics = 4;
  const sched::JobId rag = *mgr.submit(core::make_rag_job(
      "s3", corpus, {"query one", "query two", "query three"}, 0.25));

  ASSERT_TRUE(mgr.drain());
  EXPECT_EQ(mgr.job(gcn).state, sched::JobState::kCompleted);
  EXPECT_EQ(mgr.job(dqn).state, sched::JobState::kCompleted);
  EXPECT_EQ(mgr.job(rag).state, sched::JobState::kCompleted);
  EXPECT_GT(mgr.job(gcn).payload_result, 0.0);  // final training loss
  EXPECT_GT(mgr.job(rag).payload_result, 0.0);  // mean answer latency
  // Interactive RAG work and batch training billed to distinct tenants.
  EXPECT_EQ(mgr.tenant_ledger().tenant_count(), 3u);
}

// --- ledger ---------------------------------------------------------------

TEST(TenantLedger, SplitsSpotFromOnDemandSpend) {
  cloud::TenantLedger ledger;
  cloud::LeaseRecord a;
  a.lease_id = "lease-1-0";
  a.tenant = "alice";
  a.gpu_hours = 4.0;
  a.cost_usd = 2.0;
  a.spot = true;
  ledger.add(a);
  cloud::LeaseRecord b = a;
  b.lease_id = "lease-2-0";
  b.cost_usd = 5.0;
  b.spot = false;
  ledger.add(b);
  cloud::LeaseRecord c = a;
  c.tenant = "bob";
  c.cost_usd = 1.0;
  ledger.add(c);

  EXPECT_DOUBLE_EQ(ledger.spend("alice"), 7.0);
  EXPECT_DOUBLE_EQ(ledger.gpu_hours("alice"), 8.0);
  EXPECT_DOUBLE_EQ(ledger.total_usd(), 8.0);
  EXPECT_EQ(ledger.tenant_count(), 2u);
  const auto rows = ledger.by_tenant();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tenant, "alice");  // descending spend
  EXPECT_DOUBLE_EQ(rows[0].spot_usd, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].ondemand_usd, 5.0);
  EXPECT_EQ(rows[0].leases, 2u);
}

TEST(TenantLedger, LeaseViewProjectsProvisionerUsage) {
  cloud::Provisioner prov;
  const cloud::IamRole admin = cloud::instructor_role();
  cloud::Provisioner::LaunchRequest od;
  od.type_name = "g4dn.xlarge";
  const std::string od_id = prov.try_launch(admin, od)->front();
  cloud::Provisioner::LaunchRequest spot = od;
  spot.spot = true;
  spot.spot_hourly_usd = 0.2;
  spot.lease_id = "lease-9-0";
  const std::string spot_id = prov.try_launch(admin, spot)->front();
  cloud::Provisioner::LaunchRequest edu_req = od;
  edu_req.educate = true;
  const std::string edu_id = prov.try_launch(admin, edu_req)->front();

  prov.advance_time(2.0);
  prov.terminate(admin, od_id);
  prov.terminate(admin, spot_id);
  prov.terminate(admin, edu_id);

  const cloud::TenantLedger view = cloud::lease_view(prov.ledger());
  ASSERT_EQ(view.records().size(), 2u);  // Educate hours are free: excluded
  double spot_usd = 0.0, od_usd = 0.0;
  for (const auto& row : view.by_tenant()) {
    spot_usd += row.spot_usd;
    od_usd += row.ondemand_usd;
  }
  EXPECT_NEAR(spot_usd, 0.4, 1e-9);  // 2h at the spot price
  EXPECT_GT(od_usd, 0.0);
  // The same split surfaces through CostReport::by_tenant().
  const cloud::CostReport report(prov.ledger());
  EXPECT_EQ(report.by_tenant().size(), view.by_tenant().size());
}

// --- autoscaling / utilization -------------------------------------------

TEST(Autoscale, GrowsForDemandAndReleasesIdleNodes) {
  sched::ManagerConfig cfg;
  cfg.min_nodes = 1;
  cfg.max_nodes = 8;
  cfg.idle_scale_down_h = 0.5;
  cfg.fair_share.aging_h = 1e6;
  sched::ClusterManager mgr(cfg);
  mgr.register_tenant(unlimited("burst"));
  EXPECT_EQ(mgr.nodes_up(), 1);

  for (int i = 0; i < 8; ++i) ASSERT_TRUE(mgr.submit(synthetic("burst", 1, 1.0)));
  EXPECT_EQ(mgr.nodes_up(), 8);  // scaled to the burst
  ASSERT_TRUE(mgr.drain());
  mgr.advance_to(mgr.now_h() + 2.0);  // idle long past the threshold
  EXPECT_EQ(mgr.nodes_up(), 1);       // back to the floor
  const sched::ManagerStats stats = mgr.stats();
  EXPECT_EQ(stats.peak_nodes, 8);
  EXPECT_GT(stats.terminations, 0u);
  EXPECT_EQ(stats.launches - stats.terminations,
            static_cast<std::size_t>(mgr.nodes_up()));
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.busy_node_hours, stats.up_node_hours + 1e-9);

  const sched::SchedReport report = sched::build_report(mgr);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_DOUBLE_EQ(report.total_usd, mgr.tenant_ledger().total_usd());
  EXPECT_FALSE(sched::to_text(report).empty());
}

// --- semester load --------------------------------------------------------

TEST(SemesterLoad, ScaledEnrollmentKeepsTheMix) {
  const auto base = edu::enrollment(edu::Semester::kSpring2025);
  const auto big = edu::scaled_enrollment(edu::Semester::kSpring2025, 1000);
  EXPECT_EQ(big.total(), 1000u);
  const double base_frac =
      static_cast<double>(base.graduates) / static_cast<double>(base.total());
  const double big_frac =
      static_cast<double>(big.graduates) / static_cast<double>(big.total());
  EXPECT_NEAR(big_frac, base_frac, 0.01);
  EXPECT_THROW(edu::scaled_enrollment(edu::Semester::kSpring2025, 0),
               std::invalid_argument);
}

TEST(SemesterLoad, GeneratesBurstyZipfianSemester) {
  sched::SemesterLoadConfig cfg;
  cfg.tenants = 50;
  cfg.weeks = 4.0;
  cfg.seed = 7;
  const sched::SemesterLoad load = sched::generate_semester_load(cfg);
  EXPECT_EQ(load.roster.size(), 50u);
  EXPECT_GT(load.submissions.size(), 50u * 10u);
  EXPECT_GT(load.expected_gpu_hours, 0.0);

  bool sorted = true, has_gang = false, has_interactive = false;
  for (std::size_t i = 0; i < load.submissions.size(); ++i) {
    const auto& s = load.submissions[i];
    if (i > 0 && s.arrive_h < load.submissions[i - 1].arrive_h) sorted = false;
    EXPECT_GE(s.arrive_h, 0.0);
    EXPECT_LE(s.arrive_h, load.horizon_h);
    if (s.spec.ranks > 1) has_gang = true;
    if (s.spec.priority == sched::JobClass::kInteractive)
      has_interactive = true;
  }
  EXPECT_TRUE(sorted);
  EXPECT_TRUE(has_gang);
  EXPECT_TRUE(has_interactive);

  // Graduate tenants carry double weight; budgets are always positive.
  bool grad_weighted = false;
  for (const auto& t : load.roster) {
    EXPECT_GT(t.budget_usd, 0.0);
    if (t.level == edu::Level::kGraduate && t.weight == 2.0)
      grad_weighted = true;
  }
  EXPECT_TRUE(grad_weighted);

  // Deterministic in the seed.
  const sched::SemesterLoad replay = sched::generate_semester_load(cfg);
  ASSERT_EQ(replay.submissions.size(), load.submissions.size());
  for (std::size_t i = 0; i < load.submissions.size(); ++i)
    EXPECT_DOUBLE_EQ(replay.submissions[i].arrive_h,
                     load.submissions[i].arrive_h);
}

// --- a small end-to-end semester -----------------------------------------

TEST(MiniSemester, EveryAdmittedJobCompletesUnderBudget) {
  sched::SemesterLoadConfig load_cfg;
  load_cfg.tenants = 40;
  load_cfg.weeks = 3.0;
  load_cfg.seed = 11;
  const sched::SemesterLoad load = sched::generate_semester_load(load_cfg);

  sched::ManagerConfig cfg;
  cfg.min_nodes = 2;
  cfg.max_nodes = 12;
  cfg.spot_nodes = 4;
  cfg.spot.trace = cloud::synthetic_price_trace(load.horizon_h + 200.0, 0.2,
                                                10.0, 12, 1.0);
  sched::ClusterManager mgr(cfg);
  for (const auto& t : load.roster) {
    sched::TenantConfig tc;
    tc.id = t.id;
    tc.weight = t.weight;
    tc.budget_usd = t.budget_usd;
    mgr.register_tenant(std::move(tc));
  }

  std::size_t admitted = 0, deferred = 0, rejected = 0;
  for (const auto& sub : load.submissions) {
    mgr.advance_to(sub.arrive_h);
    auto r = mgr.submit(sub.spec);
    if (r) {
      ++admitted;
    } else if (r.status().retryable()) {
      ++deferred;  // quota backpressure; the bench resubmits, this test drops
    } else {
      ++rejected;
    }
  }
  ASSERT_TRUE(mgr.drain());

  EXPECT_GT(admitted, load.submissions.size() / 2);
  for (const auto& rec : mgr.records())
    EXPECT_EQ(rec.state, sched::JobState::kCompleted)
        << rec.spec.name << " " << to_string(rec.state);
  const auto ledger = mgr.tenant_ledger();
  for (const auto& row : ledger.by_tenant())
    EXPECT_LE(row.total_usd(), mgr.budget_cap(row.tenant) + 1e-6);
  EXPECT_GT(mgr.stats().utilization(), 0.2);
}

// --- concurrency (the tsan.test_sched entry) ------------------------------

TEST(Concurrency, ParallelSubmittersRaceTheEventLoop) {
  sched::ManagerConfig cfg;
  cfg.min_nodes = 2;
  cfg.max_nodes = 8;
  cfg.spot_nodes = 2;
  cfg.spot.trace =
      cloud::synthetic_price_trace(400.0, 0.2, 10.0, 20, 0.5);
  sched::ClusterManager mgr(cfg);
  constexpr int kThreads = 4, kJobs = 20;
  for (int t = 0; t < kThreads; ++t)
    mgr.register_tenant(unlimited("tenant-" + std::to_string(t)));

  std::atomic<int> admitted{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&mgr, &admitted, t] {
      for (int j = 0; j < kJobs; ++j) {
        const double service = 0.05 + 0.01 * ((t + j) % 5);
        auto r = mgr.submit(
            synthetic("tenant-" + std::to_string(t), 1 + (j % 2), service));
        if (r) admitted.fetch_add(1);
      }
    });
  }
  for (int step = 1; step <= 40; ++step) mgr.advance_to(0.1 * step);
  for (auto& w : workers) w.join();
  ASSERT_TRUE(mgr.drain());

  EXPECT_EQ(admitted.load(), kThreads * kJobs);
  const sched::ManagerStats stats = mgr.stats();
  EXPECT_EQ(stats.admitted, static_cast<std::size_t>(admitted.load()));
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(admitted.load()));
  EXPECT_EQ(mgr.queued_count(), 0u);
  EXPECT_EQ(mgr.running_count(), 0u);
}
