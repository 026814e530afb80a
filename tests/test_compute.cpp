// Tests for the compute module: the fork/join shape host kernels rely on
// (a GEMM launched inside a pool task completes, a grain-collapsed loop
// stops at the first exception), pooled scratch, the shape-keyed autotuner
// (round-trip persistence, corrupt-cache degradation, hostile tiles), and
// the worker-count sweeps that pin the bit-identity contract — GEMM, SpMM
// and Algorithm 1 must produce identical bits on 1, 2 and 8 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "compute/autotuner.hpp"
#include "compute/plan.hpp"
#include "core/distributed_gcn.hpp"
#include "ddp/grad_sync.hpp"
#include "graph/generators.hpp"
#include "graph/spmm.hpp"
#include "tensor/gemm_host.hpp"
#include "tensor/ops.hpp"

namespace compute = sagesim::compute;
namespace tensor = sagesim::tensor;
namespace ops = sagesim::tensor::ops;
namespace graph = sagesim::graph;
namespace core = sagesim::core;
namespace gpu = sagesim::gpu;
namespace dflow = sagesim::dflow;
using sagesim::stats::Rng;

namespace {

/// Scoped compute::set_executor override (restores the shared pool).
struct ExecutorGuard {
  explicit ExecutorGuard(gpu::Executor* ex) { compute::set_executor(ex); }
  ~ExecutorGuard() { compute::set_executor(nullptr); }
};

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

}  // namespace

// --- scratch ---------------------------------------------------------------------

TEST(Plan, ScratchDrawsFromPool) {
  compute::Scratch empty(0);
  EXPECT_EQ(empty.data(), nullptr);
  compute::Scratch block(1024 * sizeof(float));
  ASSERT_NE(block.floats(), nullptr);
  block.floats()[0] = 1.0f;
  block.floats()[1023] = 2.0f;
  EXPECT_EQ(block.floats()[0], 1.0f);
}

// --- executor grain --------------------------------------------------------------

TEST(ParallelFor, GrainCollapsesSmallRangesToCaller) {
  gpu::Executor ex(2);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  ex.parallel_for(
      64, [&](std::uint64_t i) { ran[i] = std::this_thread::get_id(); },
      /*grain=*/64);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, GrainStillVisitsEveryIndexOnce) {
  gpu::Executor ex(2);
  for (const std::uint64_t grain : {1ull, 7ull, 100ull, 1000ull}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    ex.parallel_for(
        100, [&](std::uint64_t i) { hits[i].fetch_add(1); }, grain);
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
  }
}

TEST(ParallelFor, GrainCollapsedLoopStopsAtFirstThrow) {
  // Below kSerialFlopFloor a GEMM's loops run grain-collapsed on the caller
  // (and a 1-worker pool runs every loop there): the first throw must reach
  // the caller with no later index run.
  for (const unsigned workers : {1u, 2u}) {
    gpu::Executor ex(workers);
    const auto caller = std::this_thread::get_id();
    std::vector<std::uint64_t> ran;
    EXPECT_THROW(ex.parallel_for(
                     8,
                     [&](std::uint64_t i) {
                       EXPECT_EQ(std::this_thread::get_id(), caller);
                       ran.push_back(i);
                       if (i == 3) throw std::out_of_range("index 3");
                     },
                     /*grain=*/UINT64_MAX),
                 std::out_of_range);
    EXPECT_EQ(ran, (std::vector<std::uint64_t>{0, 1, 2, 3}))
        << "workers=" << workers;
  }
}

TEST(ParallelFor, GemmInsidePoolTaskCompletes) {
  // GEMM runs inside core::Workflow stages, which are tasks on the same
  // shared pool its fork/join uses.  With every worker busy in such a task,
  // the callers' own claims must still finish each GEMM, and the result
  // must equal the naive loop bitwise.
  Rng rng(2024);
  const std::size_t m = 200, k = 80, n = 70;  // above the serial floor
  tensor::Tensor a(m, k), b(k, n), ref(m, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  ops::detail::GemmSpec spec;
  spec.a = a.data();
  spec.b = b.data();
  spec.c = ref.data();
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.lda = k;
  spec.ldb = n;
  ops::detail::gemm_host_naive(spec);

  for (const unsigned workers : {1u, 2u}) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    std::vector<tensor::Tensor> outs(workers, tensor::Tensor(m, n));
    std::vector<sagesim::runtime::Future<bool>> tasks;
    for (unsigned w = 0; w < workers; ++w)
      tasks.push_back(ex.scheduler().submit("gemm", [&, w] {
        ops::detail::GemmSpec inner = spec;
        inner.c = outs[w].data();
        ops::detail::gemm_host_blocked(inner);
        return ex.scheduler().current_worker() >= 0;
      }));
    for (unsigned w = 0; w < workers; ++w) {
      EXPECT_TRUE(tasks[w].get()) << "workers=" << workers;
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], outs[w][i])
            << "workers=" << workers << " task " << w << " at " << i;
    }
  }
}

// --- autotuner -------------------------------------------------------------------

TEST(Autotuner, ConsultFallsBackToDefaultsAndCountsMisses) {
  compute::Autotuner tuner;
  const auto t = tuner.gemm_tiling(64, 64, 64);
  EXPECT_EQ(t.mr, 4u);
  EXPECT_EQ(t.mc, 64u);
  EXPECT_TRUE(t.nr == 8u || t.nr == 16u);  // ISA-dependent default
  const auto s = tuner.spmm_tiling(1000, 5000, 64);
  EXPECT_EQ(s.row_block, 64u);
  EXPECT_EQ(tuner.hnsw_ef(1000, 64, 10), 0u);  // untuned -> caller default
  const auto st = tuner.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 3u);
}

TEST(Autotuner, RecordThenConsultHits) {
  compute::Autotuner tuner;
  compute::GemmTiling t{6, 16, 128, 256, 128};
  tuner.record_gemm(512, 512, 512, t);
  EXPECT_EQ(tuner.gemm_tiling(512, 512, 512), t);
  // A different shape is a different key.
  EXPECT_FALSE(tuner.gemm_tiling(512, 512, 511) == t);
  const auto st = tuner.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(Autotuner, CacheRoundTripsThroughDisk) {
  const std::string path = temp_path("tune_roundtrip.txt");
  compute::Autotuner a;
  const compute::GemmTiling gt{4, 8, 32, 128, 64};
  const compute::SpmmTiling st{128, 32};
  a.record_gemm(100, 200, 300, gt);
  a.record_spmm(5000, 40000, 64, st);
  a.tune_hnsw(2000, 256, 10,
              [](std::size_t ef) { return ef == 64 ? 1.0 : 2.0; });
  ASSERT_TRUE(a.save(path));

  compute::Autotuner b;
  ASSERT_TRUE(b.load(path));
  EXPECT_TRUE(b.stats().loaded);
  EXPECT_EQ(b.entry_count(), 3u);
  EXPECT_EQ(b.gemm_tiling(100, 200, 300), gt);
  EXPECT_EQ(b.spmm_tiling(5000, 40000, 64), st);
  EXPECT_EQ(b.hnsw_ef(2000, 256, 10), 64u);
  std::remove(path.c_str());
}

TEST(Autotuner, MissingFileStartsEmptyWithoutError) {
  compute::Autotuner t;
  EXPECT_TRUE(t.load(temp_path("does_not_exist_12345.txt")));
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_FALSE(t.stats().corrupt);
}

TEST(Autotuner, CorruptCacheWarnsAndFallsBackToDefaults) {
  const auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
  };
  const compute::GemmTiling default_tiling =
      compute::Autotuner{}.gemm_tiling(64, 64, 64);

  struct Case {
    const char* leaf;
    const char* body;
  };
  const Case cases[] = {
      {"tune_garbage.txt", "complete nonsense\nnot a cache\n"},
      {"tune_badver.txt", "sagesim-tune-cache v999\n"},
      {"tune_badentry.txt", "sagesim-tune-cache v1\ngemm broken entry here\n"},
      // DDP bucket entries are no longer a cache kind.
      {"tune_ddp.txt", "sagesim-tune-cache v1\nddp 4194304 4 2097152\n"},
  };
  for (const auto& c : cases) {
    const std::string path = temp_path(c.leaf);
    write_file(path, c.body);
    compute::Autotuner t;
    t.record_gemm(64, 64, 64, compute::GemmTiling{6, 16, 32, 0, 0});
    EXPECT_FALSE(t.load(path)) << c.leaf;
    EXPECT_TRUE(t.stats().corrupt) << c.leaf;
    // Pre-existing entries are dropped too: the tuner is back at defaults,
    // never in a half-loaded state.
    EXPECT_EQ(t.entry_count(), 0u) << c.leaf;
    EXPECT_EQ(t.gemm_tiling(64, 64, 64), default_tiling) << c.leaf;
    std::remove(path.c_str());
  }
}

TEST(Autotuner, TuneGemmPicksFastestCandidateAndRecordsIt) {
  compute::Autotuner tuner;
  const auto candidates = compute::Autotuner::gemm_candidates(128, 128, 128);
  ASSERT_GE(candidates.size(), 2u);
  // Deterministic fake timer: the second candidate is the "fastest".
  const compute::GemmTiling want = candidates[1];
  const auto timed = [&](const compute::GemmTiling& t) {
    return t == want ? 1.0 : 2.0;
  };
  const auto winner = tuner.tune_gemm(128, 128, 128, timed);
  EXPECT_EQ(winner, want);
  EXPECT_EQ(tuner.gemm_tiling(128, 128, 128), want);
  EXPECT_EQ(tuner.stats().searches, 1u);
}

TEST(Autotuner, SpmmAndDdpCandidatesAreSane) {
  for (const auto& s : compute::Autotuner::spmm_candidates(64)) {
    EXPECT_GE(s.row_block, 1u);
    EXPECT_GE(s.tile_width, 8u);
  }
  // tune_hnsw's tie-break toward the faster search needs smallest-ef first.
  const auto efs = compute::Autotuner::hnsw_ef_candidates();
  ASSERT_FALSE(efs.empty());
  EXPECT_TRUE(std::is_sorted(efs.begin(), efs.end()));
}

TEST(Autotuner, DdpBucketResolutionPrefersTunedValue) {
  // The bucket size is not an autotuner entry: a set size is kept, and 0
  // means kDefaultBucketBytes (4 MiB).
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  sagesim::nn::Param p0(4, 8), p1(4, 8);
  const std::vector<std::vector<sagesim::nn::Param*>> replicas{{&p0}, {&p1}};
  const sagesim::ddp::GradientSynchronizer set(
      dm, replicas, sagesim::ddp::SyncOptions{.bucket_bytes = 256});
  EXPECT_EQ(set.options().bucket_bytes, 256u);
  const sagesim::ddp::GradientSynchronizer unset(dm, replicas,
                                                 sagesim::ddp::SyncOptions{});
  EXPECT_EQ(unset.options().bucket_bytes, std::size_t{4} << 20);
}

TEST(Autotuner, OversizedTilesStillComputeEveryOutput) {
  // A cache entry is only a speed hint: tiles near SIZE_MAX must not wrap
  // the kernels' panel/block counts to 0 and leave outputs unwritten.
  Rng rng(606);
  const std::size_t m = 64, k = 64, n = 64;
  tensor::Tensor a(m, k), b(k, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  const auto g = graph::rmat(8, 4, rng);
  const auto adj = graph::normalized_adjacency(g);
  const std::size_t d = 24;
  tensor::Tensor x(adj.num_nodes(), d);
  x.init_uniform(rng, -1, 1);

  const std::string huge = std::to_string(SIZE_MAX);
  const std::string path = temp_path("tune_oversized.txt");
  {
    std::ofstream out(path);
    out << "sagesim-tune-cache v1\n"
        << "gemm " << compute::isa_name() << ' ' << m << ' ' << n << ' ' << k
        << " 4 16 " << huge << " 0 0\n"
        << "spmm " << compute::isa_name() << ' ' << adj.num_nodes() << ' '
        << adj.nnz() << ' ' << d << ' ' << huge << " 64\n";
  }
  auto& shared = compute::Autotuner::shared();
  ASSERT_TRUE(shared.load(path));
  std::remove(path.c_str());
  const std::uint64_t hits_before = shared.stats().hits;

  tensor::Tensor c(m, n), c_ref(m, n);
  c.fill(-7.0f);
  ops::gemm(nullptr, a, b, c);
  ops::detail::GemmSpec spec;
  spec.a = a.data();
  spec.b = b.data();
  spec.c = c_ref.data();
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.lda = k;
  spec.ldb = n;
  ops::detail::gemm_host_naive(spec);

  tensor::Tensor y(adj.num_nodes(), d), y_ref(adj.num_nodes(), d);
  y.fill(-7.0f);
  graph::spmm(nullptr, adj, x, y);
  graph::detail::spmm_host_reference(adj, x, y_ref);

  const std::uint64_t hits = shared.stats().hits - hits_before;
  shared.clear();
  EXPECT_EQ(hits, 2u) << "both kernels must have consulted the entries";
  for (std::size_t i = 0; i < c_ref.size(); ++i)
    ASSERT_EQ(c_ref[i], c[i]) << "gemm at " << i;
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    ASSERT_EQ(y_ref[i], y[i]) << "spmm at " << i;
}

// --- worker-count bit-identity sweeps --------------------------------------------
//
// The determinism contract: every output element is computed by exactly one
// plan node with a fixed fold order, so the worker count is invisible in
// the result bits.  Swept at 1, 2 and 8 workers via the compute-executor
// override (no re-exec under SAGESIM_WORKERS needed).

namespace {

tensor::Tensor transposed_copy(const tensor::Tensor& a) {
  tensor::Tensor t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  return t;
}

}  // namespace

TEST(WorkerSweep, GemmBitIdenticalAcrossWorkerCountsAndTilings) {
  Rng rng(4242);
  const std::size_t m = 65, k = 67, n = 66;
  tensor::Tensor a(m, k), b(k, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);

  ops::detail::GemmSpec spec;
  spec.a = a.data();
  spec.b = b.data();
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.lda = k;
  spec.ldb = n;

  tensor::Tensor ref(m, n);
  spec.c = ref.data();
  ops::detail::gemm_host_naive(spec);

  const compute::GemmTiling tilings[] = {
      compute::Autotuner{}.gemm_tiling(m, n, k),  // the default
      {4, 8, 32, 16, 16},                         // small panels, KC slabs
      {6, 16, 64, 128, 128},                      // wide micro-tile
      {8, 8, 128, 0, 24},                         // portable-shaped + slabs
  };
  for (const unsigned workers : {1u, 2u, 8u}) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    for (const auto& tiling : tilings) {
      tensor::Tensor out(m, n);
      spec.c = out.data();
      ops::detail::gemm_host_blocked_tiled(spec, tiling);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], out[i]) << "workers=" << workers << " mr=" << tiling.mr
                                  << " nr=" << tiling.nr << " at " << i;
    }
  }
}

TEST(WorkerSweep, GemmTransposedAccumulateBitIdentical) {
  Rng rng(911);
  const std::size_t m = 33, k = 40, n = 17;
  tensor::Tensor a(m, k), b(k, n), seed(m, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  seed.init_uniform(rng, -1, 1);
  const tensor::Tensor at = transposed_copy(a), bt = transposed_copy(b);

  ops::detail::GemmSpec spec;
  spec.a = at.data();
  spec.b = bt.data();
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.lda = at.cols();
  spec.ldb = bt.cols();
  spec.ta = true;
  spec.tb = true;
  spec.alpha = 0.5f;
  spec.accumulate = true;

  tensor::Tensor ref = seed;
  spec.c = ref.data();
  ops::detail::gemm_host_naive(spec);

  for (const unsigned workers : {1u, 2u, 8u}) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    tensor::Tensor out = seed;
    spec.c = out.data();
    ops::detail::gemm_host_blocked_tiled(spec, {4, 16, 16, 32, 16});
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(ref[i], out[i]) << "workers=" << workers << " at " << i;
  }
}

TEST(WorkerSweep, SpmmBitIdenticalAcrossWorkerCountsAndTilings) {
  Rng rng(777);
  const auto g = graph::erdos_renyi(300, 0.03, rng);
  const auto a = graph::normalized_adjacency(g);
  for (const std::size_t d : {33u, 64u}) {
    tensor::Tensor x(a.num_nodes(), d);
    x.init_uniform(rng, -1, 1);
    tensor::Tensor ref(a.num_nodes(), d);
    graph::detail::spmm_host_reference(a, x, ref);

    const compute::SpmmTiling tilings[] = {
        {16, 16}, {64, 64}, {256, 32}, {1, 64}};
    for (const unsigned workers : {1u, 2u, 8u}) {
      gpu::Executor ex(workers);
      ExecutorGuard guard(&ex);
      for (const auto& tiling : tilings) {
        tensor::Tensor y(a.num_nodes(), d);
        graph::detail::spmm_host_blocked_tiled(a, x, y, tiling);
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(ref[i], y[i])
              << "workers=" << workers << " rb=" << tiling.row_block
              << " tw=" << tiling.tile_width << " d=" << d << " at " << i;
      }
    }
  }
}

TEST(WorkerSweep, Alg1TrainingBitIdenticalAcrossWorkerCounts) {
  // End-to-end: the full distributed-GCN pipeline (GEMM + SpMM + DDP sync)
  // must produce the same loss trajectory and accuracy at any compute
  // worker count — the property that makes SAGESIM_WORKERS a pure
  // performance knob.
  Rng rng(77);
  graph::PlantedPartitionParams p;
  p.num_nodes = 180;
  p.num_classes = 3;
  p.feature_dim = 12;
  p.intra_edge_prob = 0.06;
  p.inter_edge_prob = 0.003;
  p.feature_noise_sd = 1.0;
  const auto ds = graph::planted_partition(p, rng);

  core::DistributedGcnConfig cfg;
  cfg.num_partitions = 2;
  cfg.epochs = 8;
  cfg.hidden = 8;
  cfg.dropout = 0.1f;

  auto run = [&](unsigned workers) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    gpu::DeviceManager dm(2, gpu::spec::t4());
    dflow::Cluster cluster(dm);
    return core::try_train_distributed_gcn(ds, cluster, cfg).value();
  };

  const auto base = run(1);
  for (const unsigned workers : {2u, 8u}) {
    const auto res = run(workers);
    ASSERT_EQ(base.epoch_losses.size(), res.epoch_losses.size());
    for (std::size_t e = 0; e < base.epoch_losses.size(); ++e)
      ASSERT_EQ(base.epoch_losses[e], res.epoch_losses[e])
          << "workers=" << workers << " epoch " << e;
    EXPECT_EQ(base.test_accuracy, res.test_accuracy) << "workers=" << workers;
  }
}
