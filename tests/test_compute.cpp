// Tests for the compute module: the fork/join shape host kernels rely on
// (a GEMM launched inside a pool task completes, a grain-collapsed loop
// stops at the first exception), pooled scratch, and the worker-count
// sweeps that pin the bit-identity contract — GEMM and SpMM must produce
// identical bits on 1, 2 and 8 workers and on the portable and AVX2
// kernels, and Algorithm 1 on 1, 2 and 8 workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "compute/plan.hpp"
#include "core/distributed_gcn.hpp"
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

// --- worker-count bit-identity sweeps --------------------------------------------
//
// The determinism contract: every output element is computed by exactly one
// parallel_for index with a fixed fold order, so neither the worker count
// nor the kernel ISA is visible in the result bits.  Swept at 1, 2 and 8
// workers via the compute-executor override (no re-exec under
// SAGESIM_WORKERS needed), on both ISAs: kPortable runs the portable
// kernels on any host, and kAvx2 runs the portable ones where the host
// lacks AVX2.

namespace {

constexpr compute::Isa kIsas[] = {compute::Isa::kPortable,
                                  compute::Isa::kAvx2};

const char* name(compute::Isa isa) {
  return isa == compute::Isa::kAvx2 ? "avx2" : "portable";
}

tensor::Tensor transposed_copy(const tensor::Tensor& a) {
  tensor::Tensor t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  return t;
}

}  // namespace

TEST(WorkerSweep, GemmBitIdenticalAcrossWorkerCountsAndIsas) {
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

  for (const unsigned workers : {1u, 2u, 8u}) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    for (const compute::Isa isa : kIsas) {
      tensor::Tensor out(m, n);
      spec.c = out.data();
      ops::detail::gemm_host_blocked(spec, isa);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], out[i])
            << "workers=" << workers << " isa=" << name(isa) << " at " << i;
    }
  }
}

TEST(WorkerSweep, GemmTransposedAccumulateBitIdentical) {
  Rng rng(911);
  // 320x70x16 is the dW form (Â X)^T dY: one B panel on AVX2, A read in
  // place, and past kSerialFlopFloor, so the pools split it over M.
  // 322x104x8 is one panel on the portable kernel too, and its last MC
  // panel ends in a 2-row partial micro-tile.
  using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
  for (const auto& [m, k, n] :
       {Shape{33, 40, 17}, Shape{320, 70, 16}, Shape{322, 104, 8}}) {
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
      for (const compute::Isa isa : kIsas) {
        tensor::Tensor out = seed;
        spec.c = out.data();
        ops::detail::gemm_host_blocked(spec, isa);
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(ref[i], out[i]) << "m=" << m << " workers=" << workers
                                    << " isa=" << name(isa) << " at " << i;
      }
    }
  }
}

TEST(WorkerSweep, SpmmBitIdenticalAcrossWorkerCountsAndIsas) {
  // 4096 rows are 64 row blocks, enough for the 2- and 8-worker pools to
  // split the loop past its grain floor.
  Rng rng(777);
  const auto g = graph::rmat(12, 4, rng);
  const auto a = graph::normalized_adjacency(g);
  for (const std::size_t d : {33u, 64u}) {
    tensor::Tensor x(a.num_nodes(), d);
    x.init_uniform(rng, -1, 1);
    tensor::Tensor ref(a.num_nodes(), d);
    graph::detail::spmm_host_reference(a, x, ref);

    for (const unsigned workers : {1u, 2u, 8u}) {
      gpu::Executor ex(workers);
      ExecutorGuard guard(&ex);
      for (const compute::Isa isa : kIsas) {
        tensor::Tensor y(a.num_nodes(), d);
        graph::detail::spmm_host_blocked(a, x, y, isa);
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(ref[i], y[i]) << "workers=" << workers
                                  << " isa=" << name(isa) << " d=" << d
                                  << " at " << i;
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
