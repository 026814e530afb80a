// Closed-form pricing against per-thread pricing.  Library kernels launch
// through gpu::Device::launch_modeled: under analytic fidelity they compute
// on the host engines and are priced from closed-form flop and byte counts;
// under Fidelity::kWarp their per-thread bodies run and every thread
// reports its own counts.  Each test runs one kernel family both ways on
// fresh devices and requires identical output bits and identical flops,
// bytes, blocks and threads_per_block on every kernel trace event.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/distributed_gcn.hpp"
#include "dataframe/dataframe.hpp"
#include "ddp/grad_sync.hpp"
#include "dflow/collectives.hpp"
#include "gpusim/device_manager.hpp"
#include "graph/generators.hpp"
#include "graph/spmm.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "rag/hnsw.hpp"
#include "rag/pipeline.hpp"
#include "tensor/ops.hpp"

namespace gpu = sagesim::gpu;
namespace ops = sagesim::tensor::ops;
namespace graph = sagesim::graph;
namespace nn = sagesim::nn;
namespace dflow = sagesim::dflow;
namespace ddp = sagesim::ddp;
namespace core = sagesim::core;
namespace prof = sagesim::prof;
namespace df = sagesim::df;
namespace rag = sagesim::rag;
using sagesim::stats::Rng;
using sagesim::tensor::Tensor;

namespace {

/// Sets the process default fidelity, restoring the environment's default
/// on exit.
class FidelityScope {
 public:
  explicit FidelityScope(gpu::Fidelity f) { gpu::set_default_fidelity(f); }
  ~FidelityScope() { gpu::set_default_fidelity(gpu::Fidelity::kDefault); }
  FidelityScope(const FidelityScope&) = delete;
  FidelityScope& operator=(const FidelityScope&) = delete;
};

/// One kernel trace event, reduced to what both pricings must agree on.
struct KernelRow {
  std::string name;
  int device;
  double flops, bytes, blocks, threads_per_block;
  bool warp;  ///< priced by the warp model
};

struct Run {
  std::vector<float> out;
  std::vector<KernelRow> rows;
};

using Body = std::function<std::vector<float>(gpu::DeviceManager&)>;

/// Runs @p body on fresh devices under @p fidelity; the body returns every
/// value its kernels wrote.
Run run_under(gpu::Fidelity fidelity, std::size_t devices, const Body& body) {
  FidelityScope scope(fidelity);
  gpu::DeviceManager dm(devices, gpu::spec::t4());
  Run r;
  r.out = body(dm);
  for (const auto& e : dm.timeline().snapshot(prof::EventKind::kKernel))
    r.rows.push_back({e.name, e.device, e.counters.at("flops"),
                      e.counters.at("bytes"), e.counters.at("blocks"),
                      e.counters.at("threads_per_block"),
                      e.counters.count("warp_fidelity") != 0});
  return r;
}

void expect_same_pricing(std::size_t devices, const Body& body) {
  const Run analytic = run_under(gpu::Fidelity::kAnalytic, devices, body);
  const Run warp = run_under(gpu::Fidelity::kWarp, devices, body);
  ASSERT_FALSE(analytic.rows.empty());
  ASSERT_EQ(analytic.out.size(), warp.out.size());
  for (std::size_t i = 0; i < analytic.out.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(analytic.out[i]),
              std::bit_cast<std::uint32_t>(warp.out[i]))
        << "output " << i << ": " << analytic.out[i] << " vs " << warp.out[i];
  ASSERT_EQ(analytic.rows.size(), warp.rows.size());
  for (std::size_t i = 0; i < analytic.rows.size(); ++i) {
    const KernelRow& a = analytic.rows[i];
    const KernelRow& w = warp.rows[i];
    SCOPED_TRACE("kernel #" + std::to_string(i) + " " + a.name);
    EXPECT_FALSE(a.warp);
    EXPECT_TRUE(w.warp);
    EXPECT_EQ(a.name, w.name);
    EXPECT_EQ(a.device, w.device);
    EXPECT_EQ(a.flops, w.flops);
    EXPECT_EQ(a.bytes, w.bytes);
    EXPECT_EQ(a.blocks, w.blocks);
    EXPECT_EQ(a.threads_per_block, w.threads_per_block);
  }
}

void append(std::vector<float>& out, const Tensor& t) {
  out.insert(out.end(), t.data(), t.data() + t.size());
}

Tensor transposed(const Tensor& a) {
  Tensor t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  return t;
}

}  // namespace

TEST(LaunchPricing, GemmEveryTransposeAccumulateAndEpilogue) {
  expect_same_pricing(1, [](gpu::DeviceManager& dm) {
    gpu::Device* dev = &dm.device(0);
    std::vector<float> out;
    // No extent is a multiple of the 16x16 block.  The first shape runs the
    // naive host loop, the second a serial blocked plan, the third a
    // parallel one.
    for (const auto& [m, k, n] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{7, 13, 5},
          {37, 19, 29},
          {130, 70, 33}}) {
      Rng rng(m * 131 + k * 7 + n);
      Tensor a(m, k), b(k, n), bias(1, n), seed(m, n);
      a.init_uniform(rng, -1, 1);
      b.init_uniform(rng, -1, 1);
      bias.init_uniform(rng, -0.5f, 0.5f);
      seed.init_uniform(rng, -1, 1);
      const Tensor at = transposed(a), bt = transposed(b);
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const Tensor& lhs = ta ? at : a;
          const Tensor& rhs = tb ? bt : b;
          for (const bool accumulate : {false, true}) {
            Tensor c = seed;
            ops::gemm(dev, lhs, rhs, c, ta, tb, 0.5f, accumulate);
            append(out, c);
          }
          Tensor biased(m, n), pre(m, n), act(m, n);
          ops::gemm_bias(dev, lhs, rhs, bias, biased, ta, tb);
          ops::gemm_bias_relu(dev, lhs, rhs, bias, pre, act, ta, tb);
          append(out, biased);
          append(out, pre);
          append(out, act);
        }
      }
    }
    return out;
  });
}

TEST(LaunchPricing, SpmmCsr) {
  expect_same_pricing(1, [](gpu::DeviceManager& dm) {
    Rng rng(44);
    // 300 rows: three 128-thread blocks with a ragged tail.
    const auto a =
        graph::normalized_adjacency(graph::erdos_renyi(300, 0.03, rng));
    std::vector<float> out;
    // Feature widths straddle every blocked-kernel tile boundary.
    for (const std::size_t d : {1, 7, 16, 33, 64}) {
      Tensor x(a.num_nodes(), d), y(a.num_nodes(), d);
      x.init_uniform(rng, -1, 1);
      graph::spmm(&dm.device(0), a, x, y);
      append(out, y);
    }
    return out;
  });
}

TEST(LaunchPricing, ElementwiseOps) {
  expect_same_pricing(1, [](gpu::DeviceManager& dm) {
    gpu::Device* dev = &dm.device(0);
    Rng rng(5);
    // 37 x 29 = 1073 elements: five 256-thread blocks with a ragged tail.
    Tensor a(37, 29), b(37, 29), bias(1, 29);
    a.init_uniform(rng, -1, 1);
    b.init_uniform(rng, -1, 1);
    bias.init_uniform(rng, -1, 1);
    std::vector<float> out;

    Tensor x = a;
    ops::add_bias(dev, x, bias);
    append(out, x);
    Tensor db(1, 29);
    ops::bias_grad(dev, a, db);
    append(out, db);
    Tensor r(37, 29), dx(37, 29), s(37, 29);
    ops::relu(dev, a, r);
    ops::relu_backward(dev, a, b, dx);
    ops::softmax_rows(dev, a, s);
    append(out, r);
    append(out, dx);
    append(out, s);
    Tensor o(37, 29);
    ops::add(dev, a, b, o);
    append(out, o);
    ops::sub(dev, a, b, o);
    append(out, o);
    ops::hadamard(dev, a, b, o);
    append(out, o);
    Tensor y = b;
    ops::scale(dev, y, 0.75f);
    append(out, y);
    ops::axpy(dev, -1.5f, a, y);
    append(out, y);
    Tensor dropped(37, 29), mask(37, 29);
    Rng drop_rng(9);
    ops::dropout(dev, a, dropped, mask, 0.3f, drop_rng);
    append(out, dropped);
    return out;
  });
}

TEST(LaunchPricing, SgdAndAdam) {
  expect_same_pricing(1, [](gpu::DeviceManager& dm) {
    gpu::Device* dev = &dm.device(0);
    Rng rng(11);
    std::vector<float> out;
    nn::Sgd plain(0.1f, 0.0f, 0.01f);
    nn::Sgd momentum(0.1f, 0.9f, 0.01f);
    nn::Adam adam(0.01f, 0.9f, 0.999f, 1e-8f, 0.01f);
    for (nn::Optimizer* opt : {static_cast<nn::Optimizer*>(&plain),
                               static_cast<nn::Optimizer*>(&momentum),
                               static_cast<nn::Optimizer*>(&adam)}) {
      nn::Param w(23, 17), bias(1, 17);
      for (nn::Param* p : {&w, &bias}) {
        p->value.init_uniform(rng, -1, 1);
        p->grad.init_uniform(rng, -1, 1);
      }
      const std::vector<nn::Param*> params{&w, &bias};
      for (int step = 0; step < 2; ++step) opt->step(dev, params);
      append(out, w.value);
      append(out, bias.value);
    }
    return out;
  });
}

TEST(LaunchPricing, RingAndNaiveAllreduce) {
  expect_same_pricing(3, [](gpu::DeviceManager& dm) {
    // 1001 elements over 3 ranks: uneven chunks and ragged block tails.
    constexpr std::size_t kCount = 1001;
    std::vector<float> out;
    for (const bool ring : {true, false}) {
      Rng rng(ring ? 21 : 22);
      std::vector<gpu::DeviceBuffer<float>> bufs;
      std::vector<dflow::CollectiveBuffer> views;
      for (std::size_t r = 0; r < 3; ++r) {
        std::vector<float> host(kCount);
        for (float& v : host) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        bufs.push_back(gpu::make_buffer<float>(dm.device(r), host));
        views.push_back({r, bufs.back().data()});
      }
      if (ring)
        dflow::ring_allreduce_sum(dm, views, kCount);
      else
        dflow::naive_allreduce_sum(dm, views, kCount);
      dflow::scale_buffers(dm, views, kCount, 1.0f / 3.0f);
      for (const auto& b : bufs) {
        const std::vector<float> h = b.to_host();
        out.insert(out.end(), h.begin(), h.end());
      }
    }
    return out;
  });
}

TEST(LaunchPricing, DdpPackAndUnpack) {
  expect_same_pricing(2, [](gpu::DeviceManager& dm) {
    Rng rng(31);
    std::vector<std::vector<std::unique_ptr<nn::Param>>> owned(2);
    std::vector<std::vector<nn::Param*>> replicas(2);
    for (std::size_t r = 0; r < 2; ++r) {
      for (const auto& [rows, cols] :
           {std::pair<std::size_t, std::size_t>{23, 17}, {1, 17}, {17, 3}}) {
        owned[r].push_back(std::make_unique<nn::Param>(rows, cols));
        replicas[r].push_back(owned[r].back().get());
      }
    }
    std::vector<float> out;
    // One bucket on the comm streams, then one bucket per parameter inside
    // sync() with the naive algorithm.
    for (const ddp::SyncOptions opts :
         {ddp::SyncOptions{},
          ddp::SyncOptions{.algo = ddp::AllReduceAlgo::kNaive,
                           .bucket_bytes = 256,
                           .overlap = false}}) {
      for (const auto& replica : replicas)
        for (nn::Param* p : replica) p->grad.init_uniform(rng, -1, 1);
      ddp::GradientSynchronizer sync(dm, replicas, opts);
      for (std::size_t r = 0; r < 2; ++r)
        for (const nn::Param* p : replicas[r]) sync.notify_grad_ready(r, p);
      sync.sync();
      for (const auto& replica : replicas)
        for (const nn::Param* p : replica) append(out, p->grad);
    }
    return out;
  });
}

TEST(LaunchPricing, InvalidLaunchWritesNothing) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  gpu::Device& dev = dm.device(0);
  for (const gpu::Fidelity f :
       {gpu::Fidelity::kAnalytic, gpu::Fidelity::kWarp}) {
    FidelityScope scope(f);
    bool wrote = false;
    const auto host = [&] { wrote = true; };
    const auto kernel = [&](const gpu::ThreadCtx&) { wrote = true; };
    // More threads per block than the device allows.
    EXPECT_THROW(dev.launch_modeled("too_wide", gpu::Dim3{1}, gpu::Dim3{4096},
                                    {}, host, kernel),
                 std::invalid_argument);
    EXPECT_FALSE(wrote);
    // An empty 1-D launch keeps launch_linear's error.
    EXPECT_THROW(gpu::elementwise(&dev, "empty", 0, 1.0, 4.0,
                                  [&](std::uint64_t) { wrote = true; }),
                 std::invalid_argument);
    EXPECT_FALSE(wrote);
  }
  EXPECT_TRUE(dm.timeline().empty());
}

// Kernels with no launch shape (losses, the conv weight gradient, dataframe
// aggregates, index search, query encoding) are priced by
// Device::charge_kernel.  Each is driven through its public entry with fixed
// inputs; its event's duration is pinned in hex float, with its counters.
TEST(LaunchPricing, RooflineChargesArePinned) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  gpu::Device* dev = &dm.device(0);
  Rng rng(91);

  Tensor logits(6, 5);
  logits.init_uniform(rng, -2, 2);
  const std::vector<int> labels{0, 1, 2, 3, 4, 0};
  nn::softmax_cross_entropy(dev, logits, labels);
  const std::vector<nn::MseTarget> targets{
      {0, 0, 1.0f}, {1, 2, -0.5f}, {5, 4, 0.25f}};
  nn::masked_mse(dev, logits, targets);

  nn::Conv2d conv(2, 6, 6, 3, 3, 1, rng);
  Tensor x(4, 2 * 6 * 6), dy(4, conv.out_features());
  x.init_uniform(rng, -1, 1);
  dy.init_uniform(rng, -1, 1);
  conv.forward(dev, x, /*train=*/true);
  conv.backward(dev, dy);

  const df::DataFrame left({df::Column("key", std::vector<std::int64_t>{
                                                  1, 2, 1, 3, 2, 1, 4}),
                            df::Column("v", std::vector<double>{
                                                0.5, 1.5, 2.5, 3.5, 4.5,
                                                5.5, 6.5})});
  const df::DataFrame right(
      {df::Column("key", std::vector<std::int64_t>{1, 2, 5}),
       df::Column("w", std::vector<double>{10.0, 20.0, 50.0})});
  left.group_by(dev, "key", "v", df::Agg::kSum);
  left.join(dev, right, "key");
  left.reduce(dev, "v", df::Agg::kMean);

  rag::SyntheticCorpusParams params;
  params.num_docs = 120;
  params.num_topics = 6;
  const auto synth = rag::synthetic_corpus(params, rng);
  rag::TfIdfEncoder enc(64);
  enc.fit(synth.corpus);
  const Tensor vectors = enc.encode_corpus(synth.corpus);
  const Tensor query = enc.encode(rag::synthetic_query(params, 2, rng));
  rag::IvfFlatIndex ivf(64, 8, 2);
  ivf.train(nullptr, vectors);
  ivf.add(vectors);
  ASSERT_TRUE(ivf.search(dev, query, 5));
  rag::HnswIndex hnsw(64);
  hnsw.add(vectors);
  ASSERT_TRUE(hnsw.search_with_ef(dev, query, 5, 32));

  rag::RagConfig cfg;
  cfg.embed_dim = 64;
  rag::RagPipeline pipeline(synth.corpus,
                            std::make_unique<rag::BruteForceIndex>(64), dev,
                            cfg);
  const auto answers = pipeline.answer_batch(
      {rag::synthetic_query(params, 0, rng),
       rag::synthetic_query(params, 4, rng)});
  ASSERT_TRUE(answers);

  struct Pinned {
    const char* name;
    double duration_s, flops, bytes;
  };
  const Pinned pinned[] = {
      {"cross_entropy", 0x1.92a767b05b70ep-18, 90, 0},
      {"mse_loss", 0x1.92a73d8cb228fp-18, 12, 0},
      {"conv2d_wgrad", 0x1.92c808febee66p-18, 15552, 0},
      {"df_groupby", 0x1.92ad3a6205ec7p-18, 21, 112},
      {"df_hash_join", 0x1.92afce170258bp-18, 0, 160},
      {"df_reduce", 0x1.92aa38b98a18ep-18, 7, 56},
      {"ivf_centroid_score", 0x1.92a96047af7f4p-18, 1024, 0},
      {"hnsw_search", 0x1.92bf4190cfeabp-18, 11392, 0},
      {"rag_encode", 0x1.92ac9e19a1565p-18, 2560, 0},
  };
  const auto events = dm.timeline().snapshot(prof::EventKind::kKernel);
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.name);
    const auto named = [&](const prof::TraceEvent& e) {
      return e.name == p.name;
    };
    ASSERT_EQ(std::count_if(events.begin(), events.end(), named), 1);
    const auto it = std::find_if(events.begin(), events.end(), named);
    EXPECT_EQ(it->duration_s, p.duration_s) << std::hexfloat << it->duration_s;
    EXPECT_EQ(it->counters.at("flops"), p.flops);
    EXPECT_EQ(it->counters.at("bytes"), p.bytes);
  }
  // Generation is priced as one launch per token, on no timeline.
  for (const rag::RagAnswer& a : *answers)
    EXPECT_EQ(a.generate_s, 0x1.f753a4173b379p-14)
        << std::hexfloat << a.generate_s;
}

// Modeled seconds of Algorithm 1 on a small graph, pinned in hex float.
// Closed-form pricing must reproduce the per-thread totals to the bit; a
// deliberate pricing change updates these constants.
TEST(Alg1, ModeledTimeIsPinned) {
  Rng rng(77);
  graph::PlantedPartitionParams p;
  p.num_nodes = 240;
  p.num_classes = 3;
  p.feature_dim = 16;
  p.intra_edge_prob = 0.06;
  p.inter_edge_prob = 0.003;
  p.feature_noise_sd = 1.0;
  const auto ds = graph::planted_partition(p, rng);

  FidelityScope scope(gpu::Fidelity::kAnalytic);
  const std::pair<int, double> pinned[] = {{1, 0x1.b8eaf14dd2ceep-5},
                                           {2, 0x1.b0f47739e82b7p-4},
                                           {4, 0x1.a7999e3fc8d49p-3}};
  for (const auto& [k, seconds] : pinned) {
    core::DistributedGcnConfig cfg;
    cfg.num_partitions = k;
    cfg.epochs = 25;
    cfg.hidden = 8;
    cfg.dropout = 0.1f;
    gpu::DeviceManager dm(static_cast<std::size_t>(k), gpu::spec::t4());
    dflow::Cluster cluster(dm);
    const auto res = core::try_train_distributed_gcn(ds, cluster, cfg).value();
    EXPECT_EQ(res.train_sim_seconds, seconds)
        << "k=" << k << ": " << std::hexfloat << res.train_sim_seconds;
  }
}
