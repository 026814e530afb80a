// The out-of-core graph pipeline: sharded RMAT generation invariants, the
// LRU shard store, counter-based neighbor sampling, the async prefetch
// pipeline, and end-to-end sampled mini-batch GCN training — including the
// headline determinism claims (bit-identical losses across worker counts,
// prefetch on/off, and checkpoint/restart) and the memory ceiling (peak
// resident bytes a small fraction of full materialization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compute/plan.hpp"
#include "core/sampled_gcn.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_manager.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/executor.hpp"
#include "graph/ooc.hpp"
#include "graph/prefetch.hpp"
#include "graph/sampler.hpp"
#include "mem/pool.hpp"
#include "runtime/fault.hpp"
#include "runtime/scheduler.hpp"

namespace fs = std::filesystem;
namespace compute = sagesim::compute;
namespace core = sagesim::core;
namespace dflow = sagesim::dflow;
namespace gpu = sagesim::gpu;
namespace graph = sagesim::graph;
namespace mem = sagesim::mem;
namespace rt = sagesim::runtime;
using sagesim::ErrorCode;
using sagesim::Expected;
using sagesim::Status;

namespace {

/// Scoped compute::set_executor override (restores the shared pool).
struct ExecutorGuard {
  explicit ExecutorGuard(gpu::Executor* ex) { compute::set_executor(ex); }
  ~ExecutorGuard() { compute::set_executor(nullptr); }
};

std::string scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("sagesim_pipeline_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A small multi-shard graph: 1024 nodes over 4 shards, several generation
/// blocks.
graph::OocGraphMeta small_graph(const std::string& tag,
                                std::uint64_t seed = 42) {
  graph::OocRmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  p.nodes_per_shard = 256;
  p.block_edges = 2048;
  p.dir = scratch_dir(tag);
  auto meta = graph::build_sharded_rmat(p);
  EXPECT_TRUE(meta) << meta.status().to_string();
  return *meta;
}

core::SampledGcnConfig small_config() {
  core::SampledGcnConfig cfg;
  cfg.num_ranks = 2;
  cfg.epochs = 2;
  // Degree balancing gives the hub-heavy rank a short node range; a small
  // batch keeps every rank above the 4-steps-per-epoch cap.
  cfg.batch_size = 16;
  cfg.fanouts = {4, 3};
  cfg.grad_accum_steps = 2;
  cfg.max_steps_per_epoch = 4;
  cfg.hidden = 8;
  cfg.max_resident_shards = 2;
  cfg.seed = 42;
  return cfg;
}

void expect_batches_equal(const graph::MiniBatch& a,
                          const graph::MiniBatch& b) {
  ASSERT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.seed_rows, b.seed_rows);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.sampled_edges, b.sampled_edges);
  ASSERT_EQ(a.adj.nnz(), b.adj.nnz());
  EXPECT_TRUE(std::equal(a.adj.columns.data(),
                         a.adj.columns.data() + a.adj.nnz(),
                         b.adj.columns.data()));
  EXPECT_TRUE(std::equal(a.adj.values.data(),
                         a.adj.values.data() + a.adj.nnz(),
                         b.adj.values.data()));
  ASSERT_EQ(a.features.rows(), b.features.rows());
  ASSERT_EQ(a.features.cols(), b.features.cols());
  EXPECT_TRUE(std::equal(
      a.features.data(),
      a.features.data() + a.features.rows() * a.features.cols(),
      b.features.data()));  // bit-identical, not merely close
}

}  // namespace

// --- sharded RMAT generation -------------------------------------------------

TEST(ShardedRmat, StructuralInvariants) {
  const auto meta = small_graph("invariants");
  EXPECT_EQ(meta.num_nodes, 1024u);
  EXPECT_EQ(meta.num_shards, 4u);
  EXPECT_GT(meta.num_directed_edges, 0u);

  auto store = graph::ShardStore::open(meta, meta.num_shards);
  ASSERT_TRUE(store) << store.status().to_string();

  std::uint64_t degree_sum = 0;
  for (const std::uint32_t d : store->degrees()) degree_sum += d;
  EXPECT_EQ(degree_sum, meta.num_directed_edges);

  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (std::size_t s = 0; s < meta.num_shards; ++s) {
    auto shard = store->acquire(s);
    ASSERT_TRUE(shard) << shard.status().to_string();
    EXPECT_EQ((*shard)->first_node, s * meta.nodes_per_shard);
    for (std::size_t i = 0; i < (*shard)->num_nodes; ++i) {
      const auto u =
          static_cast<graph::NodeId>((*shard)->first_node + i);
      const auto nb = (*shard)->neighbors(u);
      EXPECT_EQ(nb.size(), store->degree(u));
      for (std::size_t j = 0; j < nb.size(); ++j) {
        EXPECT_NE(nb[j], u) << "self loop at " << u;
        EXPECT_LT(nb[j], meta.num_nodes);
        if (j > 0) {
          EXPECT_LT(nb[j - 1], nb[j]) << "unsorted/dup at " << u;
        }
        edges.emplace(u, nb[j]);
      }
    }
  }
  EXPECT_EQ(edges.size(), meta.num_directed_edges);
  for (const auto& [u, v] : edges)
    EXPECT_TRUE(edges.count({v, u})) << "asymmetric edge " << u << "->" << v;
}

TEST(ShardedRmat, DeterministicRebuild) {
  const auto a = small_graph("det_a", 99);
  const auto b = small_graph("det_b", 99);
  EXPECT_EQ(a.num_directed_edges, b.num_directed_edges);

  auto sa = graph::ShardStore::open(a, 4);
  auto sb = graph::ShardStore::open(b, 4);
  ASSERT_TRUE(sa);
  ASSERT_TRUE(sb);
  ASSERT_TRUE(std::equal(sa->degrees().begin(), sa->degrees().end(),
                         sb->degrees().begin(), sb->degrees().end()));
  for (std::size_t s = 0; s < a.num_shards; ++s) {
    auto ha = sa->acquire(s);
    auto hb = sb->acquire(s);
    ASSERT_TRUE(ha);
    ASSERT_TRUE(hb);
    ASSERT_EQ((*ha)->adjacency.size(), (*hb)->adjacency.size());
    EXPECT_TRUE(std::equal((*ha)->adjacency.data(),
                           (*ha)->adjacency.data() + (*ha)->adjacency.size(),
                           (*hb)->adjacency.data()));
  }
}

TEST(ShardedRmat, ValidatesParams) {
  graph::OocRmatParams p;
  p.dir = scratch_dir("validate");
  p.scale = 0;
  EXPECT_THROW(graph::build_sharded_rmat(p), std::invalid_argument);
  p.scale = 29;
  EXPECT_THROW(graph::build_sharded_rmat(p), std::invalid_argument);
  p.scale = 10;
  p.edge_factor = 0;
  EXPECT_THROW(graph::build_sharded_rmat(p), std::invalid_argument);
  p.edge_factor = 8;
  p.dir.clear();
  EXPECT_THROW(graph::build_sharded_rmat(p), std::invalid_argument);
}

TEST(ShardedRmat, MetaRoundTripAndMissingDir) {
  const auto meta = small_graph("meta");
  const auto loaded = graph::load_ooc_meta(meta.dir);
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded->num_nodes, meta.num_nodes);
  EXPECT_EQ(loaded->nodes_per_shard, meta.nodes_per_shard);
  EXPECT_EQ(loaded->num_shards, meta.num_shards);
  EXPECT_EQ(loaded->num_directed_edges, meta.num_directed_edges);
  EXPECT_EQ(loaded->seed, meta.seed);

  const auto missing = graph::load_ooc_meta(scratch_dir("meta_missing"));
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.status().code(), ErrorCode::kUnavailable);
}

// --- shard store -------------------------------------------------------------

TEST(ShardStore, LruEvictsBeyondBoundAndPinsSurvive) {
  const auto meta = small_graph("lru");
  auto store = graph::ShardStore::open(meta, 1);
  ASSERT_TRUE(store);

  auto pin0 = store->acquire(0);
  ASSERT_TRUE(pin0);
  auto pin1 = store->acquire(1);  // evicts shard 0 from the cache
  ASSERT_TRUE(pin1);

  auto st = store->stats();
  EXPECT_EQ(st.loads, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_GE(st.resident_peak_bytes, st.resident_bytes);

  // The pinned shard outlives its eviction: reads stay valid.
  const graph::NodeId u = 3;
  EXPECT_EQ((*pin0)->neighbors(u).size(), store->degree(u));

  ASSERT_TRUE(store->acquire(1));  // cached
  EXPECT_EQ(store->stats().hits, 1u);
  EXPECT_EQ(store->stats().loads, 2u);
}

TEST(ShardStore, CorruptShardIsDataLoss) {
  // acquire() sizes its buffers from the shard header and hands offsets and
  // column ids to samplers that index with them unchecked, so every one of
  // those fields must be validated: corruption is kDataLoss, never a
  // bad_alloc, an out-of-bounds read or a silently wrong graph.
  const auto meta = small_graph("corrupt");
  const std::string path = (fs::path(meta.dir) / "shard_1.bin").string();
  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Layout: u64 magic, index, first_node, num_nodes, num_edges; then
  // num_nodes + 1 u64 offsets; then num_edges u32 column ids.
  constexpr std::size_t kFirstNode = 16, kNumNodes = 24, kNumEdges = 32,
                        kOffsets = 40;
  const std::size_t nodes = meta.nodes_per_shard;
  const std::size_t columns_at = kOffsets + (nodes + 1) * sizeof(std::uint64_t);
  std::uint64_t num_edges = 0;
  std::memcpy(&num_edges, pristine.data() + kNumEdges, sizeof(num_edges));
  ASSERT_GT(num_edges, 0u);

  const auto set_u64 = [](std::vector<char>& b, std::size_t at,
                          std::uint64_t v) {
    std::memcpy(b.data() + at, &v, sizeof(v));
  };
  const auto xor_u64 = [](std::vector<char>& b, std::size_t at,
                          std::uint64_t mask) {
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + at, sizeof(v));
    v ^= mask;
    std::memcpy(b.data() + at, &v, sizeof(v));
  };
  const auto offset_at = [&](std::size_t i) {
    return kOffsets + i * sizeof(std::uint64_t);
  };
  const auto acquire = [&](const std::vector<char>& bytes,
                           const graph::OocGraphMeta& m) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto store = graph::ShardStore::open(m, 1);
    EXPECT_TRUE(store);
    return store->acquire(1).status().code();
  };

  EXPECT_EQ(acquire(pristine, meta), ErrorCode::kOk);

  struct Corruption {
    const char* what;
    std::function<void(std::vector<char>&)> apply;
  };
  const Corruption corruptions[] = {
      {"num_nodes bit 40",
       [&](auto& b) { xor_u64(b, kNumNodes, std::uint64_t{1} << 40); }},
      {"num_edges bit 40",
       [&](auto& b) { xor_u64(b, kNumEdges, std::uint64_t{1} << 40); }},
      {"num_nodes off by one", [&](auto& b) { xor_u64(b, kNumNodes, 1); }},
      {"first_node of another shard",
       [&](auto& b) { set_u64(b, kFirstNode, 0); }},
      {"num_edges past end of file",
       [&](auto& b) { set_u64(b, kNumEdges, num_edges + 1); }},
      {"first offset nonzero", [&](auto& b) { set_u64(b, offset_at(0), 1); }},
      {"offset past adjacency",
       [&](auto& b) { set_u64(b, offset_at(nodes / 2), num_edges + 1000); }},
      {"last offset short",
       [&](auto& b) { set_u64(b, offset_at(nodes), num_edges - 1); }},
      {"column id past num_nodes",
       [&](auto& b) {
         const auto bad = static_cast<graph::NodeId>(meta.num_nodes);
         std::memcpy(b.data() + columns_at, &bad, sizeof(bad));
       }},
  };
  for (const Corruption& c : corruptions) {
    std::vector<char> bytes = pristine;
    c.apply(bytes);
    EXPECT_EQ(acquire(bytes, meta), ErrorCode::kDataLoss) << c.what;
  }
  EXPECT_EQ(acquire(pristine, meta), ErrorCode::kOk);

  // The column check has a fast path that is exact only for power-of-two
  // node counts: under a 1000-node meta, ids remapped below 1000 (whose OR
  // still reaches 1023) pass, and one id of 1000 fails.
  graph::OocGraphMeta odd = meta;
  odd.num_nodes = 1000;
  std::vector<char> remapped = pristine;
  for (std::size_t at = columns_at; at < remapped.size();
       at += sizeof(graph::NodeId)) {
    graph::NodeId v = 0;
    std::memcpy(&v, remapped.data() + at, sizeof(v));
    v %= 1000;
    std::memcpy(remapped.data() + at, &v, sizeof(v));
  }
  EXPECT_EQ(acquire(remapped, odd), ErrorCode::kOk);
  const graph::NodeId out_of_range = 1000;
  std::memcpy(remapped.data() + columns_at, &out_of_range,
              sizeof(out_of_range));
  EXPECT_EQ(acquire(remapped, odd), ErrorCode::kDataLoss);
  EXPECT_EQ(acquire(pristine, meta), ErrorCode::kOk);
}

// --- neighbor sampler --------------------------------------------------------

TEST(Sampler, DeterministicAcrossStoresAndCalls) {
  const auto meta = small_graph("sampler_det");
  auto s1 = graph::ShardStore::open(meta, 2);
  auto s2 = graph::ShardStore::open(meta, 4);  // different cache bound
  ASSERT_TRUE(s1);
  ASSERT_TRUE(s2);

  const graph::SamplerConfig cfg{{4, 3}, 9};
  graph::NeighborSampler a(*s1, {}, cfg);
  graph::NeighborSampler b(*s2, {}, cfg);
  const auto seeds = graph::schedule_seeds(0, 512, 32, 9, 0, 0);

  auto b1 = a.sample(0, 0, seeds);
  auto b2 = b.sample(0, 0, seeds);
  auto b3 = a.sample(0, 0, seeds);  // repeat on the same store
  ASSERT_TRUE(b1) << b1.status().to_string();
  ASSERT_TRUE(b2);
  ASSERT_TRUE(b3);
  expect_batches_equal(*b1, *b2);
  expect_batches_equal(*b1, *b3);

  // Structure: seeds first, local operator sized to the sampled node set.
  EXPECT_EQ(b1->num_seeds, 32u);
  for (std::uint32_t i = 0; i < b1->num_seeds; ++i) {
    EXPECT_EQ(b1->seed_rows[i], i);
    EXPECT_EQ(b1->nodes[i], seeds[i]);
  }
  std::set<graph::NodeId> unique(b1->nodes.begin(), b1->nodes.end());
  EXPECT_EQ(unique.size(), b1->nodes.size());
  EXPECT_EQ(b1->adj.num_nodes(), b1->nodes.size());
  EXPECT_EQ(b1->features.rows(), b1->nodes.size());
  EXPECT_GT(b1->sampled_edges, 0u);
  EXPECT_GT(b1->h2d_bytes(), 0u);

  // A different (epoch, index) draws a different subgraph.
  auto other = a.sample(1, 0, seeds);
  ASSERT_TRUE(other);
  EXPECT_NE(other->nodes, b1->nodes);
}

TEST(Sampler, ThrowsOnMalformedSeeds) {
  const auto meta = small_graph("sampler_throw");
  auto store = graph::ShardStore::open(meta, 2);
  ASSERT_TRUE(store);
  graph::NeighborSampler sampler(*store, {}, {});

  EXPECT_THROW(sampler.sample(0, 0, {}), std::invalid_argument);
  const std::vector<graph::NodeId> dup{1, 2, 1};
  EXPECT_THROW(sampler.sample(0, 0, dup), std::invalid_argument);
  const std::vector<graph::NodeId> oob{1, 4096};
  EXPECT_THROW(sampler.sample(0, 0, oob), std::invalid_argument);
}

TEST(Sampler, ScheduleSeedsIsAnEpochPermutation) {
  std::set<graph::NodeId> seen;
  for (std::uint64_t b = 0; b < 16; ++b) {
    const auto seeds = graph::schedule_seeds(256, 768, 32, 7, 0, b);
    ASSERT_EQ(seeds.size(), 32u);
    for (const graph::NodeId s : seeds) {
      EXPECT_GE(s, 256u);
      EXPECT_LT(s, 768u);
      EXPECT_TRUE(seen.insert(s).second) << "seed repeated within epoch";
    }
  }
  EXPECT_EQ(seen.size(), 512u);

  // A different epoch shuffles differently.
  EXPECT_NE(graph::schedule_seeds(256, 768, 32, 7, 0, 0),
            graph::schedule_seeds(256, 768, 32, 7, 1, 0));
  EXPECT_THROW(graph::schedule_seeds(256, 768, 32, 7, 0, 16),
               std::invalid_argument);
}

// --- prefetch pipeline -------------------------------------------------------

TEST(Prefetch, LookaheadMatchesSynchronousBitIdentically) {
  const auto meta = small_graph("prefetch");
  auto store = graph::ShardStore::open(meta, 2);
  ASSERT_TRUE(store);
  graph::NeighborSampler sampler(*store, {}, {{4, 3}, 9});
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  rt::Scheduler pool(2);

  const auto seed_fn = [](std::uint64_t epoch, std::uint64_t index) {
    return graph::schedule_seeds(0, 1024, 64, 5, epoch, index);
  };

  auto drain = [&](bool enabled) {
    graph::PrefetchPipeline pipe(
        sampler, seed_fn, /*epochs=*/1, /*batches_per_epoch=*/4,
        /*start_batch=*/0, &dm.device(0), pool, {.depth = 2, .enabled = enabled});
    EXPECT_EQ(pipe.total_batches(), 4u);
    std::vector<graph::StagedBatch> out;
    while (!pipe.done()) {
      auto staged = pipe.next();
      EXPECT_TRUE(staged) << staged.status().to_string();
      if (!staged) break;
      EXPECT_TRUE(staged->on_device);
      out.push_back(std::move(*staged));
    }
    auto exhausted = pipe.next();
    EXPECT_FALSE(exhausted);
    EXPECT_EQ(exhausted.status().code(), ErrorCode::kOutOfRange);
    return out;
  };

  const auto fast = drain(true);
  const auto sync = drain(false);
  ASSERT_EQ(fast.size(), 4u);
  ASSERT_EQ(sync.size(), 4u);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].batch.epoch, 0u);
    EXPECT_EQ(fast[i].batch.index, i);
    expect_batches_equal(fast[i].batch, sync[i].batch);
  }
}

// --- end-to-end sampled training ---------------------------------------------

TEST(SampledGcn, BitIdenticalAcrossWorkersAndPrefetch) {
  const auto meta = small_graph("train_det");
  const graph::OocFeatureSpec spec{};
  const auto cfg = small_config();

  auto run = [&](const core::SampledGcnConfig& c) {
    gpu::DeviceManager dm(2, gpu::spec::test_tiny());
    dflow::Cluster cluster(dm);
    return core::try_train_sampled_gcn(meta, spec, cluster, c);
  };

  const auto ref = run(cfg);
  ASSERT_TRUE(ref) << ref.status().to_string();
  ASSERT_EQ(ref->step_losses.size(), 8u);  // 2 epochs x 4 capped steps
  for (const double l : ref->step_losses) EXPECT_TRUE(std::isfinite(l));
  // 8 steps x 2 ranks x 2 accumulated micro-batches.
  EXPECT_EQ(ref->batches, 32u);
  EXPECT_GT(ref->sampled_edges, 0u);
  EXPECT_GT(ref->h2d_bytes, 0u);
  EXPECT_GT(ref->shard_loads, 0u);
  EXPECT_TRUE(std::isfinite(ref->eval_loss));
  EXPECT_EQ(ref->final_world, 2);
  EXPECT_EQ(ref->chunk_restarts, 0u);

  // The synchronous-staging control computes the same bits, only slower:
  // its copies serialize against compute instead of hiding under it.
  auto off = cfg;
  off.prefetch = false;
  const auto control = run(off);
  ASSERT_TRUE(control) << control.status().to_string();
  ASSERT_EQ(control->step_losses, ref->step_losses);
  EXPECT_EQ(control->eval_loss, ref->eval_loss);
  EXPECT_LE(ref->train_sim_seconds, control->train_sim_seconds);
  EXPECT_GE(ref->h2d_hidden_frac, control->h2d_hidden_frac);

  // Worker-count sweep: the pipeline is counter-based end to end, so the
  // loss trajectory is a pure function of the config.
  for (const unsigned workers : {1u, 2u, 8u}) {
    gpu::Executor ex(workers);
    ExecutorGuard guard(&ex);
    const auto swept = run(cfg);
    ASSERT_TRUE(swept) << swept.status().to_string();
    ASSERT_EQ(swept->step_losses, ref->step_losses)
        << workers << " compute workers";
    EXPECT_EQ(swept->eval_loss, ref->eval_loss);
  }
}

TEST(SampledGcn, PeakResidencyStaysUnderFortyPercentOfFullMaterialization) {
  graph::OocRmatParams p;
  p.scale = 16;  // 65k nodes — small enough to generate in a unit test,
                 // large enough that the full graph dwarfs the working set
  p.edge_factor = 8;
  p.seed = 7;
  p.nodes_per_shard = 4096;
  p.dir = scratch_dir("ceiling");
  const auto meta = graph::build_sharded_rmat(p);
  ASSERT_TRUE(meta) << meta.status().to_string();

  // Realistic GNN feature width: the dense node-feature matrix is what an
  // in-core run materializes and what sampling avoids, so the ratio below is
  // only meaningful when features carry their production weight (ogbn-papers
  // uses 128, many pipelines 256+).  Structure (CSR + normalized operator) is
  // a minority of the full footprint at this width, just like at scale 22.
  graph::OocFeatureSpec spec{};
  spec.dim = 256;
  core::SampledGcnConfig cfg;
  cfg.num_ranks = 2;
  cfg.epochs = 1;
  cfg.batch_size = 64;
  cfg.fanouts = {4, 4};
  cfg.max_steps_per_epoch = 4;
  cfg.max_resident_shards = 2;
  cfg.hidden = 16;

  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  // Drop blocks cached by earlier tests in this process: the peak gauge is
  // process-wide, and an inherited cache floor would charge this run for
  // memory it never touched.
  mem::flush_all_pools();
  const auto run = core::try_train_sampled_gcn(*meta, spec, cluster, cfg);
  ASSERT_TRUE(run) << run.status().to_string();

  const auto full = graph::full_materialization_bytes(*meta, spec);
  ASSERT_GT(full, 0u);
  EXPECT_GT(run->peak_resident_bytes, 0u);
  // The acceptance ceiling: out-of-core training never holds more than 40%
  // of what an in-core run would keep resident.
  EXPECT_LT(run->peak_resident_bytes,
            static_cast<std::uint64_t>(0.4 * static_cast<double>(full)))
      << "peak " << run->peak_resident_bytes << " vs full " << full;
  EXPECT_GT(run->shard_evictions, 0u);  // the LRU bound actually bound
}

TEST(SampledGcn, RestartResumesBitIdentically) {
  const auto meta = small_graph("restart");
  const graph::OocFeatureSpec spec{};

  auto cfg = small_config();
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_every = 2;

  auto run = [&](const core::SampledGcnConfig& c) {
    gpu::DeviceManager dm(2, gpu::spec::test_tiny());
    dflow::Cluster cluster(dm);
    return core::try_train_sampled_gcn(meta, spec, cluster, c);
  };

  // Uninterrupted two-epoch reference through the checkpointed path.
  auto cfg_ref = cfg;
  cfg_ref.fault.checkpoint_dir = scratch_dir("restart_ref");
  const auto ref = run(cfg_ref);
  ASSERT_TRUE(ref) << ref.status().to_string();
  ASSERT_EQ(ref->step_losses.size(), 8u);

  // "Process restart": one epoch now, the second from the same directory.
  auto cfg_half = cfg;
  cfg_half.fault.checkpoint_dir = scratch_dir("restart_resume");
  cfg_half.epochs = 1;
  const auto half = run(cfg_half);
  ASSERT_TRUE(half) << half.status().to_string();
  ASSERT_EQ(half->step_losses.size(), 4u);

  auto cfg_resume = cfg;
  cfg_resume.fault.checkpoint_dir = cfg_half.fault.checkpoint_dir;
  const auto resumed = run(cfg_resume);
  ASSERT_TRUE(resumed) << resumed.status().to_string();
  EXPECT_GE(resumed->checkpoints_restored, 1u);
  ASSERT_EQ(resumed->step_losses, ref->step_losses);  // bit-identical
  EXPECT_EQ(resumed->eval_loss, ref->eval_loss);
}

TEST(SampledGcn, PreemptedRunMatchesFaultFree) {
  const auto meta = small_graph("preempt");
  const graph::OocFeatureSpec spec{};
  const auto cfg = small_config();

  gpu::DeviceManager dm_clean(2, gpu::spec::test_tiny());
  dflow::Cluster clean(dm_clean);
  const auto ref = core::try_train_sampled_gcn(meta, spec, clean, cfg);
  ASSERT_TRUE(ref) << ref.status().to_string();

  gpu::DeviceManager dm_fault(2, gpu::spec::test_tiny());
  dflow::ClusterOptions opts;
  rt::FaultConfig faults;
  faults.seed = 2026;
  faults.preempt_probability = 0.3;
  faults.name_filter = "sampled_gcn_step";
  opts.faults = faults;
  dflow::Cluster faulty(dm_fault, opts);

  auto cfg_ft = cfg;
  cfg_ft.fault.enabled = true;
  cfg_ft.fault.checkpoint_dir = scratch_dir("preempt_ckpt");
  cfg_ft.fault.checkpoint_every = 2;
  cfg_ft.fault.max_chunk_attempts = 64;
  const auto run = core::try_train_sampled_gcn(meta, spec, faulty, cfg_ft);
  ASSERT_TRUE(run) << run.status().to_string();

  EXPECT_GE(run->chunk_restarts, 1u);
  EXPECT_GE(run->checkpoints_restored, 1u);
  EXPECT_GT(run->checkpoints_written, 0u);
  ASSERT_EQ(run->step_losses, ref->step_losses);  // bit-identical recovery
  EXPECT_EQ(run->eval_loss, ref->eval_loss);
  EXPECT_GT(faulty.fault_injector()->preemptions(), 0u);
}

TEST(SampledGcn, RemapsOntoSpareRankBitIdentically) {
  const auto meta = small_graph("remap");
  const graph::OocFeatureSpec spec{};
  const auto cfg = small_config();

  gpu::DeviceManager dm_clean(2, gpu::spec::test_tiny());
  dflow::Cluster clean(dm_clean);
  const auto ref = core::try_train_sampled_gcn(meta, spec, clean, cfg);
  ASSERT_TRUE(ref) << ref.status().to_string();

  gpu::DeviceManager dm(3, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);
  cluster.preempt_rank(1);  // rank 2 is a live spare

  auto cfg_ft = cfg;
  cfg_ft.fault.enabled = true;
  cfg_ft.fault.checkpoint_dir = scratch_dir("remap_ckpt");
  cfg_ft.fault.checkpoint_every = 2;
  const auto run = core::try_train_sampled_gcn(meta, spec, cluster, cfg_ft);
  ASSERT_TRUE(run) << run.status().to_string();
  EXPECT_EQ(run->final_world, 2);
  EXPECT_GE(run->chunk_restarts, 1u);
  // Node ranges are storage-free, so the remap moves parameters only and
  // the trajectory stays bit-identical to the never-preempted run.
  ASSERT_EQ(run->step_losses, ref->step_losses);
}

TEST(SampledGcn, ValidatesConfig) {
  const auto meta = small_graph("validate_cfg");
  const graph::OocFeatureSpec spec{};
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dflow::Cluster cluster(dm);

  auto cfg = small_config();
  cfg.num_ranks = 0;
  EXPECT_THROW(core::try_train_sampled_gcn(meta, spec, cluster, cfg),
               std::invalid_argument);
  cfg.num_ranks = 3;  // more ranks than cluster lanes
  EXPECT_THROW(core::try_train_sampled_gcn(meta, spec, cluster, cfg),
               std::invalid_argument);
  cfg = small_config();
  cfg.grad_accum_steps = 0;
  EXPECT_THROW(core::try_train_sampled_gcn(meta, spec, cluster, cfg),
               std::invalid_argument);
  cfg = small_config();
  cfg.batch_size = 4096;  // exceeds the smallest rank range
  EXPECT_THROW(core::try_train_sampled_gcn(meta, spec, cluster, cfg),
               std::invalid_argument);
  cfg = small_config();
  cfg.fault.enabled = true;  // no checkpoint_dir
  EXPECT_THROW(core::try_train_sampled_gcn(meta, spec, cluster, cfg),
               std::invalid_argument);
}

// --- degree-balanced ranges --------------------------------------------------

TEST(DegreeBalancedRanges, CoversAllNodesWithBalancedLoad) {
  const auto meta = small_graph("ranges");
  auto store = graph::ShardStore::open(meta, 2);
  ASSERT_TRUE(store);

  const auto ranges = graph::degree_balanced_ranges(store->degrees(), 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, meta.num_nodes);
  std::uint64_t total = 0;
  std::vector<std::uint64_t> loads;
  for (const auto& [begin, end] : ranges) {
    ASSERT_LT(begin, end);  // non-empty, contiguous
    std::uint64_t load = 0;
    for (graph::NodeId u = begin; u < end; ++u)
      load += store->degree(u) + 1;
    loads.push_back(load);
    total += load;
  }
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
  // Greedy cuts on a skewed degree sequence: every part within 2x of fair.
  for (const std::uint64_t load : loads)
    EXPECT_LT(load, total / 2)
        << "pathologically unbalanced degree partition";
}
