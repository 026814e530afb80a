// Unit and property tests for the graph module: CSR, normalization,
// generators, partitioners (METIS-like vs baselines), subgraphs, spmm.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "gpusim/device_manager.hpp"
#include "graph/generators.hpp"
#include "graph/metis_like.hpp"
#include "graph/ooc.hpp"
#include "graph/partition.hpp"
#include "graph/spmm.hpp"

namespace graph = sagesim::graph;
namespace gpu = sagesim::gpu;
using sagesim::stats::Rng;
using graph::NodeId;

namespace {

graph::CsrGraph triangle_plus_tail() {
  // 0-1, 1-2, 2-0 triangle plus 2-3 tail.
  const std::vector<std::pair<NodeId, NodeId>> edges{
      {0, 1}, {1, 2}, {2, 0}, {2, 3}};
  return graph::CsrGraph::from_edges(4, edges);
}

}  // namespace

// --- CSR -----------------------------------------------------------------------

TEST(Csr, BuildsSymmetricAdjacency) {
  const auto g = triangle_plus_tail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_directed_edges(), 8u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Csr, NeighborsAreSorted) {
  const auto g = triangle_plus_tail();
  const auto n2 = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(n2.begin(), n2.end()));
}

TEST(Csr, DeduplicatesEdges) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 0}, {0, 1}};
  const auto g = graph::CsrGraph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Csr, RejectsBadEdges) {
  const std::vector<std::pair<NodeId, NodeId>> self{{0, 0}};
  EXPECT_THROW(graph::CsrGraph::from_edges(2, self), std::invalid_argument);
  const std::vector<std::pair<NodeId, NodeId>> oob{{0, 5}};
  EXPECT_THROW(graph::CsrGraph::from_edges(2, oob), std::invalid_argument);
}

TEST(Csr, EdgeListRoundTrips) {
  const auto g = triangle_plus_tail();
  const auto edges = g.edge_list();
  const auto g2 = graph::CsrGraph::from_edges(4, edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId u = 0; u < 4; ++u) EXPECT_EQ(g2.degree(u), g.degree(u));
}

// --- normalized adjacency --------------------------------------------------------

TEST(NormalizedAdjacency, RowStructureAndWeights) {
  const auto g = triangle_plus_tail();
  const auto a = graph::normalized_adjacency(g);
  EXPECT_EQ(a.num_nodes(), 4u);
  // nnz = directed edges + n self loops.
  EXPECT_EQ(a.nnz(), 8u + 4u);
  // Self-loop weight of node 3 (deg 1): 1/(1+1) = 0.5.
  bool found = false;
  for (std::size_t e = a.offsets[3]; e < a.offsets[4]; ++e) {
    if (a.columns[e] == 3) {
      EXPECT_NEAR(a.values[e], 0.5f, 1e-6f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(NormalizedAdjacency, ColumnsSortedWithinRows) {
  Rng rng(31);
  const auto g = graph::erdos_renyi(40, 0.15, rng);
  const auto a = graph::normalized_adjacency(g);
  for (std::size_t r = 0; r < a.num_nodes(); ++r)
    for (std::size_t e = a.offsets[r] + 1; e < a.offsets[r + 1]; ++e)
      ASSERT_LT(a.columns[e - 1], a.columns[e]);
}

TEST(NormalizedAdjacency, SymmetricWeights) {
  const auto g = triangle_plus_tail();
  const auto a = graph::normalized_adjacency(g);
  auto weight_of = [&](NodeId u, NodeId v) -> float {
    for (std::size_t e = a.offsets[u]; e < a.offsets[u + 1]; ++e)
      if (a.columns[e] == v) return a.values[e];
    return -1.0f;
  };
  EXPECT_NEAR(weight_of(0, 1), weight_of(1, 0), 1e-7f);
  EXPECT_NEAR(weight_of(2, 3), weight_of(3, 2), 1e-7f);
}

// --- generators -------------------------------------------------------------------

TEST(Generators, Grid2dHasLatticeStructure) {
  const auto g = graph::grid_2d(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3u + 2u * 4u);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior
}

TEST(Generators, ErdosRenyiDensityNearP) {
  Rng rng(32);
  const auto g = graph::erdos_renyi(200, 0.1, rng);
  const double pairs = 200.0 * 199.0 / 2.0;
  const double density = static_cast<double>(g.num_edges()) / pairs;
  EXPECT_NEAR(density, 0.1, 0.02);
}

TEST(Generators, PlantedPartitionCommunityStructure) {
  Rng rng(33);
  graph::PlantedPartitionParams p;
  p.num_nodes = 600;
  p.num_classes = 3;
  p.intra_edge_prob = 0.05;
  p.inter_edge_prob = 0.002;
  const auto ds = graph::planted_partition(p, rng);
  EXPECT_EQ(ds.graph.num_nodes(), 600u);
  EXPECT_EQ(ds.num_classes, 3);

  // Intra-community edges dominate.
  std::size_t intra = 0, inter = 0;
  for (const auto& [u, v] : ds.graph.edge_list())
    (ds.labels[u] == ds.labels[v] ? intra : inter)++;
  EXPECT_GT(intra, 5 * inter);

  // Balanced classes.
  std::array<int, 3> counts{};
  for (int l : ds.labels) ++counts[static_cast<std::size_t>(l)];
  EXPECT_EQ(counts[0], 200);

  // Features carry class signal: mean feature in own slice > off slice.
  const std::size_t slice = p.feature_dim / 3;
  double own = 0.0, other = 0.0;
  for (std::size_t i = 0; i < 600; ++i) {
    const auto c = static_cast<std::size_t>(ds.labels[i]);
    own += ds.features.at(i, c * slice);
    other += ds.features.at(i, ((c + 1) % 3) * slice);
  }
  EXPECT_GT(own / 600.0, other / 600.0 + 0.5);
}

TEST(Generators, PlantedPartitionSplitCoversAllNodes) {
  Rng rng(34);
  graph::PlantedPartitionParams p;
  p.num_nodes = 100;
  p.train_fraction = 0.7;
  const auto ds = graph::planted_partition(p, rng);
  EXPECT_EQ(ds.train_nodes.size(), 70u);
  EXPECT_EQ(ds.test_nodes.size(), 30u);
  std::set<NodeId> all(ds.train_nodes.begin(), ds.train_nodes.end());
  all.insert(ds.test_nodes.begin(), ds.test_nodes.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(Generators, PubmedLikeHasPublishedShape) {
  Rng rng(35);
  const auto ds = graph::pubmed_like(rng, 0.05);
  EXPECT_NEAR(static_cast<double>(ds.graph.num_nodes()), 19717.0 * 0.05, 2.0);
  EXPECT_EQ(ds.features.cols(), 500u);
  EXPECT_EQ(ds.num_classes, 3);
  const double mean_degree = 2.0 * static_cast<double>(ds.graph.num_edges()) /
                             static_cast<double>(ds.graph.num_nodes());
  EXPECT_NEAR(mean_degree, 4.5, 1.0);
}

TEST(Generators, RmatIsSkewed) {
  Rng rng(36);
  const auto g = graph::rmat(10, 8, rng);  // 1024 nodes
  EXPECT_EQ(g.num_nodes(), 1024u);
  EXPECT_GT(g.num_edges(), 4000u);
  std::size_t max_deg = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    max_deg = std::max(max_deg, g.degree(u));
  const double mean_deg = 2.0 * static_cast<double>(g.num_edges()) / 1024.0;
  EXPECT_GT(static_cast<double>(max_deg), 5.0 * mean_deg);  // heavy tail
}

// --- partitioning -------------------------------------------------------------------

TEST(Partition, EvaluateCountsCutsAndBalance) {
  const auto g = graph::grid_2d(4, 4);
  graph::Partition p;
  p.num_parts = 2;
  p.assignment.assign(16, 0);
  for (NodeId v = 8; v < 16; ++v) p.assignment[v] = 1;  // bottom half
  const auto q = graph::evaluate_partition(g, p);
  EXPECT_EQ(q.edge_cut, 4u);  // the 4 vertical edges between rows 1 and 2
  EXPECT_DOUBLE_EQ(q.balance, 1.0);
}

TEST(Partition, RandomIsBalanced) {
  Rng rng(37);
  const auto g = graph::grid_2d(10, 10);
  const auto p = graph::random_partition(g, 4, rng);
  const auto q = graph::evaluate_partition(g, p);
  EXPECT_EQ(q.largest_part, 25u);
  EXPECT_EQ(q.smallest_part, 25u);
}

TEST(Partition, BlockPartitionIsContiguous) {
  const auto g = graph::grid_2d(4, 4);
  const auto p = graph::block_partition(g, 4);
  EXPECT_EQ(p.assignment[0], 0);
  EXPECT_EQ(p.assignment[15], 3);
  for (std::size_t v = 1; v < 16; ++v)
    EXPECT_GE(p.assignment[v], p.assignment[v - 1]);
}

TEST(MetisLike, PartitionIsValidAndBalanced) {
  Rng rng(38);
  const auto g = graph::erdos_renyi(300, 0.03, rng);
  const auto p = graph::metis_like(g, 4, {.seed = 7});
  EXPECT_EQ(p.num_parts, 4);
  EXPECT_EQ(p.assignment.size(), 300u);
  const auto q = graph::evaluate_partition(g, p);
  EXPECT_LT(q.balance, 1.35);
  EXPECT_GT(q.smallest_part, 35u);
}

TEST(MetisLike, BeatsRandomOnStructuredGraphs) {
  Rng rng(39);
  const auto g = graph::grid_2d(24, 24);
  const auto metis = graph::metis_like(g, 4, {.seed = 11});
  const auto random = graph::random_partition(g, 4, rng);
  const auto qm = graph::evaluate_partition(g, metis);
  const auto qr = graph::evaluate_partition(g, random);
  // On a grid, multilevel partitioning should cut several times fewer edges.
  EXPECT_LT(qm.edge_cut * 3, qr.edge_cut);
}

TEST(MetisLike, BeatsRandomOnCommunityGraphs) {
  Rng rng(40);
  graph::PlantedPartitionParams params;
  params.num_nodes = 400;
  params.num_classes = 4;
  params.intra_edge_prob = 0.06;
  params.inter_edge_prob = 0.002;
  const auto ds = graph::planted_partition(params, rng);
  const auto metis = graph::metis_like(ds.graph, 4, {.seed = 3});
  const auto random = graph::random_partition(ds.graph, 4, rng);
  EXPECT_LT(graph::evaluate_partition(ds.graph, metis).edge_cut * 2,
            graph::evaluate_partition(ds.graph, random).edge_cut);
}

TEST(MetisLike, RefinementImprovesCut) {
  Rng rng(41);
  const auto g = graph::grid_2d(20, 20);
  const auto with = graph::metis_like(g, 4, {.seed = 5, .refine = true});
  const auto without = graph::metis_like(g, 4, {.seed = 5, .refine = false});
  EXPECT_LE(graph::evaluate_partition(g, with).edge_cut,
            graph::evaluate_partition(g, without).edge_cut);
}

TEST(MetisLike, HandlesEdgeCases) {
  const auto g = graph::grid_2d(3, 3);
  const auto p1 = graph::metis_like(g, 1);
  EXPECT_EQ(graph::evaluate_partition(g, p1).edge_cut, 0u);
  EXPECT_THROW(graph::metis_like(g, 0), std::invalid_argument);
  EXPECT_THROW(graph::metis_like(g, 10), std::invalid_argument);
  // k == n degenerates to singletons.
  const auto pn = graph::metis_like(g, 9);
  EXPECT_EQ(pn.num_parts, 9);
}

class MetisKSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetisKSweep, CutGrowsSublinearlyWithK) {
  const int k = GetParam();
  const auto g = graph::grid_2d(16, 16);
  const auto p = graph::metis_like(g, k, {.seed = 2});
  const auto q = graph::evaluate_partition(g, p);
  // A 16x16 grid has 480 edges; a decent k-way cut stays well below half.
  EXPECT_LT(q.cut_fraction, 0.45);
  EXPECT_LT(q.balance, 1.6);
}

INSTANTIATE_TEST_SUITE_P(Ks, MetisKSweep, ::testing::Values(2, 3, 4, 6, 8));

// --- subgraphs ---------------------------------------------------------------------

TEST(Subgraph, InducedKeepsInternalEdgesOnly) {
  const auto g = triangle_plus_tail();
  const std::vector<NodeId> nodes{0, 1, 2};
  const auto sub = graph::induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);      // the triangle
  EXPECT_EQ(sub.cut_edges_dropped, 1u);      // edge 2-3
  EXPECT_EQ(sub.global_ids.size(), 3u);
}

TEST(Subgraph, LocalIdsMapBack) {
  const auto g = triangle_plus_tail();
  const std::vector<NodeId> nodes{1, 3};
  const auto sub = graph::induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
  ASSERT_EQ(sub.global_ids.size(), 2u);
  EXPECT_EQ(sub.global_ids[0], 1u);
  EXPECT_EQ(sub.global_ids[1], 3u);
}

TEST(Subgraph, PartitionSubgraphsCoverGraph) {
  Rng rng(42);
  const auto g = graph::erdos_renyi(120, 0.05, rng);
  const auto p = graph::metis_like(g, 3, {.seed = 1});
  std::size_t total_nodes = 0, internal_edges = 0, dropped = 0;
  for (const auto& nodes : p.part_nodes()) {
    const auto sub = graph::induced_subgraph(g, nodes);
    total_nodes += sub.graph.num_nodes();
    internal_edges += sub.graph.num_edges();
    dropped += sub.cut_edges_dropped;
  }
  EXPECT_EQ(total_nodes, g.num_nodes());
  // Every undirected edge is internal to exactly one part or crosses the
  // cut, so internal + edge_cut == total edges; dropped is a per-part view
  // of the same cut set.
  const auto q = graph::evaluate_partition(g, p);
  EXPECT_EQ(internal_edges + q.edge_cut, g.num_edges());
  EXPECT_GE(dropped, q.edge_cut);
}

// --- spmm --------------------------------------------------------------------------

TEST(Spmm, MatchesDenseReference) {
  const auto g = triangle_plus_tail();
  const auto a = graph::normalized_adjacency(g);
  sagesim::tensor::Tensor x(4, 3);
  Rng rng(43);
  x.init_uniform(rng, -1, 1);
  sagesim::tensor::Tensor y(4, 3);
  graph::spmm(nullptr, a, x, y);

  // Dense reference.
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      float expected = 0.0f;
      for (std::size_t e = a.offsets[r]; e < a.offsets[r + 1]; ++e)
        expected += a.values[e] * x.at(a.columns[e], c);
      ASSERT_NEAR(y.at(r, c), expected, 1e-6f);
    }
  }
}

TEST(Spmm, DeviceMatchesHost) {
  Rng rng(44);
  const auto g = graph::erdos_renyi(80, 0.08, rng);
  const auto a = graph::normalized_adjacency(g);
  sagesim::tensor::Tensor x(80, 16);
  x.init_uniform(rng, -1, 1);
  sagesim::tensor::Tensor y_host(80, 16), y_dev(80, 16);
  graph::spmm(nullptr, a, x, y_host);
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  graph::spmm(&dm.device(0), a, x, y_dev);
  for (std::size_t i = 0; i < y_host.size(); ++i)
    ASSERT_NEAR(y_host[i], y_dev[i], 1e-6f);
}

TEST(Spmm, ValidatesShapes) {
  const auto g = triangle_plus_tail();
  const auto a = graph::normalized_adjacency(g);
  sagesim::tensor::Tensor wrong(3, 2), y(3, 2);
  EXPECT_THROW(graph::spmm(nullptr, a, wrong, y), std::invalid_argument);
}

// --- algorithms (BFS, components, IO) ---------------------------------------------

#include <sstream>

#include "graph/algorithms.hpp"

TEST(Algorithms, BfsDistancesOnGrid) {
  const auto g = graph::grid_2d(3, 3);
  const auto dist = graph::bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);   // right neighbor
  EXPECT_EQ(dist[4], 2u);   // center
  EXPECT_EQ(dist[8], 4u);   // opposite corner: manhattan distance
  EXPECT_THROW(graph::bfs_distances(g, 99), std::out_of_range);
}

TEST(Algorithms, BfsMarksUnreachable) {
  // Two disjoint edges: 0-1, 2-3.
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> edges{{0, 1},
                                                                   {2, 3}};
  const auto g = graph::CsrGraph::from_edges(4, edges);
  const auto dist = graph::bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], graph::kUnreachable);
}

TEST(Algorithms, ConnectedComponentsCountsAndSizes) {
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> edges{
      {0, 1}, {1, 2}, {3, 4}};
  const auto g = graph::CsrGraph::from_edges(6, edges);  // node 5 isolated
  const auto c = graph::connected_components(g);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  std::size_t total = 0;
  for (std::size_t s : c.sizes) total += s;
  EXPECT_EQ(total, 6u);
}

TEST(Algorithms, PlantedPartitionIsMostlyOneComponent) {
  Rng rng(50);
  graph::PlantedPartitionParams p;
  p.num_nodes = 300;
  p.intra_edge_prob = 0.05;
  p.inter_edge_prob = 0.01;
  const auto ds = graph::planted_partition(p, rng);
  const auto c = graph::connected_components(ds.graph);
  // The giant component holds nearly everything at this density.
  EXPECT_GE(*std::max_element(c.sizes.begin(), c.sizes.end()), 280u);
}

TEST(Algorithms, DegreeHistogramSumsToNodes) {
  const auto g = graph::grid_2d(4, 4);
  const auto h = graph::degree_histogram(g);
  std::size_t total = 0;
  for (std::size_t c : h) total += c;
  EXPECT_EQ(total, 16u);
  EXPECT_EQ(h[2], 4u);  // corners
  EXPECT_EQ(h[4], 4u);  // interior
}

TEST(Algorithms, EdgeListRoundTripsThroughStream) {
  Rng rng(51);
  const auto g = graph::erdos_renyi(50, 0.1, rng);
  std::stringstream ss;
  graph::write_edge_list(g, ss);
  const auto g2 = graph::read_edge_list(ss);
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    ASSERT_EQ(g2.degree(u), g.degree(u));
}

TEST(Algorithms, ReadEdgeListRejectsGarbage) {
  std::stringstream ss("not a number");
  EXPECT_THROW(graph::read_edge_list(ss), std::runtime_error);
}

TEST(Generators, RedditLikeHasPublishedShape) {
  Rng rng(60);
  const auto ds = graph::reddit_like(rng, 0.02);  // ~4659 nodes
  EXPECT_NEAR(static_cast<double>(ds.graph.num_nodes()), 232965.0 * 0.02, 3.0);
  EXPECT_EQ(ds.num_classes, 41);
  EXPECT_EQ(ds.features.cols(), 602u);
  const double mean_degree = 2.0 * static_cast<double>(ds.graph.num_edges()) /
                             static_cast<double>(ds.graph.num_nodes());
  EXPECT_GT(mean_degree, 60.0);   // dense, unlike pubmed-like
  EXPECT_LT(mean_degree, 130.0);
  EXPECT_THROW(graph::reddit_like(rng, 1e-5), std::invalid_argument);
}

TEST(Generators, RedditLikePartitionsWellWithMetis) {
  Rng rng(61);
  const auto ds = graph::reddit_like(rng, 0.01);
  const auto metis = graph::metis_like(ds.graph, 4, {.seed = 9});
  const auto random = graph::random_partition(ds.graph, 4, rng);
  EXPECT_LT(graph::evaluate_partition(ds.graph, metis).edge_cut,
            graph::evaluate_partition(ds.graph, random).edge_cut);
}

// --- blocked SpMM conformance -----------------------------------------------------
//
// The cache-blocked (and, on capable hosts, AVX2) SpMM keeps the per-row
// ascending-edge accumulation order of the reference loop, so results must
// be bit-identical — exact equality, no tolerance.

namespace {

class SpmmBlockedConformance : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(SpmmBlockedConformance, MatchesReferenceBitwise) {
  const auto d = static_cast<std::size_t>(GetParam());
  Rng rng(1000 + GetParam());
  const auto g = graph::erdos_renyi(150, 0.05, rng);
  const auto a = graph::normalized_adjacency(g);
  sagesim::tensor::Tensor x(a.num_nodes(), d);
  x.init_uniform(rng, -1, 1);
  sagesim::tensor::Tensor y_ref(a.num_nodes(), d), y_blk(a.num_nodes(), d);
  graph::detail::spmm_host_reference(a, x, y_ref);
  graph::detail::spmm_host_blocked(a, x, y_blk);
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    ASSERT_EQ(y_ref[i], y_blk[i]) << "d=" << d << " at " << i;
}

// Widths straddle every kernel-shape boundary: scalar tail only (1, 7),
// one/several 8-lane groups (8, 16), 32+tail (33), the full 64-wide path
// (64), and 64+32 (96).
INSTANTIATE_TEST_SUITE_P(Widths, SpmmBlockedConformance,
                         ::testing::Values(1, 7, 8, 16, 33, 64, 96));

TEST(SpmmBackendDispatch, PublicHostEntryMatchesReference) {
  Rng rng(321);
  const auto g = graph::rmat(8, 4, rng);
  const auto a = graph::normalized_adjacency(g);
  sagesim::tensor::Tensor x(a.num_nodes(), 24);
  x.init_uniform(rng, -1, 1);
  sagesim::tensor::Tensor y_ref(a.num_nodes(), 24), y(a.num_nodes(), 24);
  graph::detail::spmm_host_reference(a, x, y_ref);
  graph::spmm(nullptr, a, x, y);
  for (std::size_t i = 0; i < y_ref.size(); ++i)
    ASSERT_EQ(y_ref[i], y[i]) << "at " << i;
}

// --- 64-bit index audit (out-of-core scale regression) ----------------------
//
// The out-of-core layer quotes cumulative edge quantities that pass 2^32 at
// the scales ISSUE 8 targets.  These tests pin the arithmetic to 64 bits so a
// future "optimization" to 32-bit counters fails loudly instead of wrapping
// silently at scale 22+.

TEST(OocIndexWidth, EdgeQuantitiesAre64Bit) {
  static_assert(sizeof(graph::EdgeIdx) == 8,
                "EdgeIdx must be 64-bit: scale-24 RMAT crosses 2^31 edges");
  static_assert(
      std::is_same_v<decltype(graph::OocRmatParams{}.target_edges()),
                     graph::EdgeIdx>,
      "target_edges must not narrow");
  static_assert(std::is_same_v<decltype(graph::OocGraphMeta{}.full_csr_bytes()),
                               graph::EdgeIdx>,
                "full_csr_bytes must not narrow");

  // scale 24, edge factor 512: 2^24 * 2^9 = 2^33 target edges.  A 32-bit
  // product would report 0.
  graph::OocRmatParams p;
  p.scale = 24;
  p.edge_factor = 512;
  EXPECT_EQ(p.target_edges(), std::uint64_t{1} << 33);

  // A hypothetical realized graph with ~5e9 directed edges: the CSR byte
  // count (4 bytes per endpoint) crosses 2^34 and must survive intact.
  graph::OocGraphMeta meta;
  meta.num_nodes = std::size_t{1} << 24;
  meta.nodes_per_shard = std::size_t{1} << 16;
  meta.num_shards = 256;
  meta.num_directed_edges = 5'000'000'000ull;
  const graph::EdgeIdx bytes = meta.full_csr_bytes();
  EXPECT_EQ(bytes, ((std::uint64_t{1} << 24) + 1) * sizeof(std::size_t) +
                       5'000'000'000ull * sizeof(NodeId));
  EXPECT_GT(bytes, std::uint64_t{1} << 34);
}

TEST(OocIndexWidth, FullMaterializationBytesSurvivesLargeGraphs) {
  // scale 26 with 128-wide features: the feature matrix alone is 2^26 * 128
  // * 4 = 2^35 bytes.  Everything must accumulate in EdgeIdx.
  graph::OocGraphMeta meta;
  meta.num_nodes = std::size_t{1} << 26;
  meta.nodes_per_shard = std::size_t{1} << 16;
  meta.num_shards = 1u << 10;
  meta.num_directed_edges = 2'147'500'000ull;  // just past 2^31
  graph::OocFeatureSpec spec;
  spec.dim = 128;
  const graph::EdgeIdx full = graph::full_materialization_bytes(meta, spec);
  EXPECT_GT(full, std::uint64_t{1} << 35);  // features dominate
  // And the norm-operator term ((m + n) pairs) kept its 64-bit width too:
  // removing either term's cast drops > 2^31 of the total.
  const graph::EdgeIdx features =
      static_cast<graph::EdgeIdx>(meta.num_nodes) * spec.dim * sizeof(float);
  EXPECT_GT(full - features, std::uint64_t{1} << 34);
}

TEST(OocIndexWidth, CsrOffsetsAreSizeT) {
  // CsrGraph's offsets array is the in-core structure the audit hardened:
  // its element type carries cumulative degree and must be 64-bit.
  const auto g = triangle_plus_tail();
  static_assert(
      std::is_same_v<std::remove_cvref_t<decltype(g.degree(0))>, std::size_t>,
      "degree sums must stay size_t");
  const auto a = graph::normalized_adjacency(g);
  static_assert(sizeof(a.offsets[0]) == 8,
                "normalized adjacency offsets must be 64-bit");
  EXPECT_EQ(a.offsets[a.num_nodes()], a.columns.size());
}
