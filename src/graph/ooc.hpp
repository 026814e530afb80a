// Out-of-core graphs: sharded RMAT generation, an LRU shard store, and
// deterministic on-the-fly features — the layer that lets Algorithm 1 train
// on million-node graphs whose edge list never fits in memory at once.
//
// The in-core generators (generators.hpp) materialize the full edge list and
// dedupe through a std::set; that caps out around scale 20.  Here the
// generator streams fixed-size edge blocks (each block seeded independently,
// so generation is deterministic and restartable), spills every directed
// edge to its owner shard's file, then builds one compact CSR shard at a
// time.  Peak memory during generation is one shard's edges, not the graph.
//
// At training time a ShardStore pages shards in on demand (LRU, bounded
// resident set, TypedBuffer-backed so the pool's resident gauge sees every
// byte), the neighbor sampler reads through it, and features/labels are
// hashed from node ids instead of stored — so a "4M nodes x 128 features"
// dataset occupies zero resident bytes until a mini-batch gathers its rows.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "mem/buffer.hpp"
#include "runtime/status.hpp"

namespace sagesim::tensor {
class Tensor;
}

namespace sagesim::graph {

/// 64-bit edge index/count.  RMAT at scale 22 with edge_factor 16+ crosses
/// 2^31 directed edges; every cumulative edge quantity in the out-of-core
/// layer uses this type (the 32-bit-offset audit in test_graph pins it).
using EdgeIdx = std::uint64_t;

/// splitmix64-style stateless mixer.  Chained — mix64(mix64(seed, a), b) —
/// it gives the out-of-core layer counter-based randomness: every feature
/// value, label and neighbor pick is a pure function of (seed, identifiers),
/// independent of thread count, evaluation order and restarts.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v);

/// Parameters for sharded RMAT generation (Graph500-style: `target_edges`
/// draws from the recursive quadrant distribution; self-loops are dropped
/// and duplicate directed edges collapse during the per-shard dedupe, so
/// the realized edge count is slightly below the target).
struct OocRmatParams {
  std::size_t scale{20};        ///< num_nodes = 2^scale; valid range [1, 28]
  std::size_t edge_factor{8};   ///< target undirected edges per node
  double a{0.57};               ///< RMAT quadrant probabilities (d = 1-a-b-c)
  double b{0.19};
  double c{0.19};
  std::uint64_t seed{42};
  /// Node-range width of one shard; shard i owns nodes
  /// [i*nodes_per_shard, (i+1)*nodes_per_shard).
  std::size_t nodes_per_shard{1u << 16};
  /// Edges drawn per independently-seeded generation block.  Blocks make
  /// generation deterministic without one long RNG stream.
  std::size_t block_edges{1u << 20};
  std::string dir;              ///< where shard/meta files are written

  std::size_t num_nodes() const { return std::size_t{1} << scale; }
  EdgeIdx target_edges() const {
    return static_cast<EdgeIdx>(num_nodes()) * edge_factor;
  }
};

/// On-disk layout descriptor, written to <dir>/meta.txt by the generator
/// and reloaded by load_ooc_meta.
struct OocGraphMeta {
  std::string dir;
  std::size_t num_nodes{0};
  std::size_t nodes_per_shard{0};
  std::size_t num_shards{0};
  EdgeIdx num_directed_edges{0};  ///< realized (post-dedupe), both directions
  std::uint64_t seed{0};

  std::size_t shard_of(NodeId u) const {
    return static_cast<std::size_t>(u) / nodes_per_shard;
  }

  /// Bytes a monolithic in-core CsrGraph of this graph would occupy
  /// (offsets + adjacency) — the denominator of "never materialize the
  /// full graph" assertions.
  EdgeIdx full_csr_bytes() const;
};

/// Streams RMAT edges into per-shard spill files, then builds one CSR shard
/// file at a time plus a resident degree index.  Never holds more than one
/// shard's edge list in memory.  Overwrites any previous graph in dir.
Expected<OocGraphMeta> build_sharded_rmat(const OocRmatParams& params);

/// Reloads the metadata of a previously generated graph.
Expected<OocGraphMeta> load_ooc_meta(const std::string& dir);

/// One resident shard: a local CSR over the contiguous node range
/// [first_node, first_node + num_nodes).  Offsets are local (start at 0)
/// but 64-bit — a single hub shard of a scale-24/ef-16 graph can exceed
/// 2^31 edge endpoints on its own.
struct GraphShard {
  std::size_t index{0};
  NodeId first_node{0};
  std::size_t num_nodes{0};
  mem::TypedBuffer<EdgeIdx> offsets;   ///< size num_nodes + 1
  mem::TypedBuffer<NodeId> adjacency;  ///< sorted neighbors, concatenated

  std::size_t resident_bytes() const {
    return offsets.size() * sizeof(EdgeIdx) +
           adjacency.size() * sizeof(NodeId);
  }

  /// Neighbors of global node @p u (must be owned by this shard), ascending.
  std::span<const NodeId> neighbors(NodeId u) const {
    const std::size_t i = static_cast<std::size_t>(u - first_node);
    return {adjacency.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
};

struct ShardStoreStats {
  std::uint64_t loads{0};           ///< shard files read from disk
  std::uint64_t hits{0};            ///< acquires served from the cache
  std::uint64_t evictions{0};       ///< shards dropped by the LRU policy
  std::uint64_t bytes_loaded{0};    ///< cumulative bytes read
  std::uint64_t resident_bytes{0};  ///< shards currently cached
  std::uint64_t resident_peak_bytes{0};
};

/// Demand-paged access to the shards of one on-disk graph.  Thread-safe:
/// concurrent samplers acquire() shards while the LRU evicts others —
/// acquire returns a shared_ptr pin, so an evicted shard stays valid for
/// readers that still hold it and its memory returns to the pool when the
/// last pin drops.  Loads and evictions are counted in stats().
class ShardStore {
 public:
  /// Opens @p meta's directory and loads the degree index (4 bytes/node,
  /// the only always-resident per-node state).  @p max_resident_shards
  /// bounds the cache (>= 1).
  static Expected<ShardStore> open(const OocGraphMeta& meta,
                                   std::size_t max_resident_shards);

  ShardStore(ShardStore&&) = default;
  ShardStore& operator=(ShardStore&&) = default;

  const OocGraphMeta& meta() const { return meta_; }

  std::uint32_t degree(NodeId u) const { return degrees_[u]; }
  std::span<const std::uint32_t> degrees() const { return degrees_.span(); }

  /// The shard, loading it from disk on a cache miss (and evicting the
  /// least-recently-used shard beyond the resident bound).
  Expected<std::shared_ptr<const GraphShard>> acquire(std::size_t shard);

  ShardStoreStats stats() const;

 private:
  ShardStore() = default;

  struct Cached {
    std::shared_ptr<const GraphShard> shard;
    std::uint64_t tick{0};
  };

  OocGraphMeta meta_;
  std::size_t max_resident_{1};
  mem::TypedBuffer<std::uint32_t> degrees_;

  std::unique_ptr<std::mutex> mutex_{std::make_unique<std::mutex>()};
  std::unordered_map<std::size_t, Cached> cache_;
  std::uint64_t tick_{0};
  ShardStoreStats stats_;
};

/// Deterministic synthetic supervision for out-of-core graphs: the label is
/// a hash of the node id, features are hashed uniform noise plus `signal`
/// added over the label's slice of the feature vector — learnable by a
/// linear layer, bit-identical regardless of gather order, and occupying
/// zero bytes until a mini-batch materializes its rows.
struct OocFeatureSpec {
  std::size_t dim{64};
  int num_classes{16};
  float signal{1.0f};   ///< added over the label's feature slice
  float noise{0.5f};    ///< amplitude of the uniform background
  std::uint64_t seed{0x5eedf00d};
};

int ooc_label(const OocFeatureSpec& spec, NodeId u);

/// Fills @p out (host tensor, nodes.size() x spec.dim) with the feature rows
/// of @p nodes, in order.
void ooc_fill_features(const OocFeatureSpec& spec,
                       std::span<const NodeId> nodes, tensor::Tensor& out);

/// Bytes an in-core run of this graph + feature set would keep resident:
/// full CSR, normalized adjacency (values + self-loops), feature matrix and
/// labels.  The out-of-core memory-ceiling tests assert the pool peak stays
/// far below this.
EdgeIdx full_materialization_bytes(const OocGraphMeta& meta,
                                   const OocFeatureSpec& spec);

/// Streaming edge-balanced partitioner: splits [0, num_nodes) into
/// @p parts contiguous ranges of roughly equal total degree using only the
/// resident degree index — the fallback when METIS-style partitioning
/// (which walks the full edge list) no longer fits.  One O(n) pass, no
/// edge I/O.  Every range is non-empty; requires parts <= num_nodes.
std::vector<std::pair<NodeId, NodeId>> degree_balanced_ranges(
    std::span<const std::uint32_t> degrees, int parts);

/// Feistel-style bijective permutation of [0, n): returns the position of
/// @p i under the keyed shuffle.  O(1) memory — epoch-level seed shuffles
/// over millions of nodes never materialize a permutation array.
std::uint64_t permuted_index(std::uint64_t i, std::uint64_t n,
                             std::uint64_t key);

}  // namespace sagesim::graph
