#include "graph/ooc.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stats/rng.hpp"
#include "tensor/tensor.hpp"

namespace fs = std::filesystem;

namespace sagesim::graph {

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t permuted_index(std::uint64_t i, std::uint64_t n,
                             std::uint64_t key) {
  if (n <= 1) return 0;
  // Feistel over the next even bit width >= log2(n), cycle-walking values
  // that land outside [0, n) back through the cipher.  The walk terminates:
  // the cipher is a bijection on a domain at most 4n wide.
  int bits = 64 - std::countl_zero(n - 1);
  if (bits < 2) bits = 2;
  if (bits & 1) ++bits;
  const int half = bits / 2;
  const std::uint64_t mask = (std::uint64_t{1} << half) - 1;
  std::uint64_t x = i;
  do {
    std::uint64_t l = x >> half;
    std::uint64_t r = x & mask;
    for (std::uint64_t round = 0; round < 4; ++round) {
      const std::uint64_t f = mix64(key, (r << 3) | round) & mask;
      const std::uint64_t nl = r;
      r = l ^ f;
      l = nl;
    }
    x = (l << half) | r;
  } while (x >= n);
  return x;
}

namespace {

constexpr std::uint64_t kShardMagic = 0x3153475348415244ULL;  // "DRAHSGS1"
constexpr std::size_t kSpillBufEdges = 64 * 1024;

using Edge = std::pair<NodeId, NodeId>;
static_assert(sizeof(Edge) == 2 * sizeof(NodeId),
              "spill format assumes packed NodeId pairs");

struct ShardHeader {
  std::uint64_t magic{0};
  std::uint64_t index{0};
  std::uint64_t first_node{0};
  std::uint64_t num_nodes{0};
  std::uint64_t num_edges{0};
};

std::string shard_path(const std::string& dir, std::size_t shard) {
  return (fs::path(dir) / ("shard_" + std::to_string(shard) + ".bin"))
      .string();
}

std::string spill_path(const std::string& dir, std::size_t shard) {
  return (fs::path(dir) / ("spill_" + std::to_string(shard) + ".bin"))
      .string();
}

std::string degrees_path(const std::string& dir) {
  return (fs::path(dir) / "degrees.bin").string();
}

std::string meta_path(const std::string& dir) {
  return (fs::path(dir) / "meta.txt").string();
}

Status write_bytes(std::ofstream& out, const void* data, std::size_t bytes,
                   const std::string& what) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) return Status::data_loss("ooc: short write to " + what);
  return {};
}

Status read_bytes(std::ifstream& in, void* data, std::size_t bytes,
                  const std::string& what) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes))
    return Status::data_loss("ooc: short read from " + what);
  return {};
}

/// Buffered append-only writer for one shard's spill file.
struct SpillWriter {
  std::ofstream out;
  std::vector<Edge> buf;

  Status flush(const std::string& what) {
    if (buf.empty()) return {};
    const Status s = write_bytes(out, buf.data(), buf.size() * sizeof(Edge),
                                 what);
    buf.clear();
    return s;
  }
};

}  // namespace

EdgeIdx OocGraphMeta::full_csr_bytes() const {
  return static_cast<EdgeIdx>(num_nodes + 1) * sizeof(std::size_t) +
         num_directed_edges * sizeof(NodeId);
}

Expected<OocGraphMeta> build_sharded_rmat(const OocRmatParams& params) {
  if (params.scale == 0 || params.scale > 28)
    throw std::invalid_argument("build_sharded_rmat: scale must be in [1, 28]");
  if (params.edge_factor == 0)
    throw std::invalid_argument("build_sharded_rmat: edge_factor must be >= 1");
  const double d = 1.0 - params.a - params.b - params.c;
  if (params.a < 0.0 || params.b < 0.0 || params.c < 0.0 || d < 0.0)
    throw std::invalid_argument(
        "build_sharded_rmat: quadrant probabilities must be >= 0 and sum <= 1");
  if (params.nodes_per_shard == 0 || params.block_edges == 0)
    throw std::invalid_argument(
        "build_sharded_rmat: nodes_per_shard and block_edges must be >= 1");
  if (params.dir.empty())
    throw std::invalid_argument("build_sharded_rmat: dir must be set");

  std::error_code ec;
  fs::create_directories(params.dir, ec);
  if (ec)
    return Status::unavailable("build_sharded_rmat: cannot create " +
                               params.dir + ": " + ec.message());

  const std::size_t n = params.num_nodes();
  const std::size_t nps = params.nodes_per_shard;
  const std::size_t num_shards = (n + nps - 1) / nps;

  OocGraphMeta meta;
  meta.dir = params.dir;
  meta.num_nodes = n;
  meta.nodes_per_shard = nps;
  meta.num_shards = num_shards;
  meta.seed = params.seed;

  // --- Phase 1: stream edge blocks into per-shard spill files. -------------
  // Each block of draws is seeded by mix64(seed, block), so the edge stream
  // is a pure function of (seed, block index) — deterministic, and a future
  // parallel or resumed generator produces identical spills.  Every drawn
  // edge (u, v) lands twice: as (u, v) in u's shard and (v, u) in v's, which
  // makes the per-shard sort/dedupe below see both copies of any duplicate.
  {
    std::vector<SpillWriter> spill(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      spill[s].out.open(spill_path(params.dir, s),
                        std::ios::binary | std::ios::trunc);
      if (!spill[s].out)
        return Status::unavailable("build_sharded_rmat: cannot open " +
                                   spill_path(params.dir, s));
      spill[s].buf.reserve(kSpillBufEdges);
    }
    auto append = [&](std::size_t s, Edge e) -> Status {
      spill[s].buf.push_back(e);
      if (spill[s].buf.size() >= kSpillBufEdges)
        return spill[s].flush(spill_path(params.dir, s));
      return {};
    };

    const EdgeIdx target = params.target_edges();
    const double ab = params.a + params.b;
    const double abc = ab + params.c;
    for (EdgeIdx base = 0, block = 0; base < target;
         base += params.block_edges, ++block) {
      stats::Rng rng(mix64(params.seed, block));
      const EdgeIdx count =
          std::min<EdgeIdx>(params.block_edges, target - base);
      for (EdgeIdx e = 0; e < count; ++e) {
        NodeId u = 0, v = 0;
        for (std::size_t bit = 0; bit < params.scale; ++bit) {
          const double r = rng.uniform();
          u <<= 1;
          v <<= 1;
          if (r < params.a) {
            // upper-left: no bits set
          } else if (r < ab) {
            v |= 1;
          } else if (r < abc) {
            u |= 1;
          } else {
            u |= 1;
            v |= 1;
          }
        }
        if (u == v) continue;  // self-loops are rejected, as in CsrGraph
        Status s = append(meta.shard_of(u), {u, v});
        if (!s.ok()) return s;
        s = append(meta.shard_of(v), {v, u});
        if (!s.ok()) return s;
      }
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      const Status st = spill[s].flush(spill_path(params.dir, s));
      if (!st.ok()) return st;
      spill[s].out.close();
      if (spill[s].out.fail())
        return Status::data_loss("build_sharded_rmat: close failed for " +
                                 spill_path(params.dir, s));
    }
  }

  // --- Phase 2: one shard at a time, spill -> sorted/deduped local CSR. ----
  mem::TypedBuffer<std::uint32_t> degrees(n);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string sp = spill_path(params.dir, s);
    std::vector<Edge> edges;
    {
      std::error_code fec;
      const auto size = fs::file_size(sp, fec);
      if (fec)
        return Status::unavailable("build_sharded_rmat: stat failed for " + sp);
      if (size % sizeof(Edge) != 0)
        return Status::data_loss("build_sharded_rmat: torn spill file " + sp);
      edges.resize(static_cast<std::size_t>(size / sizeof(Edge)));
      std::ifstream in(sp, std::ios::binary);
      if (!in)
        return Status::unavailable("build_sharded_rmat: cannot reopen " + sp);
      if (!edges.empty()) {
        const Status st = read_bytes(in, edges.data(),
                                     edges.size() * sizeof(Edge), sp);
        if (!st.ok()) return st;
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    const NodeId first = static_cast<NodeId>(s * nps);
    const std::size_t shard_nodes = std::min(nps, n - s * nps);

    GraphShard shard;
    shard.index = s;
    shard.first_node = first;
    shard.num_nodes = shard_nodes;
    shard.offsets = mem::TypedBuffer<EdgeIdx>(shard_nodes + 1);
    shard.adjacency = mem::TypedBuffer<NodeId>(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::size_t local = edges[e].first - first;
      ++shard.offsets[local + 1];
      shard.adjacency[e] = edges[e].second;
    }
    for (std::size_t i = 0; i < shard_nodes; ++i) {
      degrees[first + i] = static_cast<std::uint32_t>(shard.offsets[i + 1]);
      shard.offsets[i + 1] += shard.offsets[i];
    }
    meta.num_directed_edges += edges.size();

    const std::string path = shard_path(params.dir, s);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::unavailable("build_sharded_rmat: cannot open " + path);
    ShardHeader hdr;
    hdr.magic = kShardMagic;
    hdr.index = s;
    hdr.first_node = first;
    hdr.num_nodes = shard_nodes;
    hdr.num_edges = edges.size();
    Status st = write_bytes(out, &hdr, sizeof(hdr), path);
    if (st.ok())
      st = write_bytes(out, shard.offsets.data(),
                       shard.offsets.size() * sizeof(EdgeIdx), path);
    if (st.ok() && !edges.empty())
      st = write_bytes(out, shard.adjacency.data(),
                       shard.adjacency.size() * sizeof(NodeId), path);
    if (!st.ok()) return st;
    out.close();
    if (out.fail())
      return Status::data_loss("build_sharded_rmat: close failed for " + path);
    fs::remove(sp, ec);  // spill served its purpose; ignore removal errors
  }

  // --- Phase 3: degree index + metadata. ------------------------------------
  {
    const std::string path = degrees_path(params.dir);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::unavailable("build_sharded_rmat: cannot open " + path);
    const Status st = write_bytes(out, degrees.data(),
                                  degrees.size() * sizeof(std::uint32_t), path);
    if (!st.ok()) return st;
  }
  {
    const std::string path = meta_path(params.dir);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
      return Status::unavailable("build_sharded_rmat: cannot open " + path);
    out << "num_nodes " << meta.num_nodes << '\n'
        << "nodes_per_shard " << meta.nodes_per_shard << '\n'
        << "num_shards " << meta.num_shards << '\n'
        << "num_directed_edges " << meta.num_directed_edges << '\n'
        << "seed " << meta.seed << '\n';
    if (!out) return Status::data_loss("build_sharded_rmat: meta write failed");
  }
  return meta;
}

Expected<OocGraphMeta> load_ooc_meta(const std::string& dir) {
  std::ifstream in(meta_path(dir));
  if (!in)
    return Status::unavailable("load_ooc_meta: no meta.txt under " + dir);
  OocGraphMeta meta;
  meta.dir = dir;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "num_nodes") meta.num_nodes = value;
    else if (key == "nodes_per_shard") meta.nodes_per_shard = value;
    else if (key == "num_shards") meta.num_shards = value;
    else if (key == "num_directed_edges") meta.num_directed_edges = value;
    else if (key == "seed") meta.seed = value;
  }
  if (meta.num_nodes == 0 || meta.nodes_per_shard == 0 ||
      meta.num_shards == 0)
    return Status::data_loss("load_ooc_meta: malformed meta.txt under " + dir);
  return meta;
}

Expected<ShardStore> ShardStore::open(const OocGraphMeta& meta,
                                      std::size_t max_resident_shards) {
  if (max_resident_shards == 0)
    throw std::invalid_argument("ShardStore: max_resident_shards must be >= 1");
  ShardStore store;
  store.meta_ = meta;
  store.max_resident_ = max_resident_shards;
  store.degrees_ = mem::TypedBuffer<std::uint32_t>(meta.num_nodes);
  const std::string path = degrees_path(meta.dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::unavailable("ShardStore: cannot open " + path);
  const Status st =
      read_bytes(in, store.degrees_.data(),
                 store.degrees_.size() * sizeof(std::uint32_t), path);
  if (!st.ok()) return st;
  return store;
}

Expected<std::shared_ptr<const GraphShard>> ShardStore::acquire(
    std::size_t shard) {
  if (shard >= meta_.num_shards)
    throw std::out_of_range("ShardStore::acquire: shard out of range");
  std::lock_guard lock(*mutex_);
  if (auto it = cache_.find(shard); it != cache_.end()) {
    ++stats_.hits;
    it->second.tick = ++tick_;
    return it->second.shard;
  }

  const std::string path = shard_path(meta_.dir, shard);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::unavailable("ShardStore: cannot open " + path);
  ShardHeader hdr;
  Status st = read_bytes(in, &hdr, sizeof(hdr), path);
  if (!st.ok()) return st;
  if (hdr.magic != kShardMagic || hdr.index != shard)
    return Status::data_loss("ShardStore: corrupt header in " + path);

  // The header sizes the allocations below, so it must match the node range
  // meta assigns this shard, and its edge count must fit in the file.
  const std::uint64_t first = std::uint64_t{shard} * meta_.nodes_per_shard;
  const std::uint64_t nodes =
      first < meta_.num_nodes
          ? std::min<std::uint64_t>(meta_.nodes_per_shard,
                                    meta_.num_nodes - first)
          : 0;
  const std::uint64_t offsets_end =
      sizeof(hdr) + (nodes + 1) * sizeof(EdgeIdx);
  std::error_code ec;
  const std::uint64_t file_bytes = fs::file_size(path, ec);
  // [[unlikely]]: without it GCC guesses the rest of this load path cold
  // and leaves the validation loops below unvectorized.
  if (ec || nodes == 0 || hdr.first_node != first || hdr.num_nodes != nodes ||
      file_bytes < offsets_end ||
      hdr.num_edges > (file_bytes - offsets_end) / sizeof(NodeId)) [[unlikely]]
    return Status::data_loss("ShardStore: header of " + path +
                             " disagrees with meta.txt or the file size");

  auto loaded = std::make_shared<GraphShard>();
  loaded->index = shard;
  loaded->first_node = static_cast<NodeId>(hdr.first_node);
  loaded->num_nodes = static_cast<std::size_t>(hdr.num_nodes);
  loaded->offsets = mem::TypedBuffer<EdgeIdx>(loaded->num_nodes + 1);
  st = read_bytes(in, loaded->offsets.data(),
                  loaded->offsets.size() * sizeof(EdgeIdx), path);
  if (!st.ok()) return st;
  loaded->adjacency =
      mem::TypedBuffer<NodeId>(static_cast<std::size_t>(hdr.num_edges));
  if (hdr.num_edges != 0) {
    st = read_bytes(in, loaded->adjacency.data(),
                    loaded->adjacency.size() * sizeof(NodeId), path);
    if (!st.ok()) return st;
  }

  // Samplers index adjacency by these offsets and degrees_ by these ids
  // unchecked, so a shard is admitted only as a well-formed CSR.  The ids
  // are folded with OR, several times faster than a max and exact when
  // num_nodes is a power of two, as every generated graph's is; a fold at
  // or above num_nodes is settled by the exact max.
  const EdgeIdx* offs = loaded->offsets.data();
  bool monotone = offs[0] == 0 && offs[loaded->num_nodes] == hdr.num_edges;
  for (std::size_t i = 0; i < loaded->num_nodes; ++i)
    monotone &= offs[i] <= offs[i + 1];
  const std::span<const NodeId> cols = loaded->adjacency.span();
  NodeId bits = 0;
  for (const NodeId v : cols) bits |= v;
  if (bits >= meta_.num_nodes && !cols.empty())
    bits = *std::max_element(cols.begin(), cols.end());
  if (!monotone || bits >= meta_.num_nodes)
    return Status::data_loss("ShardStore: offsets or column ids out of "
                             "range in " + path);

  ++stats_.loads;
  stats_.bytes_loaded += loaded->resident_bytes();
  stats_.resident_bytes += loaded->resident_bytes();
  stats_.resident_peak_bytes =
      std::max(stats_.resident_peak_bytes, stats_.resident_bytes);
  cache_.emplace(shard, Cached{loaded, ++tick_});

  // LRU eviction beyond the resident bound.  Dropping the cache reference
  // is enough: pinned readers keep the shard alive through their
  // shared_ptr, and the buffers return to the pool when the last pin dies.
  while (cache_.size() > max_resident_) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it)
      if (it->second.tick < victim->second.tick) victim = it;
    stats_.resident_bytes -= victim->second.shard->resident_bytes();
    cache_.erase(victim);
    ++stats_.evictions;
  }
  return std::shared_ptr<const GraphShard>(std::move(loaded));
}

ShardStoreStats ShardStore::stats() const {
  std::lock_guard lock(*mutex_);
  return stats_;
}

int ooc_label(const OocFeatureSpec& spec, NodeId u) {
  const int classes = std::max(1, spec.num_classes);
  return static_cast<int>(mix64(spec.seed ^ 0x1abe1ULL, u) %
                          static_cast<std::uint64_t>(classes));
}

void ooc_fill_features(const OocFeatureSpec& spec,
                       std::span<const NodeId> nodes, tensor::Tensor& out) {
  if (out.rows() != nodes.size() || out.cols() != spec.dim)
    throw std::invalid_argument("ooc_fill_features: shape mismatch");
  const std::size_t dim = spec.dim;
  const std::size_t width =
      std::max<std::size_t>(1, dim / static_cast<std::size_t>(
                                         std::max(1, spec.num_classes)));
  float* x = out.data();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId u = nodes[i];
    const std::uint64_t h0 = mix64(spec.seed, u);
    float* row = x + i * dim;
    for (std::size_t f = 0; f < dim; ++f) {
      // Top 53 bits -> uniform in [0, 1) -> symmetric noise in [-1, 1).
      const double uf =
          static_cast<double>(mix64(h0, f) >> 11) * 0x1.0p-53;
      row[f] = spec.noise * static_cast<float>(2.0 * uf - 1.0);
    }
    const std::size_t base =
        static_cast<std::size_t>(ooc_label(spec, u)) * width;
    for (std::size_t j = 0; j < width; ++j)
      row[(base + j) % dim] += spec.signal;
  }
}

EdgeIdx full_materialization_bytes(const OocGraphMeta& meta,
                                   const OocFeatureSpec& spec) {
  const EdgeIdx n = meta.num_nodes;
  const EdgeIdx m = meta.num_directed_edges;
  const EdgeIdx csr = meta.full_csr_bytes();
  // normalized_adjacency adds self-loops: nnz = m + n, with float weights.
  const EdgeIdx norm = (n + 1) * sizeof(std::size_t) +
                       (m + n) * (sizeof(NodeId) + sizeof(float));
  const EdgeIdx features = n * spec.dim * sizeof(float);
  const EdgeIdx labels = n * sizeof(int);
  return csr + norm + features + labels;
}

std::vector<std::pair<NodeId, NodeId>> degree_balanced_ranges(
    std::span<const std::uint32_t> degrees, int parts) {
  const std::size_t n = degrees.size();
  if (parts < 1 || static_cast<std::size_t>(parts) > n)
    throw std::invalid_argument(
        "degree_balanced_ranges: need 1 <= parts <= num_nodes");
  // One streaming pass: each edge contributes its endpoint degree, +1 per
  // node for the self-loop the normalized operator will add, so the split
  // tracks the work a GCN layer actually does per range.
  std::uint64_t total = n;
  for (const std::uint32_t d : degrees) total += d;

  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(static_cast<std::size_t>(parts));
  std::uint64_t cum = 0;
  std::size_t pos = 0;
  for (int p = 0; p < parts; ++p) {
    const std::size_t begin = pos;
    const std::size_t end_max = n - (static_cast<std::size_t>(parts - p) - 1);
    const std::uint64_t want =
        total * static_cast<std::uint64_t>(p + 1) / static_cast<std::uint64_t>(parts);
    while (pos < end_max && (pos == begin || cum < want)) {
      cum += degrees[pos] + 1;
      ++pos;
    }
    if (p == parts - 1)
      while (pos < n) {
        cum += degrees[pos] + 1;
        ++pos;
      }
    out.emplace_back(static_cast<NodeId>(begin), static_cast<NodeId>(pos));
  }
  return out;
}

}  // namespace sagesim::graph
