#include "nn/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "mem/buffer.hpp"

namespace sagesim::nn {

namespace {

constexpr char kMagic[8] = {'S', 'G', 'S', 'M', 'C', 'K', 'P', 'T'};
// v2 added a per-tensor placement byte + device ordinal.  Stored tensors
// are host copies and restores place replicas on their own ranks, so the
// fields are written as host and validated, then ignored, on load; v1
// files (without them) still load.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMinVersion = 1;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- payload writer/reader (host-endian; the simulator never ships files
// across architectures) -----------------------------------------------------

template <typename T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_str(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

struct Reader {
  const std::string& buf;
  std::size_t pos{0};
  bool failed{false};

  template <typename T>
  T get() {
    T v{};
    if (failed || pos + sizeof(T) > buf.size()) {
      failed = true;
      return v;
    }
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_str() {
    const auto n = get<std::uint32_t>();
    if (failed || pos + n > buf.size()) {
      failed = true;
      return {};
    }
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

std::string encode_payload(const Checkpoint& ckpt) {
  std::string p;
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.tensors.size()));
  for (const auto& [name, t] : ckpt.tensors) {
    put_str(p, name);
    put<std::uint64_t>(p, t.rows());
    put<std::uint64_t>(p, t.cols());
    put<std::uint8_t>(p, static_cast<std::uint8_t>(mem::Placement::kHost));
    put<std::int32_t>(p, -1);
    p.append(reinterpret_cast<const char*>(t.data()),
             t.size() * sizeof(float));
  }
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.blobs.size()));
  for (const auto& [name, blob] : ckpt.blobs) {
    put_str(p, name);
    put_str(p, blob);
  }
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.scalars.size()));
  for (const auto& [name, value] : ckpt.scalars) {
    put_str(p, name);
    put<double>(p, value);
  }
  return p;
}

bool decode_payload(const std::string& payload, std::uint32_t version,
                    Checkpoint& ckpt) {
  Reader r{payload};
  const auto n_tensors = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_tensors && !r.failed; ++i) {
    std::string name = r.get_str();
    const auto rows = r.get<std::uint64_t>();
    const auto cols = r.get<std::uint64_t>();
    if (version >= 2) {
      const auto placement = r.get<std::uint8_t>();
      r.get<std::int32_t>();  // device ordinal
      if (placement > static_cast<std::uint8_t>(mem::Placement::kManaged))
        r.failed = true;
    }
    if (r.failed) break;
    // Size nothing from rows x cols before the payload is known to hold it.
    const std::uint64_t floats_left = (payload.size() - r.pos) / sizeof(float);
    if (rows != 0 && cols > floats_left / rows) {
      r.failed = true;
      break;
    }
    tensor::Tensor t(static_cast<std::size_t>(rows),
                     static_cast<std::size_t>(cols));
    const std::size_t bytes = t.size() * sizeof(float);
    std::memcpy(t.data(), payload.data() + r.pos, bytes);
    r.pos += bytes;
    ckpt.tensors.emplace(std::move(name), std::move(t));
  }
  const auto n_blobs = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_blobs && !r.failed; ++i) {
    std::string name = r.get_str();
    std::string blob = r.get_str();
    if (!r.failed) ckpt.blobs.emplace(std::move(name), std::move(blob));
  }
  const auto n_scalars = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_scalars && !r.failed; ++i) {
    std::string name = r.get_str();
    const double value = r.get<double>();
    if (!r.failed) ckpt.scalars.emplace(std::move(name), value);
  }
  return !r.failed && r.pos == payload.size();
}

// A count read back from a scalar must be an integer a double holds
// exactly: anything else is malformed, never an out-of-range cast.
bool count_of(const Checkpoint& ckpt, const std::string& key,
              std::uint64_t& out) {
  const auto it = ckpt.scalars.find(key);
  if (it == ckpt.scalars.end() || !(it->second >= 0.0) ||
      it->second > 0x1p53 || it->second != std::floor(it->second))
    return false;
  out = static_cast<std::uint64_t>(it->second);
  return true;
}

}  // namespace

void Checkpoint::put(const std::string& name, const tensor::Tensor& t) {
  tensors[name] = t.host_copy();
}

Status save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const std::string payload = encode_payload(ckpt);
  std::string file;
  file.append(kMagic, sizeof(kMagic));
  put<std::uint32_t>(file, kVersion);
  put<std::uint64_t>(file, ckpt.epoch);
  put<std::uint64_t>(file, payload.size());
  put<std::uint64_t>(file, fnv1a64(payload));
  file.append(payload);

  const std::string tmp = path + ".tmp";
  {
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::internal("checkpoint: cannot open " + tmp);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out)
      return Status::internal("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::internal("checkpoint: rename to " + path + " failed");
  return {};
}

Expected<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::unavailable("checkpoint: no file at " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string file = ss.str();

  constexpr std::size_t kHeader =
      sizeof(kMagic) + sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t);
  if (file.size() < kHeader)
    return Status::data_loss("checkpoint: truncated header in " + path);
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::data_loss("checkpoint: bad magic in " + path);

  Reader r{file, sizeof(kMagic)};
  const auto version = r.get<std::uint32_t>();
  if (version < kMinVersion || version > kVersion)
    return Status::data_loss("checkpoint: unsupported version " +
                             std::to_string(version) + " in " + path);
  Checkpoint ckpt;
  ckpt.epoch = r.get<std::uint64_t>();
  const auto payload_bytes = r.get<std::uint64_t>();
  const auto checksum = r.get<std::uint64_t>();
  if (file.size() - kHeader != payload_bytes)
    return Status::data_loss("checkpoint: truncated payload in " + path);
  const std::string payload = file.substr(kHeader);
  if (fnv1a64(payload) != checksum)
    return Status::data_loss("checkpoint: checksum mismatch in " + path);
  if (!decode_payload(payload, version, ckpt))
    return Status::data_loss("checkpoint: malformed payload in " + path);
  return ckpt;
}

std::string checkpoint_path(const std::string& dir, const std::string& prefix,
                            std::uint64_t epoch) {
  return dir + "/" + prefix + "_epoch" + std::to_string(epoch) + ".ckpt";
}

Expected<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                            const std::string& prefix) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  const std::string stem_prefix = prefix + "_epoch";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem_prefix, 0) != 0) continue;
    if (entry.path().extension() != ".ckpt") continue;
    const std::string digits =
        entry.path().stem().string().substr(stem_prefix.size());
    char* end = nullptr;
    const std::uint64_t epoch = std::strtoull(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0') continue;
    candidates.emplace_back(epoch, entry.path().string());
  }
  if (ec)
    return Status::unavailable("checkpoint: cannot scan " + dir);
  std::sort(candidates.rbegin(), candidates.rend());  // newest first

  Status last = Status::unavailable("checkpoint: none under " + dir +
                                    " with prefix " + prefix);
  for (const auto& [epoch, path] : candidates) {
    Expected<Checkpoint> loaded = load_checkpoint(path);
    if (loaded && loaded->epoch != epoch)
      loaded = Status::data_loss("checkpoint: header epoch " +
                                 std::to_string(loaded->epoch) +
                                 " disagrees with " + path);
    if (loaded) return loaded;  // fall back past corrupt/truncated files
    last = loaded.status();
  }
  return last;
}

std::string serialize_engine(const std::mt19937_64& engine) {
  std::ostringstream ss;
  ss << engine;
  return ss.str();
}

Status deserialize_engine(const std::string& blob, std::mt19937_64& engine) {
  std::istringstream ss(blob);
  ss >> engine;
  if (ss.fail())
    return Status::data_loss("checkpoint: malformed RNG engine state");
  return {};
}

void put_replica_state(Checkpoint& ckpt, const ReplicaRefs& replicas,
                       std::span<const double> losses) {
  ckpt.scalars["k"] = static_cast<double>(replicas.params.size());
  const std::vector<Param*>& params = replicas.params.front();
  for (std::size_t p = 0; p < params.size(); ++p)
    ckpt.put("param" + std::to_string(p), params[p]->value);
  const Optimizer& opt = *replicas.optimizers.front();
  const std::vector<tensor::Tensor> opt_state = opt.state();
  for (std::size_t s = 0; s < opt_state.size(); ++s)
    ckpt.put("opt" + std::to_string(s), opt_state[s]);
  ckpt.scalars["opt_n"] = static_cast<double>(opt_state.size());
  ckpt.scalars["opt_t"] = static_cast<double>(opt.step_count());
  for (std::size_t e = 0; e < losses.size(); ++e)
    ckpt.scalars["loss." + std::to_string(e)] = losses[e];
  for (std::size_t r = 0; r < replicas.rngs.size(); ++r)
    ckpt.blobs["rng" + std::to_string(r)] = serialize_engine(*replicas.rngs[r]);
}

std::size_t replica_count(const Checkpoint& ckpt) {
  std::uint64_t k = 0;
  return count_of(ckpt, "k", k) ? static_cast<std::size_t>(k) : 0;
}

Status restore_replica_state(const Checkpoint& ckpt,
                             const ReplicaRefs& replicas,
                             std::vector<double>* losses) {
  const auto bad = [](const char* what) {
    return Status::failed_precondition(std::string("checkpoint: ") + what);
  };
  // Reads tensors <prefix>0..n-1.  Optimizer state cycles through the
  // parameters (SGD velocity; Adam's m then v), so tensor i must have the
  // shape of parameter i mod the parameter count.
  const std::vector<Param*>& params = replicas.params.front();
  const auto read = [&](const std::string& prefix, std::uint64_t n,
                        std::vector<tensor::Tensor>& out) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto it = ckpt.tensors.find(prefix + std::to_string(i));
      if (params.empty() || it == ckpt.tensors.end() ||
          !it->second.same_shape(params[i % params.size()]->value))
        return false;
      out.push_back(it->second);
    }
    return true;
  };
  std::vector<tensor::Tensor> values;
  std::vector<tensor::Tensor> opt_state;
  std::uint64_t opt_n = 0;
  std::uint64_t opt_t = 0;
  if (!read("param", params.size(), values))
    return bad("parameter mismatch");
  if (!count_of(ckpt, "opt_n", opt_n) || !count_of(ckpt, "opt_t", opt_t) ||
      !read("opt", opt_n, opt_state))
    return bad("optimizer state mismatch");
  std::vector<std::mt19937_64> engines(replicas.rngs.size());
  for (std::size_t r = 0; r < engines.size(); ++r) {
    const auto it = ckpt.blobs.find("rng" + std::to_string(r));
    if (it == ckpt.blobs.end()) return bad("RNG stream missing");
    if (const Status s = deserialize_engine(it->second, engines[r]); !s.ok())
      return s;
  }
  // ckpt.epoch is a file field: it bounds this loop, never an allocation.
  std::vector<double> history;
  for (std::uint64_t e = 0; losses != nullptr && e < ckpt.epoch; ++e) {
    const auto it = ckpt.scalars.find("loss." + std::to_string(e));
    if (it == ckpt.scalars.end()) return bad("loss history missing");
    history.push_back(it->second);
  }

  for (const std::vector<Param*>& replica : replicas.params)
    for (std::size_t p = 0; p < replica.size(); ++p)
      replica[p]->value = values[p];
  for (Optimizer* opt : replicas.optimizers) {
    opt->set_state(opt_state);
    opt->set_step_count(opt_t);
  }
  for (std::size_t r = 0; r < engines.size(); ++r)
    *replicas.rngs[r] = engines[r];
  if (losses != nullptr) *losses = std::move(history);
  return {};
}

}  // namespace sagesim::nn
