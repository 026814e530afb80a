#include "dflow/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gpusim/device.hpp"

namespace sagesim::dflow {

namespace {

void validate(const std::vector<CollectiveBuffer>& buffers,
              std::size_t count) {
  if (buffers.size() < 2)
    throw std::invalid_argument("collective: need at least 2 participants");
  if (count == 0) throw std::invalid_argument("collective: empty buffers");
  for (const auto& b : buffers)
    if (b.data == nullptr)
      throw std::invalid_argument("collective: null buffer");
  // Duplicate devices would share staging and peer links; the reduction
  // result would silently double-count.
  std::vector<std::size_t> ids;
  ids.reserve(buffers.size());
  for (const auto& b : buffers) ids.push_back(b.device);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end())
    throw std::invalid_argument("collective: duplicate device ids");
}

/// Advances each participant's stream to its data-ready time, so no hop or
/// kernel of the collective can start before the inputs exist.
void apply_readiness(gpu::DeviceManager& devices,
                     const std::vector<CollectiveBuffer>& buffers) {
  for (const auto& b : buffers)
    if (b.ready_s > 0.0)
      devices.device(b.device).wait_event(
          b.stream,
          gpu::Event{b.ready_s, static_cast<int>(b.device), b.stream});
}

/// Chunk boundaries: chunk c covers [off[c], off[c+1]).  floor(c*count/k)
/// computed without the c*count intermediate, which overflows size_t for
/// large counts: c*count/k == c*(count/k) + c*(count%k)/k exactly, because
/// the first term is already an integer.
std::vector<std::size_t> chunk_offsets(std::size_t count, std::size_t k) {
  std::vector<std::size_t> off(k + 1);
  for (std::size_t c = 0; c <= k; ++c)
    off[c] = c * (count / k) + (c * (count % k)) / k;
  return off;
}

/// Element-wise a += b on device @p dev, charged as a bandwidth-bound kernel.
void device_axpy(gpu::Device& dev, float* a, const float* b,
                 std::size_t count, const char* name, int stream) {
  gpu::LaunchOptions opts;
  opts.stream = stream;
  gpu::elementwise(
      &dev, name, count, 1.0, 3.0 * sizeof(float),
      [=](std::size_t i) { a[i] += b[i]; }, opts);
}

}  // namespace

void ring_allreduce_sum(gpu::DeviceManager& devices,
                        const std::vector<CollectiveBuffer>& buffers,
                        std::size_t count, int bucket) {
  validate(buffers, count);
  apply_readiness(devices, buffers);
  const std::size_t k = buffers.size();
  const std::vector<std::size_t> off = chunk_offsets(count, k);

  // Per-device staging buffers sized for the largest chunk.
  std::size_t max_chunk = 0;
  for (std::size_t c = 0; c < k; ++c)
    max_chunk = std::max(max_chunk, off[c + 1] - off[c]);
  std::vector<gpu::DeviceBuffer<float>> staging;
  staging.reserve(k);
  for (const auto& b : buffers)
    staging.emplace_back(devices.device(b.device), max_chunk);

  // Canonical partial sums.  The wire schedule below is the genuine ring —
  // it decides what the simulated clock charges — but the *values* fold in
  // ascending rank order into this scratch, so the result bits do not depend
  // on which rank a chunk happens to visit first (the ring's rotated visit
  // order would make chunk c fold starting at rank c).  Kernels execute on
  // the host anyway; only explicit transfers model data locality, and the
  // hop schedule charges exactly the transfers a real ring performs.
  std::vector<float> partial(count);
  std::copy(buffers[0].data, buffers[0].data + count, partial.begin());

  // One ring transfer: data + simulated-time bookkeeping.  All transfers of
  // a round start at the same fence and overlap (each hop uses its own
  // point-to-point link), which is exactly why the ring is bandwidth-
  // optimal; DeviceManager::copy_peer would serialize them pairwise.
  struct Hop {
    std::size_t src_rank, dst_rank;
    const float* src;
    float* dst;
    std::size_t n;
  };
  auto run_round = [&](const std::vector<Hop>& hops) {
    double round_start = 0.0;
    for (const auto& h : hops) {
      const auto& sb = buffers[h.src_rank];
      const auto& db = buffers[h.dst_rank];
      round_start = std::max(
          round_start, devices.device(sb.device).stream_time(sb.stream));
      round_start = std::max(
          round_start, devices.device(db.device).stream_time(db.stream));
    }
    for (const auto& h : hops) {
      if (h.n == 0) continue;
      const auto& sb = buffers[h.src_rank];
      const auto& db = buffers[h.dst_rank];
      std::memcpy(h.dst, h.src, h.n * sizeof(float));
      const double dur = devices.device(sb.device)
                             .timing()
                             .peer_transfer_seconds(h.n * sizeof(float));
      const gpu::Event fence{round_start + dur, static_cast<int>(sb.device),
                             sb.stream};
      devices.device(sb.device).wait_event(sb.stream, fence);
      devices.device(db.device).wait_event(db.stream, fence);

      prof::TraceEvent e;
      e.name = "ring_hop";
      e.kind = prof::EventKind::kMemcpyD2D;
      e.start_s = round_start;
      e.duration_s = dur;
      e.device = static_cast<int>(sb.device);
      e.stream = sb.stream;
      e.counters["bytes"] = static_cast<double>(h.n * sizeof(float));
      e.counters["dst_device"] = static_cast<double>(db.device);
      e.counters["comm"] = 1.0;
      if (bucket >= 0) e.counters["bucket"] = static_cast<double>(bucket);
      devices.timeline().record(std::move(e));
    }
  };

  // Phase 1: reduce-scatter.  At step s, rank r sends chunk (r - s) mod k to
  // rank r+1, which accumulates one more contribution into it.  The wire
  // carries the rotated partials; the accumulate kernel folds rank s+1's
  // contribution (the ascending-order one) into the canonical scratch, with
  // the same element count, flops and bytes the in-place fold would charge.
  for (std::size_t step = 0; step + 1 < k; ++step) {
    std::vector<Hop> hops;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t send_chunk = (r + k - step) % k;
      const std::size_t dst = (r + 1) % k;
      const std::size_t n = off[send_chunk + 1] - off[send_chunk];
      hops.push_back({r, dst, buffers[r].data + off[send_chunk],
                      staging[dst].data(), n});
    }
    run_round(hops);
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t send_chunk = (r + k - step) % k;
      const std::size_t dst = (r + 1) % k;
      const std::size_t n = off[send_chunk + 1] - off[send_chunk];
      if (n == 0) continue;
      float* acc = partial.data() + off[send_chunk];
      const float* contrib = buffers[step + 1].data + off[send_chunk];
      device_axpy(devices.device(buffers[dst].device), acc, contrib, n,
                  "allreduce_accumulate", buffers[dst].stream);
    }
  }

  // Every buffer takes the canonically folded sums; the all-gather below
  // decides *when* each rank's copy becomes valid on the simulated clock.
  for (const auto& b : buffers)
    std::copy(partial.begin(), partial.end(), b.data);

  // Phase 2: all-gather.  Rank r owns the fully reduced chunk (r + 1) % k;
  // circulate the finished chunks around the ring.
  for (std::size_t step = 0; step + 1 < k; ++step) {
    std::vector<Hop> hops;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t send_chunk = (r + 1 + k - step) % k;
      const std::size_t dst = (r + 1) % k;
      const std::size_t n = off[send_chunk + 1] - off[send_chunk];
      hops.push_back({r, dst, buffers[r].data + off[send_chunk],
                      buffers[dst].data + off[send_chunk], n});
    }
    run_round(hops);
  }
}

void naive_allreduce_sum(gpu::DeviceManager& devices,
                         const std::vector<CollectiveBuffer>& buffers,
                         std::size_t count, int bucket) {
  (void)bucket;
  validate(buffers, count);
  apply_readiness(devices, buffers);
  const std::size_t k = buffers.size();
  const std::size_t root_dev = buffers[0].device;
  gpu::DeviceBuffer<float> staging(devices.device(root_dev), count);

  // Gather to rank 0 and reduce there (ascending rank order).
  for (std::size_t r = 1; r < k; ++r) {
    devices.copy_peer(root_dev, staging.data(), buffers[r].device,
                      buffers[r].data, count * sizeof(float),
                      buffers[0].stream, buffers[r].stream);
    device_axpy(devices.device(root_dev), buffers[0].data, staging.data(),
                count, "naive_reduce", buffers[0].stream);
  }
  // Broadcast the result.
  broadcast(devices, buffers, count, 0);
}

void scale_buffers(gpu::DeviceManager& devices,
                   const std::vector<CollectiveBuffer>& buffers,
                   std::size_t count, float factor) {
  validate(buffers, count);
  for (const auto& b : buffers) {
    gpu::LaunchOptions opts;
    opts.stream = b.stream;
    float* data = b.data;
    gpu::elementwise(
        &devices.device(b.device), "allreduce_scale", count, 1.0,
        2.0 * sizeof(float), [=](std::size_t i) { data[i] *= factor; }, opts);
  }
}

void broadcast(gpu::DeviceManager& devices,
               const std::vector<CollectiveBuffer>& buffers,
               std::size_t count, std::size_t root) {
  validate(buffers, count);
  if (root >= buffers.size())
    throw std::out_of_range("broadcast: root " + std::to_string(root) +
                            " out of range");
  for (std::size_t r = 0; r < buffers.size(); ++r) {
    if (r == root) continue;
    devices.copy_peer(buffers[r].device, buffers[r].data,
                      buffers[root].device, buffers[root].data,
                      count * sizeof(float), buffers[r].stream,
                      buffers[root].stream);
  }
}

}  // namespace sagesim::dflow
