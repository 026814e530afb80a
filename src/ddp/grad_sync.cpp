#include "ddp/grad_sync.hpp"

#include <algorithm>
#include <stdexcept>

#include "dflow/collectives.hpp"

namespace sagesim::ddp {

GradientSynchronizer::GradientSynchronizer(
    gpu::DeviceManager& devices,
    std::vector<std::vector<nn::Param*>> replicas, SyncOptions options)
    : devices_(devices), replicas_(std::move(replicas)), options_(options) {
  if (replicas_.size() < 2)
    throw std::invalid_argument("GradientSynchronizer: need >= 2 replicas");
  if (replicas_.size() > devices_.device_count())
    throw std::invalid_argument(
        "GradientSynchronizer: more replicas than devices");
  const auto& reference = replicas_.front();
  for (const auto& replica : replicas_) {
    if (replica.size() != reference.size())
      throw std::invalid_argument(
          "GradientSynchronizer: replicas have different parameter counts");
    for (std::size_t i = 0; i < replica.size(); ++i)
      if (!replica[i]->value.same_shape(reference[i]->value))
        throw std::invalid_argument(
            "GradientSynchronizer: parameter shape mismatch across replicas");
  }
  for (const nn::Param* p : reference) flat_size_ += p->size();
  if (options_.bucket_bytes == 0) options_.bucket_bytes = kDefaultBucketBytes;

  build_plan();

  buckets_.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Expected<mem::Buffer> bucket = mem::Buffer::on_device(
        devices_.device(r), flat_size_ * sizeof(float));
    bucket.status().throw_if_error();
    buckets_.push_back(std::move(bucket).value());
  }

  index_of_.resize(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    for (std::size_t i = 0; i < replicas_[r].size(); ++i)
      index_of_[r].emplace(replicas_[r][i], i);

  state_.resize(plan_.size());
  std::lock_guard lock(mutex_);
  reset_state_locked();
}

GradientSynchronizer::GradientSynchronizer(
    gpu::DeviceManager& devices,
    std::vector<std::vector<nn::Param*>> replicas, AllReduceAlgo algo)
    : GradientSynchronizer(devices, std::move(replicas),
                           SyncOptions{.algo = algo}) {}

void GradientSynchronizer::build_plan() {
  // Reverse registration order: backward produces the last layer's gradients
  // first, so bucket 0 — the first to fill — holds the tail parameters.
  // The flat buffer is laid out in bucket order, so each bucket is one
  // contiguous range.
  const auto& reference = replicas_.front();
  const std::size_t n = reference.size();
  bucket_of_.assign(n, 0);
  std::size_t flat_off = 0;
  Bucket cur;
  auto flush = [&] {
    if (cur.params.empty()) return;
    plan_.push_back(cur);
    cur = Bucket{};
    cur.flat_off = flat_off;
  };
  cur.flat_off = 0;
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t elems = reference[i]->size();
    if (!cur.params.empty() &&
        (cur.elems + elems) * sizeof(float) > options_.bucket_bytes)
      flush();
    cur.params.push_back(i);
    cur.elems += elems;
    flat_off += elems;
  }
  flush();
  for (std::size_t b = 0; b < plan_.size(); ++b)
    for (const std::size_t i : plan_[b].params) bucket_of_[i] = b;
}

void GradientSynchronizer::reset_state_locked() {
  const std::size_t k = replicas_.size();
  for (std::size_t b = 0; b < plan_.size(); ++b) {
    BucketState& st = state_[b];
    st.seen.assign(k * plan_[b].params.size(), 0);
    st.pending.assign(k, plan_[b].params.size());
    st.ready_s.assign(k, 0.0);
    st.ranks_pending = k;
    st.fired = false;
  }
}

void GradientSynchronizer::pack_bucket(std::size_t rank, const Bucket& b,
                                       int stream) {
  auto& dev = devices_.device(rank);
  float* bucket = buckets_[rank].view<float>().data();
  gpu::LaunchOptions opts;
  opts.stream = stream;
  std::size_t offset = b.flat_off;
  for (const std::size_t i : b.params) {
    nn::Param* p = replicas_[rank][i];
    const float* g = p->grad.data();
    float* dst = bucket + offset;
    gpu::elementwise(
        &dev, "ddp_pack", p->size(), 0.0, 2.0 * sizeof(float),
        [=](std::size_t j) { dst[j] = g[j]; }, opts);
    offset += p->size();
  }
}

void GradientSynchronizer::unpack_bucket(std::size_t rank, const Bucket& b,
                                         int stream) {
  auto& dev = devices_.device(rank);
  const float* bucket = buckets_[rank].view<float>().data();
  gpu::LaunchOptions opts;
  opts.stream = stream;
  std::size_t offset = b.flat_off;
  for (const std::size_t i : b.params) {
    nn::Param* p = replicas_[rank][i];
    float* g = p->grad.data();
    const float* src = bucket + offset;
    gpu::elementwise(
        &dev, "ddp_unpack", p->size(), 0.0, 2.0 * sizeof(float),
        [=](std::size_t j) { g[j] = src[j]; }, opts);
    offset += p->size();
  }
}

void GradientSynchronizer::run_bucket_locked(std::size_t bi, bool on_comm) {
  const Bucket& b = plan_[bi];
  BucketState& st = state_[bi];
  const std::size_t k = replicas_.size();

  std::vector<dflow::CollectiveBuffer> bufs;
  bufs.reserve(k);
  double bucket_start = 0.0;
  for (std::size_t r = 0; r < k; ++r) {
    auto& dev = devices_.device(r);
    const int stream = on_comm ? dev.comm_stream() : 0;
    if (on_comm) {
      // The bucket's gradients exist only once the rank's backward compute
      // has produced them: floor the comm stream at the stream-0 cursor
      // recorded when the rank completed the bucket (or now, if sync() runs
      // it without notifications).
      const double ready =
          st.ready_s[r] > 0.0 ? st.ready_s[r] : dev.stream_time(0);
      dev.wait_event(stream, gpu::Event{ready, static_cast<int>(r), 0});
    }
    bucket_start = std::max(bucket_start, dev.stream_time(stream));
    pack_bucket(r, b, stream);
    bufs.push_back({r, buckets_[r].view<float>().data() + b.flat_off, stream,
                    0.0});
  }

  switch (options_.algo) {
    case AllReduceAlgo::kRing:
      dflow::ring_allreduce_sum(devices_, bufs, b.elems,
                                static_cast<int>(bi));
      break;
    case AllReduceAlgo::kNaive:
      dflow::naive_allreduce_sum(devices_, bufs, b.elems,
                                 static_cast<int>(bi));
      break;
  }
  dflow::scale_buffers(devices_, bufs, b.elems,
                       1.0f / static_cast<float>(k));
  st.fired = true;

  double bucket_end = bucket_start;
  for (const auto& buf : bufs)
    bucket_end = std::max(
        bucket_end, devices_.device(buf.device).stream_time(buf.stream));
  prof::TraceEvent e;
  e.name = "ddp_bucket";
  e.kind = prof::EventKind::kRange;
  e.start_s = bucket_start;
  e.duration_s = bucket_end - bucket_start;
  e.device = -1;
  e.stream = -1;
  e.counters["bucket"] = static_cast<double>(bi);
  e.counters["elems"] = static_cast<double>(b.elems);
  e.counters["comm"] = 1.0;
  devices_.timeline().record(std::move(e));
}

void GradientSynchronizer::notify_grad_ready(std::size_t rank,
                                             const nn::Param* param) {
  if (rank >= replicas_.size())
    throw std::out_of_range("notify_grad_ready: unknown rank");
  const auto it = index_of_[rank].find(param);
  if (it == index_of_[rank].end())
    throw std::invalid_argument(
        "notify_grad_ready: parameter not registered for this rank");
  const std::size_t i = it->second;
  const std::size_t bi = bucket_of_[i];
  const Bucket& b = plan_[bi];
  const auto slot_it = std::find(b.params.begin(), b.params.end(), i);
  const std::size_t slot =
      static_cast<std::size_t>(slot_it - b.params.begin());

  std::lock_guard lock(mutex_);
  BucketState& st = state_[bi];
  // A retried backward task re-notifies parameters it already reported;
  // recomputed gradients are bit-identical (deterministic compute over
  // unchanged inputs) and unpack is deferred to sync(), so a bucket that
  // already fired stays correct — just ignore the duplicate.
  if (st.fired) return;
  std::uint8_t& seen = st.seen[rank * b.params.size() + slot];
  if (seen != 0) return;
  seen = 1;
  if (--st.pending[rank] != 0) return;
  st.ready_s[rank] = devices_.device(rank).stream_time(0);
  if (--st.ranks_pending != 0) return;
  // Buckets complete in ascending order (every rank notifies bucket b's
  // parameters before bucket b+1's), and the mutex serializes execution, so
  // the comm streams see a deterministic bucket sequence.
  if (options_.overlap) run_bucket_locked(bi, /*on_comm=*/true);
}

void GradientSynchronizer::sync() {
  std::lock_guard lock(mutex_);
  for (std::size_t bi = 0; bi < plan_.size(); ++bi)
    if (!state_[bi].fired) run_bucket_locked(bi, options_.overlap);

  if (options_.overlap) {
    // The iteration's only compute/comm join point: stream 0 resumes after
    // the comm stream drains.  Whatever comm time stream 0 actually waits
    // here is the *exposed* communication; the rest was hidden under
    // backward.
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      auto& dev = devices_.device(r);
      dev.wait_event(0, dev.record_event(dev.comm_stream()));
    }
  }
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    for (const Bucket& b : plan_) unpack_bucket(r, b, /*stream=*/0);
  reset_state_locked();
}

void GradientSynchronizer::reset_pending() {
  std::lock_guard lock(mutex_);
  reset_state_locked();
}

void broadcast_params(gpu::DeviceManager& devices,
                      std::vector<std::vector<nn::Param*>>& replicas) {
  if (replicas.size() < 2) return;
  const auto& src = replicas.front();
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    if (replicas[r].size() != src.size())
      throw std::invalid_argument("broadcast_params: replica count mismatch");
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (!replicas[r][i]->value.same_shape(src[i]->value))
        throw std::invalid_argument("broadcast_params: shape mismatch");
      tensor::Tensor& sv = src[i]->value;
      tensor::Tensor& dv = replicas[r][i]->value;
      const std::size_t bytes = src[i]->size() * sizeof(float);
      gpu::Device* sdev = sv.device();
      gpu::Device* ddev = dv.device();
      if (sv.placement() == mem::Placement::kDevice &&
          dv.placement() == mem::Placement::kDevice && sdev != nullptr &&
          ddev != nullptr && sdev->ordinal() != ddev->ordinal()) {
        // Device-resident replicas: the broadcast is a genuine peer copy —
        // accounted, priced by the actual source device, fencing both ends.
        devices.copy_peer(static_cast<std::size_t>(ddev->ordinal()),
                          dv.data(),
                          static_cast<std::size_t>(sdev->ordinal()),
                          sv.data(), bytes);
        continue;
      }
      std::copy(sv.data(), sv.data() + src[i]->size(), dv.data());
      // Host-placed replicas: model the same wire hop from rank 0's device
      // to rank r's.  Both streams advance to the common completion time —
      // the link is busy on the sending side too.
      const double dur =
          devices.device(0).timing().peer_transfer_seconds(bytes);
      const double start =
          std::max(devices.device(0).stream_time(0),
                   devices.device(r).stream_time(0));
      const gpu::Event fence{start + dur, 0, 0};
      devices.device(0).wait_event(0, fence);
      devices.device(r).wait_event(0, fence);
      prof::TraceEvent e;
      e.name = "param_broadcast";
      e.kind = prof::EventKind::kMemcpyD2D;
      e.start_s = start;
      e.duration_s = dur;
      e.device = 0;
      e.stream = 0;
      e.counters["bytes"] = static_cast<double>(bytes);
      e.counters["dst_device"] = static_cast<double>(r);
      e.counters["comm"] = 1.0;
      devices.timeline().record(std::move(e));
    }
  }
}

}  // namespace sagesim::ddp
