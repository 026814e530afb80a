#include "layers.hpp"

#include "compute/autotuner.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/spmm.hpp"
#include "mem/buffer.hpp"
#include "mem/pool.hpp"
#include "prof/report.hpp"
#include "stats/rng.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace sg = sagesim;

namespace {

double counter_or_zero(const sg::prof::TraceEvent& e, const char* name) {
  const auto it = e.counters.find(name);
  return it == e.counters.end() ? 0.0 : it->second;
}

// Device-pool hits and misses ride along under private keys until
// finish_data_plane folds them into mem.pool_hit_rate.
constexpr const char* kDevPoolHits = "_dev_pool_hits";
constexpr const char* kDevPoolMisses = "_dev_pool_misses";

}  // namespace

void add_trainer_run(Metrics& m, sg::gpu::DeviceManager& dm,
                     sg::dflow::Cluster& cluster, const TrainerSpans& names) {
  const auto spans = cluster.scheduler().timeline().snapshot();
  m["runtime.tasks"] += static_cast<double>(cluster.completed_tasks());
  m["runtime.busy_s"] += span_seconds(spans, "");
  m["core.fwd_bwd_s"] += span_seconds(spans, names.compute);
  m["core.optim_s"] += span_seconds(spans, names.update);
  if (cluster.world_size() > 1) {
    m["dflow.allreduce_s"] += span_seconds(spans, names.allreduce);
    m["dflow.allreduce_calls"] +=
        static_cast<double>(span_count(spans, names.allreduce));
  }

  for (const auto& e : dm.timeline().snapshot()) {
    if (sg::prof::is_comm_event(e))
      m["dflow.comm_bytes"] += counter_or_zero(e, "bytes");
    if (e.kind != sg::prof::EventKind::kKernel) continue;
    m["gpusim.kernel_launches"] += 1.0;
    m["gpusim.kernel_gflop"] += counter_or_zero(e, "flops") * 1e-9;
    m["gpusim.kernel_gb"] += counter_or_zero(e, "bytes") * 1e-9;
    m["gpusim.modeled_kernel_s"] += e.duration_s;
  }
  for (std::size_t d = 0; d < dm.device_count(); ++d) {
    const auto st = sg::mem::device_pool(dm.device(d)).stats();
    m[kDevPoolHits] += static_cast<double>(st.hits);
    m[kDevPoolMisses] += static_cast<double>(st.misses);
  }
}

void set_trainer_fractions(Metrics& m, sg::gpu::DeviceManager& dm,
                           sg::dflow::Cluster& cluster, double wall_s) {
  const auto spans = cluster.scheduler().timeline().snapshot();
  const double lanes = static_cast<double>(cluster.world_size());
  m["runtime.lane_idle_frac"] =
      1.0 - span_seconds(spans, "") / (lanes * wall_s);

  double util = 0.0, comm = 0.0, exposed = 0.0, h2d = 0.0, hidden = 0.0;
  const int devices = static_cast<int>(dm.device_count());
  for (int d = 0; d < devices; ++d) {
    util += sg::prof::kernel_utilization(dm.timeline(), d);
    const auto co = sg::prof::comm_overlap(dm.timeline(), d);
    comm += co.comm_s;
    exposed += co.exposed_s;
    const auto to = sg::prof::transfer_overlap(dm.timeline(), d);
    h2d += to.h2d_s;
    hidden += to.hidden_s;
  }
  m["gpusim.kernel_util"] = util / devices;
  m["ddp.exposed_comm_frac"] = comm > 0.0 ? exposed / comm : 0.0;
  m["mem.h2d_hidden_frac"] = h2d > 0.0 ? hidden / h2d : 0.0;
}

void reset_data_plane() {
  sg::mem::reset_transfer_ledger();
  sg::mem::host_pool().reset_stats();
  sg::mem::reset_process_peak_resident_bytes();
  sg::compute::Autotuner::shared().reset_stats();
}

void finish_data_plane(Metrics& m) {
  const auto ledger = sg::mem::transfer_ledger();
  m["mem.h2d_bytes"] = static_cast<double>(ledger.h2d_bytes);
  m["mem.h2d_copies"] = static_cast<double>(ledger.h2d_count);
  m["mem.d2h_bytes"] = static_cast<double>(ledger.d2h_bytes);

  const auto host = sg::mem::host_pool().stats();
  const double hits = static_cast<double>(host.hits) + m[kDevPoolHits];
  const double misses = static_cast<double>(host.misses) + m[kDevPoolMisses];
  m.erase(kDevPoolHits);
  m.erase(kDevPoolMisses);
  m["mem.pool_hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  m["mem.peak_resident_mb"] =
      static_cast<double>(sg::mem::process_peak_resident_bytes()) / 1e6;

  const auto tune = sg::compute::Autotuner::shared().stats();
  m["compute.tune_hits"] = static_cast<double>(tune.hits);
  m["compute.tune_misses"] = static_cast<double>(tune.misses);
}

double time_median_ms(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(std::move(ms));
}

void probe_trainer_kernels(Metrics& m, const sg::tensor::Tensor& features,
                           const sg::graph::NormalizedAdjacency& adj,
                           std::size_t hidden) {
  sg::gpu::DeviceManager dm(1, sg::gpu::spec::t4());
  auto& dev = dm.device(0);
  sg::stats::Rng rng(7);

  sg::tensor::Tensor x = features;
  sg::tensor::Tensor w(features.cols(), hidden);
  w.init_uniform(rng, -0.1f, 0.1f);
  sg::tensor::Tensor xw(features.rows(), hidden);
  sg::graph::NormalizedAdjacency a = adj;
  sg::tensor::Tensor h(features.rows(), hidden);
  h.init_uniform(rng, -1.0f, 1.0f);
  sg::tensor::Tensor ah(features.rows(), hidden);
  for (auto* t : {&x, &w, &xw, &h, &ah}) t->to_device(dev).throw_if_error();
  a.to_device(dev).throw_if_error();

  m["compute.gemm_ms"] = time_median_ms(
      [&] { sg::tensor::ops::gemm(&dev, x, w, xw); }, 5);
  m["compute.spmm_ms"] =
      time_median_ms([&] { sg::graph::spmm(&dev, a, h, ah); }, 5);
}

}  // namespace perfbench
