// Per-layer readings shared by the trainer workloads (alg1 and ooc_sampled)
// and the data-plane readings every traced workload reports: what the
// scheduler's host-time task spans, the simulated device timeline, the
// transfer ledger, the pools and the autotuner say about a run.
#pragma once

#include <functional>
#include <string_view>

#include "common.hpp"
#include "dflow/cluster.hpp"
#include "gpusim/device_manager.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Span names of one trainer's per-step tasks (matched as prefixes).
struct TrainerSpans {
  std::string_view compute;    ///< forward+backward task
  std::string_view update;     ///< optimizer task
  std::string_view allreduce;  ///< gradient all-reduce task
};

/// Adds one finished run's counts and times into @p m, summing across runs:
/// runtime tasks and busy time, core and dflow span time, gpusim kernel
/// totals, comm bytes, and device-pool hits and misses.
void add_trainer_run(Metrics& m, sagesim::gpu::DeviceManager& dm,
                     sagesim::dflow::Cluster& cluster,
                     const TrainerSpans& names);

/// Sets the ratio metrics from one representative run that took @p wall_s
/// host seconds: lane idle share, kernel utilization, exposed comm share and
/// hidden H2D share.
void set_trainer_fractions(Metrics& m, sagesim::gpu::DeviceManager& dm,
                           sagesim::dflow::Cluster& cluster, double wall_s);

/// Zeroes the process-wide data-plane counters a traced repetition reads.
void reset_data_plane();

/// Folds the transfer ledger, pool, residency and autotuner counters since
/// reset_data_plane() into @p m.
void finish_data_plane(Metrics& m);

/// Median host milliseconds of @p reps calls of @p fn.
double time_median_ms(const std::function<void()>& fn, int reps);

/// compute.gemm_ms and compute.spmm_ms: the trainer's dominant GEMM
/// (features x hidden weights) and SpMM (adjacency x hidden activations),
/// placed on a simulated T4 the way the trainer places them.
void probe_trainer_kernels(Metrics& m, const sagesim::tensor::Tensor& features,
                           const sagesim::graph::NormalizedAdjacency& adj,
                           std::size_t hidden);

}  // namespace perfbench
