// Timeline recorder — the Nsight-Systems-like substrate used by every other
// sagesim module.
//
// Events carry *simulated* timestamps (seconds of modeled device/host time,
// produced by the gpusim timing model) rather than wall-clock readings, so
// traces are deterministic and independent of the host the simulation runs
// on.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace sagesim::prof {

/// Broad classification of a trace event, mirroring the row categories an
/// Nsight Systems timeline shows for a CUDA workload.
enum class EventKind : std::uint8_t {
  kKernel,        ///< device kernel execution
  kMemcpyH2D,     ///< host-to-device transfer
  kMemcpyD2H,     ///< device-to-host transfer
  kMemcpyD2D,     ///< device-to-device (peer) transfer
  kHostCompute,   ///< host-side computation
  kScheduler,     ///< task-scheduler activity (dflow)
  kApi,           ///< API call overhead (launch, sync, alloc)
  kMarker,        ///< instantaneous user marker
  kRange,         ///< user-defined scoped range
};

/// Returns a stable display name for @p kind ("kernel", "memcpy_h2d", ...).
const char* to_string(EventKind kind);

/// One closed interval on the timeline plus its attached counters.
struct TraceEvent {
  std::string name;             ///< e.g. "gemm_tiled" or "scatter:part3"
  EventKind kind{EventKind::kRange};
  double start_s{0.0};          ///< simulated start time, seconds
  double duration_s{0.0};       ///< simulated duration, seconds
  int device{-1};               ///< device ordinal, -1 == host
  int stream{-1};               ///< stream ordinal, -1 == default/none
  /// Free-form numeric counters: "flops", "bytes", "bytes_moved",
  /// "occupancy", "blocks", ... — whatever the producer knows.
  std::map<std::string, double> counters;

  double end_s() const { return start_s + duration_s; }
};

/// Aggregate view of all events sharing one name, used by reports.
struct EventSummary {
  std::string name;
  EventKind kind{EventKind::kRange};
  std::size_t count{0};
  double total_s{0.0};
  double min_s{0.0};
  double max_s{0.0};
  double total_flops{0.0};
  double total_bytes{0.0};
};

/// Thread-safe append-only event recorder.
///
/// A Timeline is shared by one simulation "run": devices, schedulers and user
/// code all append into it.  Readers take a snapshot copy; there is no
/// iterator invalidation to worry about.
class Timeline {
 public:
  Timeline() = default;

  /// Appends one event.  Thread-safe.
  void record(TraceEvent event);

  /// Convenience: records an instantaneous marker at @p at_s.
  void marker(std::string name, double at_s, int device = -1);

  /// Number of recorded events.
  std::size_t size() const;

  /// True when no events have been recorded.
  bool empty() const { return size() == 0; }

  /// Snapshot of all events, ordered by recording order.
  std::vector<TraceEvent> snapshot() const;

  /// Snapshot filtered to a single kind.
  std::vector<TraceEvent> snapshot(EventKind kind) const;

  /// Per-name aggregation over the whole timeline, sorted by descending
  /// total time.
  std::vector<EventSummary> summarize() const;

  /// Sum of durations for one kind (seconds).
  double total_time(EventKind kind) const;

  /// Latest end timestamp over all events; 0 when empty.
  double span_end_s() const;

  /// Removes every recorded event.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace sagesim::prof
