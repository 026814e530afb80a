// Shared pieces of the end-to-end benchmark: the metric catalogue, the one
// percentile function every reported percentile goes through, the output
// checker, scratch directories, and the slo_qps ladder search.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "prof/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One reported metric.  `moves` names, for a per-layer metric, the
/// end-to-end metric and workload it should move; for an end-to-end metric
/// it gives the per-workload definition.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  const char* moves;
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Name and unit rules the benchmark's JSON contract imposes.
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

using Metrics = std::map<std::string, double>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// What a workload hands back to main: output-check verdict, operation
/// counts, and both metric sets (end-to-end always, per-layer when traced).
struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  Metrics end_to_end;
  Metrics per_layer;

  /// Records a failed output check (printed immediately) when !ok.
  void check(bool ok, const std::string& what);
};

Outcome run_alg1(const RunOptions& opt);
Outcome run_ooc_sampled(const RunOptions& opt);
Outcome run_rag_open(const RunOptions& opt);
Outcome run_semester(const RunOptions& opt);

/// Runs the benchmark's self-tests; returns the process exit code.
int run_self_tests();

// --- statistics ------------------------------------------------------------

/// The q-quantile (q in [0, 1]) by linear interpolation between closest
/// ranks.  Throws std::invalid_argument on empty input or q outside [0, 1].
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Median, p90 and p99 of a latency sample, with the count behind them.
struct LatencySummary {
  std::size_t n{0};
  double p50{0.0};
  double p90{0.0};
  double p99{0.0};
};
LatencySummary summarize(const std::vector<double>& values);

/// Per-key median over repetitions (keys of the first repetition).
Metrics median_metrics(const std::vector<Metrics>& reps);

// --- repetitions -------------------------------------------------------------

/// Host walls of the repetitions a run made.
struct RepWalls {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Calls @p rep until opt.seconds have passed and it ran at least
/// @p min_reps times.  A traced run spends the first half of the budget on
/// untraced repetitions and the second half on traced ones, so the two can
/// be compared (tracing_overhead).  @p rep returns the host wall of the work
/// it timed.
RepWalls run_reps(const RunOptions& opt, int min_reps,
                  const std::function<double(bool traced)>& rep);

/// Median traced wall over median untraced wall, minus 1.
double tracing_overhead(const RepWalls& walls);

// --- process ---------------------------------------------------------------

/// High-water resident set size of this process (VmHWM), MB.
double peak_rss_mb();

/// Prints one human-readable metric line: "  <name>  <value> <unit>".
void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = "");

/// A fresh directory under ./.perfbench_tmp, removed (recursively) when the
/// object dies — the benchmark writes only inside its working directory.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- spans -----------------------------------------------------------------

/// Sum of host-time span durations whose name starts with @p prefix.
double span_seconds(const std::vector<sagesim::prof::TraceEvent>& spans,
                    std::string_view prefix);
std::size_t span_count(const std::vector<sagesim::prof::TraceEvent>& spans,
                       std::string_view prefix);

/// Host latency of each synchronized training step, from the scheduler's
/// task spans: step s runs from the earliest start of any rank's s-th
/// @p compute span to the latest end of any rank's s-th @p update span.
/// Spans are matched per worker lane in execution order.
std::vector<double> step_latencies_s(
    const std::vector<sagesim::prof::TraceEvent>& spans,
    std::string_view compute_prefix, std::string_view update_prefix);

// --- slo_qps ladder ----------------------------------------------------------

/// Rates lo, lo*ratio, lo*ratio^2, ... up to hi (inclusive within rounding).
std::vector<double> geometric_ladder(double lo, double hi, double ratio);

/// Highest ladder index whose rate meets @p meets, by binary search under the
/// assumption that meeting is monotone (once a rate fails, every higher rate
/// fails).  Returns -1 when even the lowest rate fails.  @p probes counts the
/// predicate evaluations.
int ladder_search(const std::vector<double>& ladder,
                  const std::function<bool(double)>& meets,
                  int* probes = nullptr);

}  // namespace perfbench
