#include "rag/latency.hpp"

#include <sstream>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace sagesim::rag {

void LatencyTracker::record(double seconds) {
  if (seconds < 0.0)
    throw std::invalid_argument("LatencyTracker: negative latency");
  samples_.push_back(seconds);
}

double LatencyTracker::mean() const {
  if (samples_.empty())
    throw std::invalid_argument("LatencyTracker: no samples");
  return stats::mean(samples_);
}

double LatencyTracker::percentile(double p) const {
  if (samples_.empty())
    throw std::invalid_argument("LatencyTracker: no samples");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("LatencyTracker: percentile outside [0,100]");
  return stats::quantile(samples_, p / 100.0);
}

double LatencyTracker::max() const { return percentile(100.0); }

bool LatencyTracker::meets_slo(double quantile, double budget_s) const {
  return percentile(quantile) <= budget_s;
}

std::string LatencyTracker::summary() const {
  std::ostringstream os;
  os.precision(3);
  os << "n=" << count() << " mean=" << mean() * 1e3
     << "ms p50=" << p50() * 1e3 << "ms p95=" << p95() * 1e3
     << "ms p99=" << p99() * 1e3 << "ms";
  return os.str();
}

}  // namespace sagesim::rag
