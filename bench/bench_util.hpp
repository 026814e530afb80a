// Shared formatting helpers for the bench binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "compute/plan.hpp"

namespace bench {

inline void header(const std::string& id, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Renders a horizontal ASCII bar scaled so that @p max_value spans
/// @p width characters.
inline std::string bar(double value, double max_value, int width = 40) {
  if (max_value <= 0.0) return "";
  int n = static_cast<int>(value / max_value * width + 0.5);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

/// Execution-environment snapshot recorded into every BENCH_*.json so a
/// delta between two baselines is attributable: worker count vs physical
/// cores (a 1-core host cannot scale, however many threads it runs) and
/// which micro-kernel family dispatched.
struct RunInfo {
  unsigned workers{0};       ///< effective pool size for the run
  unsigned cpus_online{0};   ///< hardware threads actually available
  const char* isa{""};       ///< "avx2" / "portable" dispatch choice
};

inline RunInfo run_info(unsigned workers) {
  RunInfo info;
  info.workers = workers;
  info.cpus_online = std::thread::hardware_concurrency();
  info.isa = sagesim::compute::isa_name();
  return info;
}

/// Emits the RunInfo as a `"run": {...}` JSON member (no trailing comma).
inline void json_run_info(std::FILE* f, const RunInfo& info) {
  std::fprintf(f,
               "  \"run\": {\"workers\": %u, \"cpus_online\": %u, "
               "\"isa\": \"%s\"}",
               info.workers, info.cpus_online, info.isa);
}

/// Parses a `--workers` list ("1,2,8") into pool sizes; malformed or empty
/// input falls back to @p fallback.
inline std::vector<unsigned> parse_workers(const char* arg,
                                           std::vector<unsigned> fallback) {
  std::vector<unsigned> out;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p || v == 0) return fallback;
    out.push_back(static_cast<unsigned>(v));
    p = *end == ',' ? end + 1 : end;
    if (*end != '\0' && *end != ',') return fallback;
  }
  return out.empty() ? fallback : out;
}

}  // namespace bench
