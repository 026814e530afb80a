// perfbench: the end-to-end benchmark binary behind perfbench/run.py.
//
//   perfbench --workload alg1|ooc_sampled|rag_open|semester --seed N
//             --seconds S --trace 0|1
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints human-readable lines, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics (0 for a
// layer the workload leaves idle).  Exits 1 when an output check fails and
// 2 on a usage error or when a SAGESIM_* environment variable is set, since
// those change the measured path.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "common.hpp"
#include "runtime/scheduler.hpp"

extern char** environ;

namespace {

using perfbench::MetricSpec;
using perfbench::Metrics;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "alg1|ooc_sampled|rag_open|semester --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test | --list-metrics\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

void print_catalogue() {
  auto table = [](const char* key, const std::vector<MetricSpec>& specs,
                  bool last) {
    std::printf("  \"%s\": [\n", key);
    for (std::size_t i = 0; i < specs.size(); ++i)
      std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                  "\"%s\", \"moves\": \"%s\"}%s\n",
                  specs[i].name, specs[i].unit, specs[i].better,
                  specs[i].moves, i + 1 == specs.size() ? "" : ",");
    std::printf("  ]%s\n", last ? "" : ",");
  };
  std::printf("{\n");
  table("end_to_end", perfbench::end_to_end_metrics(), false);
  table("per_layer", perfbench::per_layer_metrics(), true);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return perfbench::run_self_tests();
    if (a == "--list-metrics") {
      print_catalogue();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && parse_u64(v, n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace))
    return usage("--workload, --seed, --seconds and --trace are required");

  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SAGESIM_", 8) == 0) {
      std::fprintf(stderr,
                   "perfbench: %s is set; SAGESIM_* knobs change the measured "
                   "path — unset it\n",
                   *e);
      return 2;
    }
  }

  perfbench::Outcome (*run)(const perfbench::RunOptions&) = nullptr;
  if (opt.workload == "alg1") run = perfbench::run_alg1;
  if (opt.workload == "ooc_sampled") run = perfbench::run_ooc_sampled;
  if (opt.workload == "rag_open") run = perfbench::run_rag_open;
  if (opt.workload == "semester") run = perfbench::run_semester;
  if (run == nullptr)
    return usage(("unknown workload " + opt.workload).c_str());

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  perfbench::Outcome out = run(opt);
  out.end_to_end["peak_rss_mb"] = perfbench::peak_rss_mb();

  std::printf("{\n");
  bench::json_run_info(
      stdout, bench::run_info(sagesim::runtime::resolve_worker_count(0)));
  std::printf("\n}\n");

  const auto& specs = opt.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  Metrics& values = opt.trace ? out.per_layer : out.end_to_end;
  std::string json = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name = specs[i].name;
    const auto it = values.find(name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
    } else if (!opt.trace) {
      out.check(false, "end-to-end metric " + name + " was not measured");
    }
    if (!std::isfinite(v)) {
      out.check(false, "metric " + name + " is not finite");
      v = 0.0;
    }
    if (!opt.trace && v <= 0.0)
      out.check(false, "end-to-end metric " + name + " is not positive");
    perfbench::print_metric(name, v, specs[i].unit,
                            opt.trace && it == values.end() ? "(idle)" : "");
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}";
  for (const auto& [name, _] : values) {
    bool known = false;
    for (const auto& s : specs) known = known || name == s.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not catalogued\n",
                   name.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  return out.correct ? 0 : 1;
}
