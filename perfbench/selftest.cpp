// Self-tests of the benchmark's own machinery: the percentile function,
// metric-name and unit validity, step latencies from spans, and the slo_qps
// ladder search.  Run with `perfbench --self-test`; run.py runs them before
// every measurement.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

int g_checks = 0;
int g_failures = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::printf("SELF-TEST FAILED: %s\n", what.c_str());
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_quantile() {
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile({4, 1, 3, 2}, 0.0), 1.0), "q=0 is the minimum");
  expect(near(quantile({4, 1, 3, 2}, 1.0), 4.0), "q=1 is the maximum");
  expect(near(quantile({7}, 0.99), 7.0), "one sample is every quantile");
  std::vector<double> hundred;
  for (int i = 0; i <= 100; ++i) hundred.push_back(100 - i);
  expect(near(quantile(hundred, 0.99), 99.0), "p99 of 0..100 is 99");
  expect(near(quantile({0, 10}, 0.25), 2.5), "linear interpolation");
  expect(throws([] { quantile({}, 0.5); }), "empty sample throws");
  expect(throws([] { quantile({1}, 1.5); }), "q above 1 throws");
  expect(throws([] { quantile({1}, -0.1); }), "q below 0 throws");
  const LatencySummary s = summarize(hundred);
  expect(s.n == 101 && near(s.p50, 50.0) && near(s.p90, 90.0) &&
             near(s.p99, 99.0),
         "summarize reports count, p50, p90 and p99");
  expect(near(median_metrics({{{"a", 1}}, {{"a", 3}}, {{"a", 2}}})["a"], 2.0),
         "median_metrics takes per-key medians");
}

void test_metric_names() {
  expect(valid_metric_name("latency_p99_ms"), "plain name is valid");
  expect(valid_metric_name("rag.p99-ms_2"), "dots, dashes, digits valid");
  expect(!valid_metric_name(""), "empty name invalid");
  expect(!valid_metric_name("_x"), "leading underscore invalid");
  expect(!valid_metric_name(".x"), "leading dot invalid");
  expect(!valid_metric_name("a b"), "space invalid");
  expect(!valid_metric_name(std::string(65, 'a')), "65 letters invalid");
  expect(valid_metric_name(std::string(64, 'a')), "64 letters valid");
  expect(valid_unit("1/s") && valid_unit("%") && valid_unit("count"),
         "contract units valid");
  expect(!valid_unit("") && !valid_unit("m s") &&
             !valid_unit(std::string(17, 'u')),
         "bad units invalid");

  std::set<std::string> seen;
  bool has_setup = false;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *table) {
      const std::string name = m.name;
      expect(valid_metric_name(name), "catalogue name valid: " + name);
      expect(valid_unit(m.unit), "catalogue unit valid: " + name);
      expect(std::string(m.better) == "lower" ||
                 std::string(m.better) == "higher",
             "catalogue direction valid: " + name);
      expect(seen.insert(name).second, "catalogue name unique: " + name);
      if (name == "setup_s")
        has_setup = std::string(m.unit) == "s" &&
                    std::string(m.better) == "lower";
    }
  }
  expect(has_setup, "setup_s is an end-to-end metric in s, lower");
}

void test_step_latencies() {
  using sagesim::prof::TraceEvent;
  auto span = [](const char* name, double start, double dur, int worker) {
    TraceEvent e;
    e.name = name;
    e.start_s = start;
    e.duration_s = dur;
    e.counters["worker"] = worker;
    return e;
  };
  // Two lanes, two steps; step 1 starts at lane 1's compute (0.9) and ends
  // at lane 0's update (2.5).
  const std::vector<TraceEvent> spans = {
      span("fwd:0", 0.0, 0.5, 0), span("fwd:1", 0.1, 0.6, 1),
      span("sync", 0.7, 0.1, 1),  span("opt:0", 0.8, 0.1, 0),
      span("opt:1", 0.8, 0.2, 1), span("fwd:1", 0.9, 0.5, 1),
      span("fwd:0", 1.0, 0.5, 0), span("opt:1", 2.0, 0.1, 1),
      span("opt:0", 2.0, 0.5, 0),
  };
  const auto lat = step_latencies_s(spans, "fwd", "opt");
  expect(lat.size() == 2 && near(lat[0], 1.0) && near(lat[1], 1.6),
         "step latency spans first compute start to last update end");
  expect(near(span_seconds(spans, "fwd"), 2.1) && span_count(spans, "opt") == 4,
         "span sums and counts by prefix");
}

void test_ladder() {
  const auto ladder = geometric_ladder(100, 1000, 1.1);
  bool increasing = ladder.front() == 100;
  for (std::size_t i = 1; i < ladder.size(); ++i)
    increasing = increasing && ladder[i] > ladder[i - 1];
  expect(increasing && ladder.back() <= 1000 && ladder.back() * 1.1 > 1000,
         "geometric ladder spans [lo, hi] in increasing rungs");
  expect(throws([] { geometric_ladder(0, 10, 1.1); }) &&
             throws([] { geometric_ladder(10, 5, 1.1); }) &&
             throws([] { geometric_ladder(1, 5, 1.0); }),
         "degenerate ladders throw");

  for (std::size_t want = 0; want < ladder.size(); ++want) {
    int probes = 0;
    const double cap = ladder[want];
    const int got =
        ladder_search(ladder, [&](double r) { return r <= cap; }, &probes);
    expect(got == static_cast<int>(want),
           "ladder search finds rung " + std::to_string(want));
    expect(probes <= static_cast<int>(std::ceil(std::log2(ladder.size() + 1))),
           "ladder search is logarithmic");
  }
  expect(ladder_search(ladder, [](double) { return false; }) == -1,
         "no rung meets: -1");
  expect(ladder_search(ladder, [](double) { return true; }) ==
             static_cast<int>(ladder.size()) - 1,
         "every rung meets: the top rung");
}

}  // namespace

int run_self_tests() {
  test_quantile();
  test_metric_names();
  test_step_latencies();
  test_ladder();
  std::printf("self-test: %d/%d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
