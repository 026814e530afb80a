#include "stats/dist.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/special.hpp"

namespace sagesim::stats {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / 1.4142135623730951); }

double normal_cdf(double x, double mean, double sd) {
  if (!(sd > 0.0)) throw std::domain_error("normal_cdf: sd must be > 0");
  return normal_cdf((x - mean) / sd);
}

double t_cdf(double x, double df) {
  if (!(df > 0.0)) throw std::domain_error("t_cdf: df must be > 0");
  const double t2 = x * x;
  const double p_tail =
      0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t2));
  return x >= 0.0 ? 1.0 - p_tail : p_tail;
}

double f_cdf(double x, double df1, double df2) {
  if (!(df1 > 0.0) || !(df2 > 0.0))
    throw std::domain_error("f_cdf: degrees of freedom must be > 0");
  if (x <= 0.0) return 0.0;
  return regularized_incomplete_beta(0.5 * df1, 0.5 * df2,
                                     df1 * x / (df1 * x + df2));
}

double chi2_cdf(double x, double df) {
  if (!(df > 0.0)) throw std::domain_error("chi2_cdf: df must be > 0");
  if (x <= 0.0) return 0.0;
  return regularized_lower_gamma(0.5 * df, 0.5 * x);
}

double two_sided_normal_p(double z) {
  return std::erfc(std::fabs(z) / 1.4142135623730951);
}

}  // namespace sagesim::stats
