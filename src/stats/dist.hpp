// Probability distributions used by the hypothesis tests: normal, Student t,
// Fisher F, chi-squared.
#pragma once

namespace sagesim::stats {

/// Standard normal CDF.
double normal_cdf(double x);

/// Normal CDF with location/scale.
double normal_cdf(double x, double mean, double sd);

/// Student t CDF with @p df degrees of freedom.
double t_cdf(double x, double df);

/// Fisher F CDF with (@p df1, @p df2) degrees of freedom, x >= 0.
double f_cdf(double x, double df1, double df2);

/// Chi-squared CDF with @p df degrees of freedom, x >= 0.
double chi2_cdf(double x, double df);

/// Two-sided p-value for a standard-normal test statistic.
double two_sided_normal_p(double z);

}  // namespace sagesim::stats
