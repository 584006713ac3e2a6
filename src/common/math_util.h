// Numeric helpers: exact log-space binomial coefficients used by the
// compaction-probability model (paper §3.4).

#ifndef CORM_COMMON_MATH_UTIL_H_
#define CORM_COMMON_MATH_UTIL_H_

#include <math.h>  // lgamma_r

#include <cmath>
#include <cstdint>
#include <limits>

namespace corm {

// ln n!. lgamma_r, not std::lgamma: std::lgamma writes the global
// `signgam`, a data race when two nodes' compaction planners run at once.
inline double LogFactorial(uint64_t n) {
  int sign;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

// ln C(n, k); returns -inf when k > n (C = 0).
inline double LogBinomial(uint64_t n, uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

// C(n1, k) / C(n2, k) computed stably in log space. Returns 0 when the
// numerator is zero (k > n1).
inline double BinomialRatio(uint64_t n1, uint64_t n2, uint64_t k) {
  const double log_num = LogBinomial(n1, k);
  if (std::isinf(log_num)) return 0.0;
  return std::exp(log_num - LogBinomial(n2, k));
}

}  // namespace corm

#endif  // CORM_COMMON_MATH_UTIL_H_
