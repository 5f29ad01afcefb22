#include "numeric/nnls.hpp"

#include <algorithm>

namespace fluxfp::numeric {

double nnls_single(std::span<const double> f, std::span<const double> b) {
  // Serial accumulation, same order as numeric::dot on vectors.
  double ff = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ff += f[i] * f[i];
  }
  if (ff <= 0.0) {
    return 0.0;
  }
  double fb = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    fb += f[i] * b[i];
  }
  return std::max(0.0, fb / ff);
}

}  // namespace fluxfp::numeric
