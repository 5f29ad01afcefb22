#pragma once

#include <span>

namespace fluxfp::numeric {

/// Closed-form single-column NNLS: min_{s>=0} ||s*f - b||.
/// Returns the optimal s (0 if f is zero or the unconstrained optimum is
/// negative). Fits of two or more columns solve their normal equations in
/// Gram space (core::nnls_from_gram).
double nnls_single(std::span<const double> f, std::span<const double> b);

}  // namespace fluxfp::numeric
