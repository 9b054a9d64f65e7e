// Mixed-precision iterative refinement for the MAP system — the
// classical technique the paper's introduction anchors its framework
// to (Buttari et al. [9], Carson & Higham [10]): solve most of the
// problem with cheap low-precision operator actions, and recover
// double accuracy with a few high-precision residual evaluations.
//
//   loop:  r = b - H_double m          (high precision, 2 matvecs)
//          solve H_mixed dm = r by CG  (cheap mixed-precision inner)
//          m += dm
//   until ||r|| / ||b|| < tol.
//
// The inner solve runs at unit scale: r is divided by ||r|| before the
// CG and dm multiplied back after it.  The inner tolerance is relative,
// so the iteration is unchanged in exact arithmetic, but a late
// residual of norm 1e-10 or 1e-25 would otherwise push the float
// phases' products into the subnormal range, where the host runs up
// to ~3x slower and the low bits are lost.
#pragma once

#include <span>
#include <vector>

#include "blas/vector_ops.hpp"
#include "inverse/bayes.hpp"

namespace fftmv::inverse {

struct RefinementResult {
  index_t outer_iterations = 0;
  index_t inner_cg_iterations = 0;  ///< total across outer loops
  index_t double_matvecs = 0;       ///< F/F* actions in double
  index_t mixed_matvecs = 0;        ///< F/F* actions in mixed precision
  double residual_norm = 0.0;       ///< final relative residual
  bool converged = false;
};

/// Solve H m = b with mixed-precision inner CG and double-precision
/// residual refresh.  `hess_double` and `hess_mixed` must wrap the
/// same operator/prior/noise under different precision configs.
inline RefinementResult solve_with_refinement(
    const HessianOperator& hess_double, const HessianOperator& hess_mixed,
    std::span<const double> b, std::span<double> m, double rel_tolerance = 1e-10,
    index_t max_outer = 10, double inner_tolerance = 1e-4,
    index_t max_inner = 200) {
  const index_t n = static_cast<index_t>(b.size());
  RefinementResult result;

  std::vector<double> r(b.begin(), b.end());
  std::vector<double> dm(static_cast<std::size_t>(n));
  std::vector<double> hm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) m[i] = 0.0;

  const double b_norm = blas::nrm2<double>(n, b.data());
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }

  for (index_t outer = 0; outer < max_outer; ++outer) {
    const double r_norm = blas::nrm2<double>(n, r.data());
    if (r_norm == 0.0) {  // exact solution (only reachable with tolerance 0)
      result.converged = true;
      return result;
    }
    for (double& v : r) v /= r_norm;
    const index_t mixed_before = hess_mixed.matvec_count();
    const auto inner = conjugate_gradient(
        [&](std::span<const double> in, std::span<double> out) {
          hess_mixed.apply(in, out);
        },
        r, dm, inner_tolerance, max_inner);
    result.inner_cg_iterations += inner.iterations;
    result.mixed_matvecs += hess_mixed.matvec_count() - mixed_before;

    for (index_t i = 0; i < n; ++i) m[i] += r_norm * dm[static_cast<std::size_t>(i)];

    // High-precision residual refresh.
    const index_t double_before = hess_double.matvec_count();
    hess_double.apply(m, hm);
    result.double_matvecs += hess_double.matvec_count() - double_before;
    for (index_t i = 0; i < n; ++i) {
      r[static_cast<std::size_t>(i)] = b[i] - hm[static_cast<std::size_t>(i)];
    }
    result.outer_iterations = outer + 1;
    result.residual_norm = blas::nrm2<double>(n, r.data()) / b_norm;
    if (result.residual_norm < rel_tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

}  // namespace fftmv::inverse
