#pragma once
// Output checks computed apart from the program: the Gray–Scott right-hand
// side and Jacobian action straight from the stencil formula, and the
// Dirichlet Laplacian action. Every check has a self-test that corrupts
// one entry of a correct output and requires the check to reject it.

#include <cstdint>
#include <vector>

namespace kb {

class RefPool;

/// Gray–Scott on an n x n periodic grid with interleaved (u, v) per node,
/// the parameters and spacing of the paper's evaluation problem.
struct GsProblem {
  std::int64_t n;
  double d1 = 8.0e-5, d2 = 4.0e-5, gamma = 0.024, kappa = 0.06;
  double domain = 2.5;
  std::int64_t size() const { return 2 * n * n; }
};

/// F(u) of the Gray–Scott system; `absf` (optional) gets a componentwise
/// magnitude bound of the terms summed, for rounding estimates.
void gs_rhs(const GsProblem& p, const double* state, double* f,
            double* absf = nullptr);

/// y = J_F(state) x and ay = |J_F(state)| |x|, from the stencil formula.
void gs_jacobian_action(const GsProblem& p, const double* state,
                        const double* x, double* y, double* ay,
                        RefPool* pool = nullptr);

/// y = A x and ay = |A| |x| for the 5-point Dirichlet Laplacian -∇² on an
/// nx x nx interior grid with spacing 1/(nx+1).
void laplacian_action(std::int64_t nx, const double* x, double* y,
                      double* ay, RefPool* pool = nullptr);

/// Componentwise bound |y - ŷ| <= (2 γ_k + extra) |A||x| (Higham's γ_k =
/// k u / (1 - k u), one γ for each of the two independent evaluations);
/// `extra` adds the fp32 unit roundoff for the fp32 value stream.
struct SpmvCheck {
  int k;         ///< terms per row (stored nonzeros plus slack)
  double extra;  ///< added relative error, 2^-24 for fp32 values
  /// Index of the first violating row, or -1.
  std::int64_t first_violation(const double* y, const double* yhat,
                               const double* ay, std::int64_t m) const;
  double bound(double ay) const;
};

/// A checked quantity and the most it may be.
struct Verdict {
  double value = 0.0;
  double allowed = 0.0;
  /// Negated so a NaN value fails.
  bool ok() const { return !(value > allowed) && value == value; }
  double ratio() const { return value / allowed; }
};

/// Crank–Nicolson step check: ‖u1 − u0 − dt/2 (F(u0) + F(u1))‖₂ must not
/// exceed Newton's stopping tolerance max(atol, rtol ‖dt F(u0)‖₂) plus the
/// rounding of this recomputation.
Verdict cn_step_check(const GsProblem& p, const std::vector<double>& u0,
                     const std::vector<double>& u1, double dt, double rtol,
                     double atol);

/// Krylov residual check: the true residual ‖b − A x‖₂, from ax = A x and
/// ay = |A||x| computed with a stencil, must agree with the residual the
/// solver reported: value is the gap. The solver's recursive residual
/// drifts by about one γ_k (|A||x| + |b|) per residual update; `k` is the
/// terms per row of A.
Verdict residual_check(const std::vector<double>& b,
                       const std::vector<double>& ax,
                       const std::vector<double>& ay, double reported,
                       int updates, int k);

/// residual_check of a CG solve of the nx x nx Dirichlet Laplacian.
Verdict cg_residual_check(std::int64_t nx, const std::vector<double>& b,
                         const std::vector<double>& x, double reported,
                         int iterations);

}  // namespace kb
