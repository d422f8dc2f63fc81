// Restarted GMRES with modified Gram–Schmidt orthogonalization and
// Givens-rotation least squares — the workhorse solver in the paper's
// experiments (-ksp_type gmres is PETSc's default). One engine serves both
// preconditioning sides, fixed by the concrete solver type:
//  - Gmres, left: Arnoldi on M^{-1}A from the preconditioned residual
//    M^{-1}(b - A x); x is updated from the Krylov basis V.
//  - FGmres, flexible right (Saad 1993): stores z_j = M^{-1} v_j, so the
//    preconditioner may change between iterations (an inner iterative
//    solve, an adaptive multigrid cycle); the residual is unpreconditioned
//    and x is updated from Z. PETSc exposes it as -ksp_type fgmres.

#include <cmath>
#include <vector>

#include "base/error.hpp"
#include "ksp/ksp.hpp"

namespace kestrel::ksp {

SolveResult RestartedGmres::solve_once(LinearContext& ctx, const Vector& b,
                                       Vector& x) const {
  const Index n = ctx.local_size();
  KESTREL_CHECK(b.size() == n, name() + ": rhs size mismatch");
  KESTREL_CHECK(x.size() == n, name() + ": solution size mismatch");
  KESTREL_CHECK(settings_.gmres_restart >= 1,
                name() + ": restart must be >= 1");
  const auto m = static_cast<std::size_t>(settings_.gmres_restart);
  const bool flexible = side_ == Side::kFlexibleRight;
  SolveResult result;

  Vector r(n), w(n), t(n);
  std::vector<Vector> v(m + 1);             // Krylov basis
  std::vector<Vector> z(flexible ? m : 0);  // FGmres: z_j = M^{-1} v_j
  // Hessenberg columns h[j][i], rotated in place into R; Givens terms; the
  // rotated right-hand side g and the least-squares solution y.
  std::vector<std::vector<Scalar>> h(m, std::vector<Scalar>(m + 1, 0.0));
  std::vector<Scalar> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0), y(m, 0.0);
  std::vector<const Vector*> dirs(m);

  // r = b - A x (left: M^{-1}(b - A x)); returns its norm.
  auto residual = [&] {
    Vector& u = flexible ? r : t;
    ctx.apply_operator(x, u);
    u.aypx(-1.0, b);
    if (!flexible) ctx.apply_pc(t, r);
    return ctx.norm2(r);
  };

  // The first cycle starts from this residual; later cycles recompute it
  // from the updated iterate.
  Scalar beta = residual();
  const Scalar rnorm0 = beta;
  if (check(rnorm0, rnorm0, 0, &result)) return result;

  int total_it = 0;
  while (true) {
    if (beta == 0.0) {
      result.converged = true;
      result.reason = Reason::kConvergedAtol;
      result.iterations = total_it;
      result.residual_norm = 0.0;
      return result;
    }
    v[0].copy_from(r);
    v[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t k = 0;  // completed Arnoldi steps this cycle
    bool done = false;
    for (std::size_t j = 0; j < m; ++j) {
      ++total_it;
      if (flexible) {  // z_j = M^{-1} v_j, w = A z_j
        ctx.apply_pc(v[j], z[j]);
        ctx.apply_operator(z[j], w);
      } else {  // w = M^{-1} A v_j
        ctx.apply_operator(v[j], t);
        ctx.apply_pc(t, w);
      }
      auto& col = h[j];
      for (std::size_t i = 0; i <= j; ++i) {  // modified Gram–Schmidt
        col[i] = ctx.dot(w, v[i]);
        w.axpy(-col[i], v[i]);
      }
      const Scalar hlast = ctx.norm2(w);
      col[j + 1] = hlast;

      // apply the previous Givens rotations to the new column
      for (std::size_t i = 0; i < j; ++i) {
        const Scalar tmp = cs[i] * col[i] + sn[i] * col[i + 1];
        col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
        col[i] = tmp;
      }
      // new rotation to annihilate the subdiagonal
      const Scalar denom = std::hypot(col[j], col[j + 1]);
      if (!std::isfinite(denom)) {
        // A NaN/Inf Hessenberg entry (poisoned operator or dot product)
        // would silently corrupt every later rotation; surface it now.
        result.converged = false;
        result.reason = Reason::kDivergedNan;
        result.iterations = total_it;
        result.residual_norm = denom;
        return result;
      }
      cs[j] = denom == 0.0 ? 1.0 : col[j] / denom;
      sn[j] = denom == 0.0 ? 0.0 : col[j + 1] / denom;
      col[j] = denom;
      col[j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      k = j + 1;
      done = check(std::abs(g[j + 1]), rnorm0, total_it, &result);
      // Stop on convergence/failure or a lucky breakdown (hlast == 0: the
      // Krylov space is invariant), then solve and update x.
      if (done || hlast == 0.0) break;
      v[j + 1].copy_from(w);
      v[j + 1].scale(1.0 / hlast);
    }

    // back substitution: y = R^{-1} g (upper triangular k x k)
    for (std::size_t i = k; i-- > 0;) {
      Scalar sum = g[i];
      for (std::size_t l = i + 1; l < k; ++l) sum -= h[l][i] * y[l];
      if (h[i][i] == 0.0) {
        result.converged = false;
        result.reason = Reason::kDivergedBreakdown;
        result.iterations = total_it;
        return result;
      }
      y[i] = sum / h[i][i];
    }
    // x += V y (left) or Z y (flexible): one fused VecMAXPY pass over x
    for (std::size_t i = 0; i < k; ++i) dirs[i] = flexible ? &z[i] : &v[i];
    x.maxpy(k, y.data(), dirs.data());

    if (done) return result;
    beta = residual();
  }
}

}  // namespace kestrel::ksp
