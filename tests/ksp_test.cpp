// Krylov solver tests, sequential and distributed.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "app/laplacian.hpp"
#include "ksp/context.hpp"
#include "mat/spgemm.hpp"
#include "ksp/ksp.hpp"
#include "par/parmat.hpp"
#include "pc/jacobi.hpp"
#include "test_matrices.hpp"

namespace kestrel::ksp {
namespace {

Vector make_rhs(const mat::Matrix& a, const Vector& x_true) {
  Vector b;
  a.spmv(x_true, b);
  return b;
}

Vector sinusoid(Index n) {
  Vector x(n);
  for (Index i = 0; i < n; ++i) x[i] = std::sin(0.1 * i + 1.0);
  return x;
}

TEST(Cg, SolvesSpdLaplacian) {
  const mat::Csr a = app::laplacian_dirichlet(16, 16);
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);
  Vector x(a.rows());

  Settings settings;
  settings.rtol = 1e-10;
  const Cg cg(settings);
  SeqContext ctx(a);
  const SolveResult res = cg.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.reason, Reason::kConvergedRtol);
  for (Index i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Cg, JacobiPreconditioningReducesIterations) {
  // Congruence-scale an SPD tridiagonal matrix (D A D stays SPD) so the
  // diagonal varies over orders of magnitude and Jacobi has work to do.
  std::vector<Scalar> d(50);
  Rng rng(13);
  for (auto& v : d) v = std::pow(10.0, rng.uniform(0.0, 1.5));
  mat::Coo coo(50, 50);
  for (Index i = 0; i < 50; ++i) {
    coo.add(i, i, 4.0 * d[i] * d[i]);
    if (i > 0) {
      coo.add(i, i - 1, -1.0 * d[i] * d[i - 1]);
      coo.add(i - 1, i, -1.0 * d[i - 1] * d[i]);
    }
  }
  const mat::Csr a = coo.to_csr();

  const Vector x_true = sinusoid(50);
  const Vector b = make_rhs(a, x_true);

  Settings settings;
  settings.rtol = 1e-8;
  const Cg cg(settings);

  Vector x0(50);
  SeqContext plain(a);
  const SolveResult res_plain = cg.solve(plain, b, x0);

  Vector x1(50);
  const pc::Jacobi jacobi(a);
  SeqContext pre(a, &jacobi);
  const SolveResult res_pre = cg.solve(pre, b, x1);

  EXPECT_TRUE(res_pre.converged);
  ASSERT_TRUE(res_plain.converged);
  EXPECT_LT(res_pre.iterations, res_plain.iterations);
}

TEST(Cg, ReportsBreakdownOnIndefiniteOperator) {
  mat::Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, -1.0);  // indefinite
  const mat::Csr a = coo.to_csr();
  Vector b{1.0, 1.0}, x(2);
  const Cg cg;
  SeqContext ctx(a);
  const SolveResult res = cg.solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, Reason::kDivergedBreakdown);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const mat::Csr a = testing::banded(80, {-3, 1, 7});  // nonsymmetric band
  const Vector x_true = sinusoid(80);
  const Vector b = make_rhs(a, x_true);
  Vector x(80);

  Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 500;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 80; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Gmres, RestartStillConverges) {
  const mat::Csr a = testing::banded(60, {-2, 1, 5});
  const Vector x_true = sinusoid(60);
  const Vector b = make_rhs(a, x_true);
  Vector x(60);

  Settings settings;
  settings.rtol = 1e-10;
  settings.gmres_restart = 5;  // force many restart cycles
  settings.max_iterations = 2000;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 60; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Gmres, MonitorSeesMonotoneResiduals) {
  const mat::Csr a = app::laplacian_dirichlet(8, 8);
  const Vector b(a.rows(), 1.0);
  Vector x(a.rows());
  std::vector<Scalar> history;
  Settings settings;
  settings.monitor = [&](int, Scalar rnorm) { history.push_back(rnorm); };
  const Gmres gmres(settings);
  SeqContext ctx(a);
  gmres.solve(ctx, b, x);
  ASSERT_GE(history.size(), 3u);
  for (std::size_t k = 1; k < history.size(); ++k) {
    EXPECT_LE(history[k], history[k - 1] * (1.0 + 1e-12));
  }
}

TEST(Gmres, MaxIterationsReported) {
  const mat::Csr a = app::laplacian_dirichlet(20, 20);
  const Vector b(a.rows(), 1.0);
  Vector x(a.rows());
  Settings settings;
  settings.rtol = 1e-14;
  settings.max_iterations = 3;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, Reason::kDivergedMaxIts);
}

/// Sequential context that counts operator and preconditioner applications.
class CountingContext final : public LinearContext {
 public:
  CountingContext(const mat::Matrix& a, const pc::Pc& pc) : a_(a), pc_(pc) {}
  Index local_size() const override { return a_.rows(); }
  void apply_operator(const Vector& x, Vector& y) override {
    ++operator_calls;
    a_.spmv(x, y);
  }
  void apply_pc(const Vector& r, Vector& z) override {
    ++pc_calls;
    pc_.apply(r, z);
  }

  int operator_calls = 0;
  int pc_calls = 0;

 private:
  const mat::Matrix& a_;
  const pc::Pc& pc_;
};

TEST(Gmres, PaysOneResidualPerRestartCycle) {
  // k iterations over c cycles: one multiply per Arnoldi step plus one
  // residual per cycle. GMRES preconditions both; FGMRES preconditions only
  // the Arnoldi directions. The first cycle reuses the residual that gave
  // the initial norm instead of recomputing it.
  const mat::Csr a = testing::banded(80, {-3, 1, 7});
  const Vector b = make_rhs(a, sinusoid(80));
  const pc::Jacobi jacobi(a);
  for (const std::string type : {"gmres", "fgmres"}) {
    Settings settings;
    settings.rtol = 1e-10;
    settings.gmres_restart = 4;
    const auto solver = make_solver(type, settings);
    CountingContext ctx(a, jacobi);
    Vector x(80);
    const SolveResult res = solver->solve(ctx, b, x);
    ASSERT_TRUE(res.converged) << type;
    const int k = res.iterations;
    const int c = (k + settings.gmres_restart - 1) / settings.gmres_restart;
    ASSERT_GE(c, 3) << type;
    EXPECT_EQ(ctx.operator_calls, k + c) << type;
    EXPECT_EQ(ctx.pc_calls, type == "gmres" ? k + c : k) << type;
  }
}

TEST(BiCgStab, SolvesNonsymmetricSystem) {
  const mat::Csr a = testing::banded(70, {-4, 1, 3});
  const Vector x_true = sinusoid(70);
  const Vector b = make_rhs(a, x_true);
  Vector x(70);
  Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 500;
  const BiCgStab solver(settings);
  SeqContext ctx(a);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 70; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Richardson, ConvergesWithJacobiOnDominantMatrix) {
  const mat::Csr a = testing::banded(40, {-1, 1});  // strongly diagonal
  const Vector x_true = sinusoid(40);
  const Vector b = make_rhs(a, x_true);
  Vector x(40);
  Settings settings;
  settings.rtol = 1e-10;
  settings.max_iterations = 2000;
  const Richardson solver(settings);
  const pc::Jacobi jacobi(a);
  SeqContext ctx(a, &jacobi);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 40; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Chebyshev, ConvergesWithSpectralBounds) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  SeqContext bare(a);
  const Scalar emax = estimate_max_eigenvalue(bare) * 1.1;
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);
  Vector x(a.rows());
  Settings settings;
  settings.rtol = 1e-9;
  settings.max_iterations = 3000;
  const Chebyshev solver(settings, emax / 30.0, emax);
  SeqContext ctx(a);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-4);
}

TEST(EstimateEigenvalue, LaplacianSpectralRadius) {
  // 2D Dirichlet Laplacian eigenvalues are known analytically:
  // lambda(p,q) = (4/h^2)(sin^2(p pi h / 2) + sin^2(q pi h / 2)).
  const Index n = 8;
  const mat::Csr a = app::laplacian_dirichlet(n, n);
  SeqContext ctx(a);
  const Scalar est = estimate_max_eigenvalue(ctx, 100);
  const Scalar h = 1.0 / (n + 1);
  const Scalar exact =
      (4.0 / (h * h)) * 2.0 * std::pow(std::sin(n * M_PI * h / 2.0), 2.0);
  EXPECT_NEAR(est, exact, 0.05 * exact);
}

TEST(SolverFactory, MakesAllTypes) {
  EXPECT_EQ(make_solver("cg")->name(), "cg");
  EXPECT_EQ(make_solver("gmres")->name(), "gmres");
  EXPECT_EQ(make_solver("bicgstab")->name(), "bicgstab");
  EXPECT_EQ(make_solver("richardson")->name(), "richardson");
  EXPECT_THROW(make_solver("nope"), Error);
}

TEST(ParallelKsp, CgMatchesSequentialSolution) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);

  // sequential reference
  Vector x_seq(a.rows());
  Settings settings;
  settings.rtol = 1e-10;
  const Cg cg(settings);
  SeqContext seq(a);
  ASSERT_TRUE(cg.solve(seq, b, x_seq).converged);

  for (int nranks : {2, 4}) {
    auto layout =
        std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
    par::Fabric::run(nranks, [&](par::Comm& comm) {
      const par::ParMatrix pa =
          par::ParMatrix::from_global(a, layout, comm, {});
      par::ParVector xb(layout, comm.rank());
      xb.set_from_global(b);
      Vector x_local(pa.local_rows());
      ParContext ctx(pa, comm);
      const SolveResult res = cg.solve(ctx, xb.local(), x_local);
      EXPECT_TRUE(res.converged);
      // compare against the sequential answer on the owned block
      const Index b0 = layout->begin(comm.rank());
      for (Index i = 0; i < x_local.size(); ++i) {
        EXPECT_NEAR(x_local[i], x_seq[b0 + i], 1e-6);
      }
    });
  }
}

TEST(ParallelKsp, GmresWithSellDiagAndJacobi) {
  const mat::Csr a = testing::banded(48, {-4, -1, 1, 4});
  const Vector x_true = sinusoid(48);
  const Vector b = make_rhs(a, x_true);
  auto layout = std::make_shared<par::Layout>(par::Layout::even(48, 3));
  par::Fabric::run(3, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.diag_format = par::DiagFormat::kSell;
    const par::ParMatrix pa =
        par::ParMatrix::from_global(a, layout, comm, opts);
    // local block-Jacobi preconditioner from the diagonal entries
    Vector diag_local;
    pa.get_diagonal(diag_local);
    par::ParVector xb(layout, comm.rank());
    xb.set_from_global(b);
    Vector x_local(pa.local_rows());
    Settings settings;
    settings.rtol = 1e-10;
    settings.max_iterations = 400;
    const Gmres gmres(settings);
    ParContext ctx(pa, comm);
    const SolveResult res = gmres.solve(ctx, xb.local(), x_local);
    EXPECT_TRUE(res.converged);
    const Index b0 = layout->begin(comm.rank());
    for (Index i = 0; i < x_local.size(); ++i) {
      EXPECT_NEAR(x_local[i], x_true[b0 + i], 1e-6);
    }
  });
}

}  // namespace
}  // namespace kestrel::ksp
