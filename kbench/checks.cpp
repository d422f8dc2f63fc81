#include "checks.hpp"

#include <cmath>
#include <functional>
#include <limits>

#include "bench.hpp"

namespace kb {

namespace {

constexpr double kU = std::numeric_limits<double>::epsilon() / 2;

double gamma_k(int k) { return k * kU / (1.0 - k * kU); }

std::int64_t wrap(std::int64_t i, std::int64_t n) { return (i % n + n) % n; }

/// Runs body(r0, r1) over row ranges, threaded when a pool is given.
void over_rows(RefPool* pool, std::int64_t m,
               const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (pool == nullptr) {
    body(0, m);
    return;
  }
  pool->run(pool->size(), [&](int t, int nt) {
    const auto [lo, hi] = part(static_cast<std::size_t>(m), t, nt);
    body(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
  });
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace

void gs_rhs(const GsProblem& p, const double* s, double* f, double* absf) {
  const std::int64_t n = p.n;
  const double h = p.domain / static_cast<double>(n);
  const double c = 1.0 / (h * h);  // square grid: cx == cy
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t me = 2 * (j * n + i);
      const std::int64_t w = 2 * (j * n + wrap(i - 1, n));
      const std::int64_t e = 2 * (j * n + wrap(i + 1, n));
      const std::int64_t so = 2 * (wrap(j - 1, n) * n + i);
      const std::int64_t no = 2 * (wrap(j + 1, n) * n + i);
      const double u = s[me], v = s[me + 1];
      const double lu = c * (s[w] + s[e] + s[so] + s[no] - 4.0 * u);
      const double lv =
          c * (s[w + 1] + s[e + 1] + s[so + 1] + s[no + 1] - 4.0 * v);
      const double uvv = u * v * v;
      f[me] = p.d1 * lu - uvv + p.gamma * (1.0 - u);
      f[me + 1] = p.d2 * lv + uvv - (p.gamma + p.kappa) * v;
      if (absf != nullptr) {
        const double au = c * (std::abs(s[w]) + std::abs(s[e]) +
                               std::abs(s[so]) + std::abs(s[no]) +
                               4.0 * std::abs(u));
        const double av = c * (std::abs(s[w + 1]) + std::abs(s[e + 1]) +
                               std::abs(s[so + 1]) + std::abs(s[no + 1]) +
                               4.0 * std::abs(v));
        absf[me] = p.d1 * au + std::abs(uvv) + p.gamma * (1.0 + std::abs(u));
        absf[me + 1] =
            p.d2 * av + std::abs(uvv) + (p.gamma + p.kappa) * std::abs(v);
      }
    }
  }
}

void gs_jacobian_action(const GsProblem& p, const double* s, const double* x,
                        double* y, double* ay, RefPool* pool) {
  const std::int64_t n = p.n;
  const double h = p.domain / static_cast<double>(n);
  const double c = 1.0 / (h * h);
  over_rows(pool, n, [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t me = 2 * (j * n + i);
        const std::int64_t nb[4] = {2 * (j * n + wrap(i - 1, n)),
                                    2 * (j * n + wrap(i + 1, n)),
                                    2 * (wrap(j - 1, n) * n + i),
                                    2 * (wrap(j + 1, n) * n + i)};
        const double u = s[me], v = s[me + 1];
        // Row coefficients of the u and v equations at this node.
        const double uu = -2.0 * p.d1 * (c + c) - v * v - p.gamma;
        const double uv = -2.0 * u * v;
        const double vu = v * v;
        const double vv =
            -2.0 * p.d2 * (c + c) + 2.0 * u * v - (p.gamma + p.kappa);
        double yu = uu * x[me] + uv * x[me + 1];
        double yv = vu * x[me] + vv * x[me + 1];
        double au = std::abs(uu * x[me]) + std::abs(uv * x[me + 1]);
        double av = std::abs(vu * x[me]) + std::abs(vv * x[me + 1]);
        for (std::int64_t k : nb) {
          yu += p.d1 * c * x[k];
          yv += p.d2 * c * x[k + 1];
          au += p.d1 * c * std::abs(x[k]);
          av += p.d2 * c * std::abs(x[k + 1]);
        }
        y[me] = yu;
        y[me + 1] = yv;
        ay[me] = au;
        ay[me + 1] = av;
      }
    }
  });
}

void laplacian_action(std::int64_t nx, const double* x, double* y, double* ay,
                      RefPool* pool) {
  const double h = 1.0 / static_cast<double>(nx + 1);
  const double c = 1.0 / (h * h);
  over_rows(pool, nx, [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      for (std::int64_t i = 0; i < nx; ++i) {
        const std::int64_t r = j * nx + i;
        double s = 4.0 * c * x[r];
        double a = std::abs(s);
        if (i > 0) s -= c * x[r - 1], a += c * std::abs(x[r - 1]);
        if (i < nx - 1) s -= c * x[r + 1], a += c * std::abs(x[r + 1]);
        if (j > 0) s -= c * x[r - nx], a += c * std::abs(x[r - nx]);
        if (j < nx - 1) s -= c * x[r + nx], a += c * std::abs(x[r + nx]);
        y[r] = s;
        if (ay != nullptr) ay[r] = a;
      }
    }
  });
}

double SpmvCheck::bound(double ay) const {
  return (2.0 * gamma_k(k) + extra) * ay +
         std::numeric_limits<double>::min();
}

std::int64_t SpmvCheck::first_violation(const double* y, const double* yhat,
                                        const double* ay,
                                        std::int64_t m) const {
  for (std::int64_t i = 0; i < m; ++i) {
    // Negated so a NaN in y fails too.
    if (!(std::abs(y[i] - yhat[i]) <= bound(ay[i]))) return i;
  }
  return -1;
}

Verdict cn_step_check(const GsProblem& p, const std::vector<double>& u0,
                     const std::vector<double>& u1, double dt, double rtol,
                     double atol) {
  const std::size_t m = u0.size();
  std::vector<double> f0(m), f1(m), a0(m), a1(m), r(m), s(m);
  gs_rhs(p, u0.data(), f0.data(), a0.data());
  gs_rhs(p, u1.data(), f1.data(), a1.data());
  double fn = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    r[i] = u1[i] - u0[i] - 0.5 * dt * (f0[i] + f1[i]);
    s[i] = std::abs(u1[i]) + std::abs(u0[i]) + 0.5 * dt * (a0[i] + a1[i]);
    fn += (dt * f0[i]) * (dt * f0[i]);
  }
  // Newton stops at ‖G(u1)‖ <= max(atol, rtol ‖G(u0)‖) with G(u0) = −dt F(u0);
  // both the solver's G and this one round by at most γ_16 of s each.
  const double allowed =
      std::max(atol, rtol * std::sqrt(fn)) + 2.0 * gamma_k(16) * norm2(s);
  return {norm2(r), allowed};
}

Verdict residual_check(const std::vector<double>& b,
                       const std::vector<double>& ax,
                       const std::vector<double>& ay, double reported,
                       int updates, int k) {
  const std::size_t m = b.size();
  std::vector<double> r(m);
  for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - ax[i];
  const double truth = norm2(r);
  const double allowed =
      0.01 * reported + gamma_k(k) * updates * (norm2(ay) + norm2(b));
  return {std::abs(truth - reported), allowed};
}

Verdict cg_residual_check(std::int64_t nx, const std::vector<double>& b,
                         const std::vector<double>& x, double reported,
                         int iterations) {
  const std::size_t m = b.size();
  std::vector<double> ax(m), ay(m);
  laplacian_action(nx, x.data(), ax.data(), ay.data());
  return residual_check(b, ax, ay, reported, iterations + 1, 8);
}

}  // namespace kb
