// The kbench program. One process runs one workload from a seed:
//
//   kbench --workload spmv-dram|gray-scott|halo-cg --seed N --seconds T
//          --trace 0|1 [--out DIR]
//   kbench --self-test      (every output check must reject a corrupted
//                            output and accept a correct one)
//   kbench --calibrate      (measures the nominal reference speeds)
//
// Every timed unit of program work is bracketed by a benchmark-owned
// reference kernel of the same resource class, and each metric is the
// median over the run of (program time / adjacent reference time) times
// the reference's nominal time (README.md, "Nominal references"). The last
// stdout line is one JSON object; run.py adds the Scope-export metrics of
// traced runs and prints the final result.

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/gray_scott.hpp"
#include "app/laplacian.hpp"
#include "base/options.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "ksp/context.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/spgemm.hpp"
#include "mat/talon.hpp"
#include "par/parmat.hpp"
#include "pc/mg.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "ts/theta.hpp"

namespace kb {

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace kb

using namespace kestrel;

namespace {

// ---- nominal reference speeds ----------------------------------------------
// The speed at which each reference kernel is taken to run when converting a
// paired ratio back to seconds or Gflop/s. Measured in wall time on the
// 4-vCPU host the README describes with `kbench --calibrate`; they are fixed
// constants, not re-measured, so a paired metric moves only when the program
// does.
constexpr double kTriadDram1tGbs = 12.4;
constexpr double kTriadDramTnGbs = 28.9;
constexpr double kCsrGs1tGflops = 1.5;
constexpr double kCsrGsTnGflops = 6.0;
constexpr double kCsrLap1tGflops = 1.7;
constexpr double kCsrLapTnGflops = 4.8;
constexpr double kSellGs1tGflops = 2.1;
constexpr double kSellGsTnGflops = 9.4;
constexpr double kSellLap1tGflops = 2.5;
constexpr double kSellLapTnGflops = 9.4;
constexpr double kKrylovGs1tGflops = 1.5;
constexpr double kCgLapTnGflops = 5.4;

constexpr double kFp32Unit = 0x1.0p-24;

// ---- workload geometry ---------------------------------------------------------
constexpr Index kDramN = 1280;    ///< Gray–Scott grid of spmv-dram
constexpr Index kGsN = 256;       ///< Gray–Scott grid of gray-scott
constexpr Index kLapN = 256;      ///< Laplacian grid of halo-cg
constexpr int kGsLevels = 3;      ///< MG levels (coarsest 64², 8192 rows)
constexpr int kGsBlockSteps = 2;  ///< K: steps per restart of gray-scott
constexpr double kCgRtol = 1e-6;
constexpr int kDramSolveIts = 2;  ///< BiCGStab iterations of spmv-dram's solve

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  bool self_test = false;
  bool calibrate = false;
};

/// Result accumulator: metrics in print order, raw reference figures, and
/// the attempted/failed operation counts.
struct Out {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> raw;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< cross-check failures (not counted)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& name, double value) {
    raw.push_back({name, value});
  }
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 5) std::fprintf(stderr, "kbench: check failed: %s\n",
                                    what.c_str());
    }
  }
};

/// Raw figures of one cold set-up: wall and CPU seconds, and whether its
/// window was stolen (a cold set-up cannot be done again, so it is kept).
void note_setup(const kb::Bracketed& b, Out& out) {
  out.note("raw_setup_s", b.t);
  out.note("raw_cpu_setup_s", b.cpu);
  out.note("stolen.setup", b.stolen ? 1.0 : 0.0);
}

/// Raw figures of a series of solves.
void note_solves(const kb::Series& s, Out& out) {
  out.note("raw_solve_s", s.raw_wall_s());
  out.note("raw_cpu_solve_s", s.raw_cpu_s());
  out.note("samples.solve", static_cast<double>(s.size()));
  out.note("stolen.solve", static_cast<double>(s.size() - s.kept()));
}

int nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void set_threads(int t) { Options::global().set("threads", std::to_string(t)); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<double> seeded_vector(std::int64_t m, kb::Rng& rng, double lo,
                                  double hi) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

Vector to_vector(const std::vector<double>& v) {
  Vector out(static_cast<Index>(v.size()));
  std::copy(v.begin(), v.end(), out.data());
  return out;
}

/// A Gray–Scott state with u in [0.3, 1) and v in [0, 0.4) per node: the
/// point at which spmv-dram and the multiply phases take the Jacobian.
std::vector<double> seeded_gs_state(Index n, kb::Rng& rng) {
  std::vector<double> s(static_cast<std::size_t>(2 * n * n));
  for (std::size_t k = 0; k < s.size(); k += 2) {
    s[k] = rng.uniform(0.3, 1.0);
    s[k + 1] = rng.uniform(0.0, 0.4);
  }
  return s;
}

/// gray-scott's start state: u = 1, v = 0 outside the centred square of a
/// quarter of the domain edge; inside, u = 1/2 and v = 1/4 with a seeded
/// perturbation of up to ±0.05 per node.
std::vector<double> seeded_gs_start(const kb::GsProblem& p, kb::Rng& rng) {
  std::vector<double> s(static_cast<std::size_t>(p.size()));
  for (std::int64_t j = 0; j < p.n; ++j) {
    for (std::int64_t i = 0; i < p.n; ++i) {
      const std::size_t k = static_cast<std::size_t>(2 * (j * p.n + i));
      const bool inside = 8 * i >= 3 * p.n && 8 * i < 5 * p.n &&
                          8 * j >= 3 * p.n && 8 * j < 5 * p.n;
      const double w = rng.uniform(-0.05, 0.05);
      s[k] = inside ? 0.5 + w : 1.0;
      s[k + 1] = inside ? 0.25 - w : 0.0;
    }
  }
  return s;
}

/// Benchmark-owned sparsity patterns for the CSR references: the
/// Gray–Scott Jacobian's 2x2 blocks at the five stencil nodes (10 per row)
/// and the Dirichlet Laplacian's 5-point rows.
kb::PlainCsr gs_pattern(std::int64_t n) {
  kb::PlainCsr a;
  a.m = a.n = 2 * n * n;
  a.rowptr.push_back(0);
  auto node = [n](std::int64_t i, std::int64_t j) {
    return ((j + n) % n) * n + (i + n) % n;
  };
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < n; ++i) {
      std::vector<std::int64_t> nodes = {node(i, j - 1), node(i - 1, j),
                                         node(i, j), node(i + 1, j),
                                         node(i, j + 1)};
      std::sort(nodes.begin(), nodes.end());
      for (int c = 0; c < 2; ++c) {
        for (std::int64_t q : nodes) {
          a.col.push_back(static_cast<std::int32_t>(2 * q));
          a.col.push_back(static_cast<std::int32_t>(2 * q + 1));
          a.val.push_back(0.25);
          a.val.push_back(-0.125);
        }
        a.rowptr.push_back(static_cast<std::int64_t>(a.col.size()));
      }
    }
  }
  return a;
}

kb::PlainCsr laplacian_pattern(std::int64_t nx) {
  kb::PlainCsr a;
  a.m = a.n = nx * nx;
  a.rowptr.push_back(0);
  for (std::int64_t j = 0; j < nx; ++j) {
    for (std::int64_t i = 0; i < nx; ++i) {
      const std::int64_t r = j * nx + i;
      auto add = [&](std::int64_t c, double v) {
        a.col.push_back(static_cast<std::int32_t>(c));
        a.val.push_back(v);
      };
      if (j > 0) add(r - nx, -1.0);
      if (i > 0) add(r - 1, -1.0);
      add(r, 4.0);
      if (i < nx - 1) add(r + 1, -1.0);
      if (j < nx - 1) add(r + nx, -1.0);
      a.rowptr.push_back(static_cast<std::int64_t>(a.col.size()));
    }
  }
  return a;
}

/// gray-scott's reference: a plain CSR multiply of the 256² Jacobian
/// pattern plus a 30-vector Gram–Schmidt sweep (GMRES's restart length),
/// one thread.
std::unique_ptr<kb::Reference> gs_reference() {
  return std::make_unique<kb::KrylovReference>(gs_pattern(kGsN), 30, 1,
                                               kKrylovGs1tGflops);
}

/// halo-cg's reference: 20 CG-shaped iterations on the 256² Laplacian
/// pattern over nproc threads.
std::unique_ptr<kb::Reference> cg_reference(kb::RefPool& pool) {
  return std::make_unique<kb::CgReference>(pool, nproc(),
                                           laplacian_pattern(kLapN), 20,
                                           kCgLapTnGflops);
}

/// The 1-thread and nproc-thread references a workload's multiplies are
/// paired with, and at cache scale the SELL-shaped ones its end-to-end
/// multiplies are paired with (null where t1 and tn serve).
struct RefPair {
  std::unique_ptr<kb::Reference> t1, tn;
  std::unique_ptr<kb::Reference> sell_t1, sell_tn;
  kb::Reference& sell1() const { return sell_t1 ? *sell_t1 : *t1; }
  kb::Reference& selln() const { return sell_tn ? *sell_tn : *tn; }
};

// ---- multiply phases -----------------------------------------------------------

/// One operator under test in a multiply phase, with its output check.
struct SpmvCase {
  std::string name;
  std::shared_ptr<mat::Matrix> a;
  kb::SpmvCheck check;
  int reps = 1;  ///< multiplies per timed sample
  kb::Series series;
  Vector y;
};

/// The operator a workload multiplies, with its independent action.
struct Operator {
  std::shared_ptr<mat::Csr> csr;
  Vector x;
  std::vector<double> yhat, ay;  ///< stencil A x and |A||x|
  int terms = 16;                ///< k of the componentwise bound
};

/// Paired sampling: ref, case0, ref, case1, ref, ... in whole rounds until
/// the budget is spent and every case has min_rounds pairs whose window
/// (the two reference samples and the multiplies between them) was not
/// stolen; at most 3 x min_rounds rounds past the budget. Each sample's
/// output is checked against the stencil action after the next reference
/// sample, outside every timed region.
void run_multiplies(kb::Reference& ref, std::vector<SpmvCase*> cases,
                    const Operator& op, double budget, int min_rounds,
                    Out& out) {
  for (SpmvCase* c : cases) {  // warm: pool threads, pages, caches
    c->y.resize(c->a->rows());
    c->a->spmv(op.x.data(), c->y.data());
  }
  const double t_end = kb::now() + budget;
  auto enough = [&] {
    for (const SpmvCase* c : cases) {
      if (c->series.kept() < static_cast<std::size_t>(min_rounds)) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> times(64), cpus(64);
  kb::StealWindow window;
  double prev = ref.sample();
  for (int round = 0;; ++round) {
    if (round >= min_rounds && kb::now() >= t_end &&
        (enough() || round >= 3 * min_rounds)) {
      break;
    }
    for (SpmvCase* c : cases) {
      // reps x the median multiply, after one untimed multiply when
      // reps > 1, as the references take their samples.
      for (int r = c->reps > 1 ? -1 : 0; r < c->reps; ++r) {
        const double c0 = kb::cpu_now();
        const double t0 = kb::now();
        c->a->spmv(op.x.data(), c->y.data());
        if (r < 0) continue;
        times[static_cast<std::size_t>(r)] = kb::now() - t0;
        cpus[static_cast<std::size_t>(r)] = kb::cpu_now() - c0;
      }
      auto reps_median = [&](const std::vector<double>& v) {
        return kb::median({v.begin(), v.begin() + c->reps}) * c->reps;
      };
      kb::StealWindow next_window;
      const double next = ref.sample();
      c->series.add(reps_median(times), prev, next, reps_median(cpus),
                    window.stolen());
      prev = next;
      window = next_window;
      const std::int64_t bad = c->check.first_violation(
          c->y.data(), op.yhat.data(), op.ay.data(), c->a->rows());
      out.op(bad < 0, c->name + " multiply, row " + std::to_string(bad));
    }
  }
}

double gflops(const SpmvCase& c, const kb::Reference& ref) {
  const double flops = 2.0 * static_cast<double>(c.a->nnz()) * c.reps;
  return flops / c.series.paired_s(ref.nominal_s()) / 1e9;
}

/// Gflop/s in wall time, unpaired.
double raw_gflops(const SpmvCase& c) {
  return 2.0 * static_cast<double>(c.a->nnz()) * c.reps /
         c.series.raw_wall_s() / 1e9;
}

/// Program-modelled bytes/s at the reference's nominal speed over the
/// nominal DRAM triad bytes/s on as many threads. On spmv-dram, whose
/// reference is that triad, this is bytes/s over the paired triad's.
double triad_frac(const SpmvCase& c, const kb::Reference& ref,
                  double triad_gbs) {
  const double bytes =
      static_cast<double>(c.a->spmv_traffic_bytes()) * c.reps;
  return bytes / c.series.paired_s(ref.nominal_s()) / (triad_gbs * 1e9);
}

void build_check_data(Operator& op, const std::function<void(
                                        const double*, double*, double*)>& f) {
  const std::size_t m = static_cast<std::size_t>(op.csr->rows());
  op.yhat.assign(m, 0.0);
  op.ay.assign(m, 0.0);
  f(op.x.data(), op.yhat.data(), op.ay.data());
}

/// Program multiplies per timed sample at 1 / nproc threads, and the
/// fewest kept pairs per case.
struct MultiplyPlan {
  int reps1, repsn;
  int min_rounds;
};

MultiplyPlan plan_for(const std::string& workload) {
  if (workload == "spmv-dram") return {1, 1, 3};
  if (workload == "gray-scott") return {4, 12, 5};
  return {16, 40, 5};
}

/// Triads over three 96 MiB arrays (DRAM, 3x the shared L3), first-touched
/// once and shared by the 1-thread and nproc-thread references.
RefPair make_triads(kb::RefPool& pool) {
  auto arrays = std::make_shared<kb::TriadArrays>(pool, 12u << 20);
  return {std::make_unique<kb::Triad>(pool, arrays, 1, 1, kTriadDram1tGbs),
          std::make_unique<kb::Triad>(pool, arrays, pool.size(), 1,
                                      kTriadDramTnGbs)};
}

/// The references of a workload's multiplies and conversions. At DRAM
/// scale SpMV is bandwidth-bound and pairs with the triads; at cache scale
/// it pairs with a plain CSR multiply of the same pattern on as many
/// threads (an L3-resident triad follows neighbours' cache use more than
/// an SpMV does). The end-to-end multiplies pair with a SELL multiply of
/// that pattern instead: the host's speed modes move the program's
/// gathering kernels more than a scalar CSR loop (README, "Nominal
/// references").
RefPair multiply_refs(kb::RefPool& pool, const std::string& workload) {
  if (workload == "spmv-dram") return make_triads(pool);
  RefPair r;
  if (workload == "gray-scott") {
    const kb::PlainCsr a = gs_pattern(kGsN);
    r.t1 = std::make_unique<kb::CsrReference>(pool, 1, a, 2, kCsrGs1tGflops);
    r.tn = std::make_unique<kb::CsrReference>(pool, pool.size(), a, 8,
                                              kCsrGsTnGflops);
    r.sell_t1 = std::make_unique<kb::SellReference>(pool, 1, a, 4,
                                                    kSellGs1tGflops);
    r.sell_tn = std::make_unique<kb::SellReference>(pool, pool.size(), a, 12,
                                                    kSellGsTnGflops);
    return r;
  }
  const kb::PlainCsr a = laplacian_pattern(kLapN);
  r.t1 = std::make_unique<kb::CsrReference>(pool, 1, a, 6, kCsrLap1tGflops);
  r.tn = std::make_unique<kb::CsrReference>(pool, pool.size(), a, 20,
                                            kCsrLapTnGflops);
  r.sell_t1 = std::make_unique<kb::SellReference>(pool, 1, a, 16,
                                                  kSellLap1tGflops);
  r.sell_tn = std::make_unique<kb::SellReference>(pool, pool.size(), a, 40,
                                                  kSellLapTnGflops);
  return r;
}

/// The four end-to-end multiply metrics on a workload's operator: fat CSR,
/// fat SELL and fp32-stream SELL at nproc threads (paired with the nproc
/// references), then fat SELL at one thread (1-thread SELL reference).
void e2e_multiplies(const Operator& op, std::shared_ptr<mat::Csr> csr,
                      std::shared_ptr<mat::Sell> sell,
                      std::shared_ptr<mat::Sell> sell32,
                      const RefPair& refs, const MultiplyPlan& plan,
                      double budget, Out& out) {
  const kb::SpmvCheck fat{op.terms, 0.0};
  const kb::SpmvCheck fp32{op.terms, kFp32Unit};
  // A matrix copied while one thread was set keeps a one-part partition.
  for (const auto& m : {std::static_pointer_cast<mat::Matrix>(csr),
                        std::static_pointer_cast<mat::Matrix>(sell),
                        std::static_pointer_cast<mat::Matrix>(sell32)}) {
    m->repartition(nproc());
  }
  SpmvCase c_csr{"csr/tN", csr, fat, plan.repsn, {}, {}};
  SpmvCase c_sell{"sell/tN", sell, fat, plan.repsn, {}, {}};
  SpmvCase c_s32{"sell_fp32/tN", sell32, fp32, plan.repsn, {}, {}};
  run_multiplies(refs.selln(), {&c_csr, &c_sell, &c_s32}, op, 0.55 * budget,
                 plan.min_rounds, out);

  set_threads(1);
  sell->repartition(1);
  SpmvCase c_s1{"sell/t1", sell, fat, plan.reps1, {}, {}};
  run_multiplies(refs.sell1(), {&c_s1}, op, 0.45 * budget, plan.min_rounds,
                 out);
  set_threads(nproc());
  sell->repartition(nproc());

  out.metric("spmv_csr_gflops", gflops(c_csr, refs.selln()), "GF/s");
  out.metric("spmv_sell_gflops", gflops(c_sell, refs.selln()), "GF/s");
  out.metric("spmv_sell_1t_gflops", gflops(c_s1, refs.sell1()), "GF/s");
  out.metric("spmv_sell_fp32_gflops", gflops(c_s32, refs.selln()), "GF/s");
  for (const SpmvCase* c : {&c_csr, &c_sell, &c_s1, &c_s32}) {
    out.note("raw_gflops." + c->name, raw_gflops(*c));
    out.note("raw_cpu_s." + c->name, c->series.raw_cpu_s() / c->reps);
    out.note("samples." + c->name, static_cast<double>(c->series.size()));
    out.note("stolen." + c->name,
             static_cast<double>(c->series.size() - c->series.kept()));
  }
  // Reference speed in GB/s (triads) or Gflop/s (CSR, SELL multiplies).
  out.note("raw_ref_rate.t1",
           refs.sell1().work() / c_s1.series.ref_s() / 1e9);
  out.note("raw_ref_rate.tN",
           refs.selln().work() / c_sell.series.ref_s() / 1e9);
}

/// spmv-dram's solve: kDramSolveIts BiCGStab iterations (rtol 0, so every
/// solve does all of them) on the nproc-thread SELL Jacobian from x = 0,
/// repeated until `budget` (and until 3 solves were not stolen, at most
/// 3 x budget), each paired with the nproc triad (median of 3 samples on
/// each side) and its residual checked against the stencil action.
kb::Series dram_solves(const kb::GsProblem& p,
                       const std::vector<double>& state, const mat::Sell& a,
                       const std::vector<double>& b, kb::Reference& ref,
                       kb::RefPool& pool, double budget, Out& out) {
  ksp::Settings settings;
  settings.rtol = 0.0;
  settings.max_iterations = kDramSolveIts;
  const ksp::BiCgStab solver(settings);
  ksp::SeqContext ctx(a);
  const Vector bv = to_vector(b);
  Vector x(a.rows());
  std::vector<double> xs(b.size()), ax(b.size()), ay(b.size());
  kb::Series series;
  const double t_end = kb::now() + budget;
  const double t_cap = kb::now() + 3.0 * budget;
  auto ref3 = [&] { return kb::median({ref.sample(), ref.sample(), ref.sample()}); };
  kb::StealWindow window;
  double prev = ref3();
  while (series.size() < 3 || kb::now() < t_end ||
         (series.kept() < 3 && kb::now() < t_cap)) {
    x.set(0.0);
    const double c0 = kb::cpu_now();
    const double t0 = kb::now();
    const ksp::SolveResult res = solver.solve(ctx, bv, x);
    const double t = kb::now() - t0;
    const double cpu = kb::cpu_now() - c0;
    kb::StealWindow next_window;
    const double next = ref3();
    series.add(t, prev, next, cpu, window.stolen());
    prev = next;
    window = next_window;
    std::copy(x.begin(), x.end(), xs.begin());
    kb::gs_jacobian_action(p, state.data(), xs.data(), ax.data(), ay.data(),
                           &pool);
    const kb::Verdict v = kb::residual_check(b, ax, ay, res.residual_norm,
                                             2 * res.iterations + 1, 16);
    out.op(res.iterations == kDramSolveIts && v.ok(),
           "BiCGStab residual disagreement / allowed = " +
               std::to_string(v.ratio()));
  }
  return series;
}

// ---- Gray–Scott solve --------------------------------------------------------------

/// Per-layer totals of one traced K-step block (seconds, raw).
struct GsLayers {
  double rhs = 0, pc_setup = 0, pc_apply = 0;
  double spmv = 0, spmv_coarse = 0, ksp_scope = 0, step = 0;
  std::int64_t spmv_calls = 0, pc_calls = 0, newton = 0, linear = 0;
};

/// Decorator on the public ts::RhsFunction interface.
class TracedRhs final : public ts::RhsFunction {
 public:
  explicit TracedRhs(const ts::RhsFunction& f) : f_(f) {}
  Index size() const override { return f_.size(); }
  void rhs(const Vector& u, Vector& f) const override {
    kb::Scope s("app.rhs");
    f_.rhs(u, f);
  }
  mat::Csr rhs_jacobian(const Vector& u) const override {
    kb::Scope s("app.jacobian");
    return f_.rhs_jacobian(u);
  }

 private:
  const ts::RhsFunction& f_;
};

/// Decorator on mat::Matrix: times every multiply as a span.
class TracedMatrix final : public mat::Matrix {
 public:
  TracedMatrix(std::shared_ptr<const mat::Matrix> a, const char* span)
      : a_(std::move(a)), span_(span) {}
  Index rows() const override { return a_->rows(); }
  Index cols() const override { return a_->cols(); }
  std::int64_t nnz() const override { return a_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override {
    kb::Scope s(span_);
    a_->spmv(x, y);
  }
  using Matrix::spmv;
  void spmv_wide(const Scalar* x, Scalar* y) const override {
    kb::Scope s(span_);
    a_->spmv_wide(x, y);
  }
  bool slim_active() const override { return a_->slim_active(); }
  void get_diagonal(Vector& d) const override { a_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    a_->abft_col_checksum(c);
  }
  std::string format_name() const override { return a_->format_name(); }
  std::size_t storage_bytes() const override { return a_->storage_bytes(); }
  std::size_t spmv_traffic_bytes() const override {
    return a_->spmv_traffic_bytes();
  }

 private:
  std::shared_ptr<const mat::Matrix> a_;
  const char* span_;
};

/// Decorator on pc::Pc: times every application as a span.
class TracedPc final : public pc::Pc {
 public:
  explicit TracedPc(std::unique_ptr<pc::Pc> p) : p_(std::move(p)) {}
  void apply(const Vector& r, Vector& z) const override {
    kb::Scope s("pc.apply");
    p_->apply(r, z);
  }
  std::string name() const override { return p_->name(); }

 private:
  std::unique_ptr<pc::Pc> p_;
};

/// The gray-scott solver stack: Crank–Nicolson (dt = 1), Newton, GMRES,
/// 3-level MG with Jacobi smoothing, SELL operators on every level. With
/// `traced`, every factory returns a decorated object.
ts::ThetaOptions gs_options(const std::vector<mat::Csr>& chain, bool traced) {
  ts::ThetaOptions o;
  o.theta = 0.5;
  o.dt = 1.0;
  o.steps = 1;
  o.newton.rtol = 1e-8;
  o.newton.ksp_type = "gmres";
  o.newton.ksp.rtol = 1e-6;
  o.newton.format_factory =
      [traced](const mat::Csr& a) -> std::shared_ptr<const mat::Matrix> {
    kb::Scope s("mat.factory");
    auto sell = std::make_shared<const mat::Sell>(a);
    if (!traced) return sell;
    return std::make_shared<TracedMatrix>(sell, "mat.spmv");
  };
  o.newton.pc_factory = [&chain,
                         traced](const mat::Csr& a) -> std::unique_ptr<pc::Pc> {
    kb::Scope s("pc.setup");
    auto level = std::make_shared<int>(0);
    pc::Multigrid::FormatFactory factory =
        [traced, level](const mat::Csr& lvl)
        -> std::shared_ptr<const mat::Matrix> {
      auto sell = std::make_shared<const mat::Sell>(lvl);
      const int l = (*level)++;
      if (!traced) return sell;
      return std::make_shared<TracedMatrix>(
          sell, l == 0 ? "mat.spmv" : "mat.spmv_coarse");
    };
    auto mg = std::make_unique<pc::Multigrid>(a, chain,
                                              pc::Multigrid::Options{},
                                              factory);
    if (!traced) return mg;
    return std::make_unique<TracedPc>(std::move(mg));
  };
  return o;
}

struct GsSolver {
  kb::GsProblem p;
  app::GrayScott gs;
  std::vector<mat::Csr> chain;
  ts::ThetaOptions plain, traced;
  explicit GsSolver(Index n)
      : p{n}, gs(n), chain(app::gray_scott_interpolation_chain(gs.grid(),
                                                               kGsLevels)),
        plain(gs_options(chain, false)), traced(gs_options(chain, true)) {}
};

/// One K-step block from `start`: each step bracketed by reference samples
/// (median of 3 each side), done again from the same state while its window
/// was stolen (kb::bracket_redo), and checked against the Crank–Nicolson
/// residual. Fills `layers` when traced.
struct GsBlock {
  double paired = 0.0;  ///< paired seconds of the K steps
  double raw = 0.0;     ///< wall seconds of the K steps
  int redone = 0;       ///< steps done again because of steal
};

GsBlock gs_block(GsSolver& s, const std::vector<double>& start,
                 kb::Reference& ref, bool traced, Out& out,
                 GsLayers* layers) {
  Vector u = to_vector(start);
  TracedRhs traced_rhs(s.gs);
  const ts::RhsFunction& f =
      traced ? static_cast<const ts::RhsFunction&>(traced_rhs) : s.gs;
  GsBlock block;
  const int ev_ksp = prof::registered_event("KSPSolve");
  for (int step = 0; step < kGsBlockSteps; ++step) {
    const std::vector<double> u0(u.begin(), u.end());
    ts::ThetaResult res;
    std::size_t mark = 0;
    double ksp0 = 0.0;
    const kb::Bracketed b = kb::bracket_redo(ref, 3, [&] {
      std::copy(u0.begin(), u0.end(), u.begin());
      mark = kb::tracer().mark();
      ksp0 = traced ? prof::current().seconds(ev_ksp) : 0.0;
      kb::tracer().set_on(traced);
      prof::EnableGuard scope_guard(traced);
      {
        kb::Scope sp("ts.step");
        res = ts::theta_integrate(f, u, traced ? s.traced : s.plain);
      }
      kb::tracer().set_on(false);
    });
    const double r = b.ref;
    block.paired += b.t / r * ref.nominal_s();
    block.raw += b.t;
    block.redone += b.tries - 1;
    std::vector<double> u1(u.begin(), u.end());
    const kb::Verdict v = kb::cn_step_check(s.p, u0, u1, 1.0, 1e-8, 1e-12);
    out.op(res.completed && v.ok(),
           "Crank-Nicolson step residual / allowed = " +
               std::to_string(v.ratio()));
    if (traced && layers != nullptr) {
      const double scale = ref.nominal_s() / r;  // paired seconds per raw s
      const auto& sp = kb::tracer().spans();
      double ksp_children = 0.0;
      for (std::size_t i = mark; i < sp.size(); ++i) {
        const double d = (sp[i].t1 - sp[i].t0) * scale;
        const std::string name = sp[i].name;
        const bool top = sp[i].parent >= 0 &&
                         std::strcmp(sp[sp[i].parent].name, "ts.step") == 0;
        if (name == "app.rhs") layers->rhs += d;
        if (name == "pc.setup") layers->pc_setup += d;
        if (name == "pc.apply") {
          layers->pc_apply += d;
          ++layers->pc_calls;
          ksp_children += d;
        }
        if (name == "mat.spmv" || name == "mat.spmv_coarse") {
          (name == "mat.spmv" ? layers->spmv : layers->spmv_coarse) += d;
          ++layers->spmv_calls;
          if (top) ksp_children += d;  // a Krylov multiply, not MG's
        }
        if (name == "ts.step") layers->step += d;
      }
      layers->ksp_scope +=
          (prof::current().seconds(ev_ksp) - ksp0) * scale - ksp_children;
      layers->newton += res.total_newton_iterations;
      layers->linear += res.total_linear_iterations;
    }
  }
  return block;
}

// ---- halo CG ---------------------------------------------------------------------

/// Per-layer figures of the traced halo solves (rank 0, raw seconds).
struct CgLayers {
  double spmv = 0, allreduce = 0, dot = 0;
  std::int64_t spmv_calls = 0, allreduce_calls = 0, dot_calls = 0;
};

/// Decorator on the public ksp::LinearContext interface: the distributed
/// context of ksp/context.hpp with every call timed as a span.
class TracedParContext final : public ksp::LinearContext {
 public:
  TracedParContext(const par::ParMatrix& a, par::Comm& comm)
      : a_(a), comm_(comm) {}
  Index local_size() const override { return a_.local_rows(); }
  std::int64_t operator_nnz() const override { return a_.local_nnz(); }
  void apply_operator(const Vector& x, Vector& y) override {
    kb::Scope s("par.spmv");
    a_.spmv_local(x.data(), y, comm_);
  }
  Scalar dot(const Vector& a, const Vector& b) override {
    Scalar local;
    {
      kb::Scope s("vec.dot");
      local = a.dot(b);
    }
    kb::Scope s("par.allreduce");
    return comm_.allreduce(local, par::Comm::ReduceOp::kSum);
  }

 private:
  const par::ParMatrix& a_;
  par::Comm& comm_;
};

struct CgRun {
  double setup_paired = 0, setup_raw = 0, setup_cpu = 0;
  bool setup_stolen = false;
  kb::Series solves;          ///< untraced solves
  kb::Series traced_solves;   ///< traced solves (trace runs only)
  int iterations = 0;
  CgLayers layers;
  double axpy_us = 0;
  double messages_per_spmv = 0, bytes_per_spmv = 0, ghosts = 0;
};

/// halo-cg: nproc fabric ranks x 1 thread, SELL diagonal block, compressed
/// off-diagonal block, persistent ghost exchange. Set-up assembles the
/// Laplacian into `global`, distributes it (ParMatrix::from_global) and
/// runs the first multiply, which opens the channels. Then untraced solves
/// until `budget` (and until 3 solves were not stolen, at most 3 x budget),
/// or with `traced` > 0, that many traced solves each after an untraced
/// one. Rank 0 times; the other ranks wait on a benchmark-owned barrier
/// while it runs the reference.
CgRun run_halo(mat::Csr& global, const std::vector<double>& b,
               kb::Reference& ref, kb::Reference& setup_ref, double budget,
               int traced, const std::string& scope_json, Out& out) {
  const int nr = nproc();
  set_threads(1);
  const kb::StealWindow setup_window;
  std::vector<double> before;
  for (int i = 0; i < 3; ++i) before.push_back(setup_ref.sample());
  const double c_setup0 = kb::cpu_now();
  const double t_setup0 = kb::now();
  global = app::laplacian_dirichlet(kLapN, kLapN);
  auto layout = std::make_shared<par::Layout>(
      par::Layout::even(global.rows(), nr));
  kb::CvBarrier sync(nr);
  std::vector<double> xg(b.size(), 0.0);
  CgRun run;
  std::atomic<bool> stop{false};
  std::vector<int> its(static_cast<std::size_t>(nr), 0);
  std::vector<double> reported(static_cast<std::size_t>(nr), 0.0);
  const double t_budget_end = kb::now() + budget;
  const double t_budget_cap = kb::now() + 3.0 * budget;

  // Rank 0 samples a reference while the other ranks wait.
  auto ref_phase = [&](par::Comm& comm, int k, kb::Reference* r = nullptr) {
    sync.arrive_and_wait();
    double m = 0.0;
    if (comm.rank() == 0) {
      std::vector<double> v;
      for (int i = 0; i < k; ++i) v.push_back((r ? r : &ref)->sample());
      m = kb::median(v);
    }
    sync.arrive_and_wait();
    return m;
  };

  par::Fabric::run(nr, [&](par::Comm& comm) {
    const int rank = comm.rank();
    const Index lo = layout->begin(rank);
    const Index nloc = layout->local_size(rank);
    par::ParMatrixOptions opts;
    opts.diag_format = par::DiagFormat::kSell;
    opts.offdiag_format = par::OffdiagFormat::kCompressedCsr;
    opts.persistent_ghosts = true;
    opts.threads = 1;
    Vector xl(nloc), yl(nloc), bl(nloc);
    for (Index i = 0; i < nloc; ++i) {
      bl[i] = b[static_cast<std::size_t>(lo + i)];
      xl[i] = 1.0;
    }

    std::unique_ptr<par::ParMatrix> a = std::make_unique<par::ParMatrix>(
        par::ParMatrix::from_global(global, layout, comm, opts));
    a->spmv_local(xl.data(), yl, comm);
    sync.arrive_and_wait();
    const double t_setup = kb::now() - t_setup0;
    const double c_setup = kb::cpu_now() - c_setup0;
    const double r1 = ref_phase(comm, 3, &setup_ref);
    if (rank == 0) {
      const double r = 0.5 * (kb::median(before) + r1);
      run.setup_raw = t_setup;
      run.setup_cpu = c_setup;
      run.setup_stolen = setup_window.stolen();
      run.setup_paired = t_setup / r * setup_ref.nominal_s();
    }

    ksp::Settings settings;
    settings.rtol = kCgRtol;
    const ksp::Cg cg(settings);
    ksp::ParContext plain_ctx(*a, comm);
    TracedParContext traced_ctx(*a, comm);
    const std::uint64_t sends0 = comm.stats().channel_sends;
    std::int64_t spmv_calls_traced = 0;

    kb::StealWindow window;  // rank 0's
    double prev = ref_phase(comm, 1);
    const int total = traced > 0 ? 2 * traced : 1 << 30;
    for (int s = 0; s < total; ++s) {
      const bool is_traced = traced > 0 && s % 2 == 1;
      xl.set(0.0);
      std::size_t mark = kb::tracer().mark();
      // Rank 0 alone flips the process-wide switches, before the barrier
      // that starts the solve.
      std::optional<prof::EnableGuard> scope_guard;
      if (rank == 0) {
        kb::tracer().set_on(is_traced);
        scope_guard.emplace(is_traced && !scope_json.empty());
      }
      sync.arrive_and_wait();
      const double c0s = kb::cpu_now();
      const double t0s = kb::now();
      const ksp::SolveResult res =
          is_traced ? cg.solve(traced_ctx, bl, xl) : cg.solve(plain_ctx, bl, xl);
      sync.arrive_and_wait();
      const double t = kb::now() - t0s;
      const double cpu = kb::cpu_now() - c0s;
      if (rank == 0) kb::tracer().set_on(false);
      std::copy(xl.begin(), xl.end(), xg.begin() + lo);
      its[static_cast<std::size_t>(rank)] =
          res.converged ? res.iterations : -1;
      reported[static_cast<std::size_t>(rank)] = res.residual_norm;
      kb::StealWindow next_window;
      const double next = ref_phase(comm, 1);
      if (rank == 0) {
        (is_traced ? run.traced_solves : run.solves)
            .add(t, prev, next, cpu, window.stolen());
        window = next_window;
        bool same = true;
        for (int q = 0; q < nr; ++q) same = same && its[q] == its[0];
        const kb::Verdict v = kb::cg_residual_check(
            kLapN, b, xg, reported[0], std::max(its[0], 0));
        out.op(same && its[0] > 0 && v.ok(),
               "CG residual disagreement / allowed = " +
                   std::to_string(v.ratio()));
        run.iterations = its[0];
        if (is_traced) {
          const auto& sp = kb::tracer().spans();
          for (std::size_t i = mark; i < sp.size(); ++i) {
            const double d = sp[i].t1 - sp[i].t0;
            const std::string name = sp[i].name;
            if (name == "par.spmv") run.layers.spmv += d, ++spmv_calls_traced;
            if (name == "par.allreduce") {
              run.layers.allreduce += d;
              ++run.layers.allreduce_calls;
            }
            if (name == "vec.dot") run.layers.dot += d, ++run.layers.dot_calls;
          }
        }
        if (traced == 0 && kb::now() >= t_budget_end && s >= 2 &&
            (run.solves.kept() >= 3 || kb::now() >= t_budget_cap)) {
          stop.store(true);
        }
      }
      prev = next;
      sync.arrive_and_wait();
      if (stop.load()) break;
    }
    if (rank == 0) run.layers.spmv_calls = spmv_calls_traced;

    if (traced > 0) {
      // Fabric counters: ghost messages and bytes per multiply, all ranks.
      // Every solve multiplies once per iteration plus once at entry.
      const std::int64_t nspmv = 2 * traced * (run.iterations + 1);
      const std::int64_t sends = comm.allreduce(
          static_cast<std::int64_t>(comm.stats().channel_sends - sends0));
      const std::int64_t ghosts = comm.allreduce(
          static_cast<std::int64_t>(a->num_ghosts()));
      if (rank == 0) {
        run.messages_per_spmv = static_cast<double>(sends) / nspmv;
        run.ghosts = static_cast<double>(ghosts);
        run.bytes_per_spmv = 8.0 * static_cast<double>(ghosts);
        // Direct BLAS-1 timing on a rank-local vector.
        Vector p(nloc, 1.0), q(nloc, 0.5);
        const int calls = 2000;
        const double ta = kb::now();
        for (int c = 0; c < calls; ++c) q.axpy(1e-9, p);
        run.axpy_us = (kb::now() - ta) / calls * 1e6;
      }
      if (!scope_json.empty()) {
        prof::LogConfig cfg;
        cfg.json_path = scope_json;
        prof::export_all(cfg, prof::current(), &comm);
      }
    }
    sync.arrive_and_wait();
    a.reset();  // every rank drops its block before any rank leaves
    sync.arrive_and_wait();
  });
  set_threads(nproc());
  return run;
}

// ---- workloads --------------------------------------------------------------

void spmv_dram(const Args& args, Out& out) {
  kb::RefPool pool(nproc());
  const MultiplyPlan plan = plan_for(args.workload);
  const RefPair triads = make_triads(pool);
  kb::Rng rng(args.seed);
  const kb::GsProblem p{kDramN};
  const std::vector<double> state = seeded_gs_state(kDramN, rng);
  Operator op;
  op.x = to_vector(seeded_vector(p.size(), rng, -1.0, 1.0));
  const Vector vstate = to_vector(state);

  // Set-up: Jacobian assembly plus conversion to every measured format.
  std::shared_ptr<mat::Sell> sell, sell32;
  const kb::Bracketed setup = kb::bracket(*triads.t1, 3, [&] {
    app::GrayScott gs(kDramN);
    op.csr = std::make_shared<mat::Csr>(gs.rhs_jacobian(vstate));
    sell = std::make_shared<mat::Sell>(*op.csr);
    sell32 = std::make_shared<mat::Sell>(*op.csr);
    sell32->set_slim(mat::SlimOptions{false, true});
  });
  build_check_data(op, [&](const double* x, double* y, double* ay) {
    kb::gs_jacobian_action(p, state.data(), x, y, ay, &pool);
  });
  e2e_multiplies(op, op.csr, sell, sell32, triads, plan, 0.7 * args.seconds,
                 out);
  op = Operator{};
  sell32.reset();
  const std::vector<double> b = seeded_vector(p.size(), rng, -1.0, 1.0);
  const kb::Series solves = dram_solves(p, state, *sell, b, *triads.tn, pool,
                                        0.3 * args.seconds, out);
  out.metric("setup_s", setup.t / setup.ref * triads.t1->nominal_s(), "s");
  out.metric("solve_s", solves.paired_s(triads.tn->nominal_s()), "s");
  note_setup(setup, out);
  note_solves(solves, out);
}

void gray_scott(const Args& args, Out& out) {
  kb::RefPool pool(nproc());
  const MultiplyPlan plan = plan_for(args.workload);
  const std::unique_ptr<kb::Reference> ref_ptr = gs_reference();
  kb::Reference& ref = *ref_ptr;
  const RefPair mrefs = multiply_refs(pool, args.workload);
  kb::Rng rng(args.seed);
  const kb::GsProblem p{kGsN};
  const std::vector<double> start = seeded_gs_start(p, rng);
  const std::vector<double> state = seeded_gs_state(kGsN, rng);
  Operator op;
  op.x = to_vector(seeded_vector(p.size(), rng, -1.0, 1.0));
  set_threads(1);

  // Set-up: the problem, the MG interpolation chain, and the solver's work
  // before the first step — CN Jacobian, SELL operator, MG hierarchy.
  std::unique_ptr<GsSolver> solver;
  const kb::Bracketed setup = kb::bracket(ref, 5, [&] {
    solver = std::make_unique<GsSolver>(kGsN);
    const mat::Csr jf = solver->gs.rhs_jacobian(to_vector(start));
    const mat::Csr j =
        mat::add(1.0, mat::identity(jf.rows()), -0.5, jf);
    auto op0 = solver->plain.newton.format_factory(j);
    auto pc0 = solver->plain.newton.pc_factory(j);
  });
  out.metric("setup_s", setup.t / setup.ref * ref.nominal_s(), "s");
  note_setup(setup, out);

  // Solve: K-step blocks from the seeded start until 75% of the budget.
  std::vector<double> blocks, raws;
  int redone = 0;
  const double t_end = kb::now() + 0.75 * args.seconds;
  while (blocks.size() < 2 || kb::now() < t_end) {
    const GsBlock b = gs_block(*solver, start, ref, false, out, nullptr);
    blocks.push_back(b.paired);
    raws.push_back(b.raw);
    redone += b.redone;
  }

  out.metric("solve_s", kb::median(blocks), "s");
  out.note("raw_solve_s", kb::median(raws));
  out.note("samples.solve", static_cast<double>(blocks.size()));
  out.note("redone_steps.solve", static_cast<double>(redone));

  // Multiplies on the Jacobian at the seeded state (cache-resident SELL).
  set_threads(nproc());
  app::GrayScott gs(kGsN);
  op.csr = std::make_shared<mat::Csr>(gs.rhs_jacobian(to_vector(state)));
  auto sell = std::make_shared<mat::Sell>(*op.csr);
  auto sell32 = std::make_shared<mat::Sell>(*op.csr);
  sell32->set_slim(mat::SlimOptions{false, true});
  build_check_data(op, [&](const double* x, double* y, double* ay) {
    kb::gs_jacobian_action(p, state.data(), x, y, ay);
  });
  // The block loop runs whole blocks, so its share can overrun: the
  // multiply phase keeps a fixed share of the budget instead.
  e2e_multiplies(op, op.csr, sell, sell32, mrefs, plan, 0.25 * args.seconds,
                 out);
}

void halo_cg(const Args& args, Out& out) {
  kb::RefPool pool(nproc());
  const MultiplyPlan plan = plan_for(args.workload);
  const std::unique_ptr<kb::Reference> ref_ptr = cg_reference(pool);
  kb::Reference& ref = *ref_ptr;
  const RefPair mrefs = multiply_refs(pool, args.workload);
  kb::Rng rng(args.seed);
  const std::vector<double> b = seeded_vector(kLapN * kLapN, rng, -1.0, 1.0);
  Operator op;
  op.terms = 8;
  op.x = to_vector(seeded_vector(kLapN * kLapN, rng, -1.0, 1.0));

  // Set-up is mostly the single-threaded assembly: it pairs with the
  // 1-thread CSR reference.
  mat::Csr global;
  const CgRun run = run_halo(global, b, ref, *mrefs.t1, 0.65 * args.seconds,
                             0, "", out);
  out.metric("setup_s", run.setup_paired, "s");
  out.metric("solve_s", run.solves.paired_s(ref.nominal_s()), "s");
  note_setup({run.setup_raw, 0.0, run.setup_cpu, run.setup_stolen}, out);
  note_solves(run.solves, out);
  out.note("cg_iterations", run.iterations);

  op.csr = std::make_shared<mat::Csr>(global);
  auto sell = std::make_shared<mat::Sell>(global);
  auto sell32 = std::make_shared<mat::Sell>(global);
  sell32->set_slim(mat::SlimOptions{false, true});
  build_check_data(op, [&](const double* x, double* y, double* ay) {
    kb::laplacian_action(kLapN, x, y, ay);
  });
  e2e_multiplies(op, op.csr, sell, sell32, mrefs, plan, 0.35 * args.seconds,
                 out);
}

// ---- traced runs ------------------------------------------------------------------

struct FormatSpec {
  const char* name;
  std::shared_ptr<mat::Matrix> (*make)(const mat::Csr&);
};

const FormatSpec kFormats[] = {
    {"csr", [](const mat::Csr& a) -> std::shared_ptr<mat::Matrix> {
       return std::make_shared<mat::Csr>(a);
     }},
    {"csrperm", [](const mat::Csr& a) -> std::shared_ptr<mat::Matrix> {
       return std::make_shared<mat::CsrPerm>(a);
     }},
    {"sell", [](const mat::Csr& a) -> std::shared_ptr<mat::Matrix> {
       return std::make_shared<mat::Sell>(a);
     }},
    {"bcsr", [](const mat::Csr& a) -> std::shared_ptr<mat::Matrix> {
       return std::make_shared<mat::Bcsr>(a, 2);
     }},
    {"talon", [](const mat::Csr& a) -> std::shared_ptr<mat::Matrix> {
       return std::make_shared<mat::Talon>(a);
     }},
};

/// The benchmark's own model of one multiply's bytes: every stored value
/// and column index once, the row (or slice) pointers, x read once, y
/// written with write-allocate.
double own_traffic_bytes(const mat::Csr& a, const std::string& fmt) {
  const double m = a.rows(), n = a.cols();
  double stored = static_cast<double>(a.nnz());
  double pointers = m + 1;
  if (fmt == "sell") {
    const Index c = mat::SellOptions{}.slice_height;
    stored = 0.0;
    pointers = 0.0;
    for (Index s0 = 0; s0 < a.rows(); s0 += c) {
      Index width = 0;
      for (Index i = s0; i < std::min<Index>(s0 + c, a.rows()); ++i) {
        width = std::max(width, a.rowptr()[i + 1] - a.rowptr()[i]);
      }
      stored += static_cast<double>(width) * c;
      pointers += 1;
    }
    pointers += 1;
  }
  return 12.0 * stored + 4.0 * pointers + 8.0 * n + 16.0 * m;
}

/// Median wall-clock speed of a reference (GB/s or Gflop/s) over k samples.
double wall_rate(kb::Reference& r, int k) {
  std::vector<double> v;
  for (int i = 0; i < k; ++i) {
    const double w0 = kb::now();
    r.sample();
    v.push_back(kb::now() - w0);
  }
  return r.work() / kb::median(v) / 1e9;
}

/// Per-format layer sweep on the workload's operator: conversion, fp32
/// attach, multiplies at nproc and 1 thread (+ fp32 at nproc), and the ISA
/// tiers of CSR and SELL at one thread, paired with the workload's multiply
/// references. Five kept pairs per case (three per ISA tier).
void mat_battery(Operator& op, const RefPair& refs, const MultiplyPlan& plan,
                 Out& out) {
  constexpr int kSamples = 5;
  const kb::SpmvCheck fat{op.terms, 0.0};
  const kb::SpmvCheck fp32{op.terms, kFp32Unit};
  for (const FormatSpec& f : kFormats) {
    const std::string fmt = f.name;
    set_threads(nproc());
    std::shared_ptr<mat::Matrix> m;
    const kb::Bracketed conv =
        kb::bracket(*refs.t1, 3, [&] { m = f.make(*op.csr); });
    out.metric("mat.convert_s." + fmt,
               conv.t / conv.ref * refs.t1->nominal_s(), "s");
    m->repartition(nproc());
    if (fmt == "csr" || fmt == "sell") {
      const double own = own_traffic_bytes(*op.csr, fmt);
      const double prog = static_cast<double>(m->spmv_traffic_bytes());
      out.note("traffic_model_ratio." + fmt, prog / own);
      if (std::abs(prog - own) > 0.10 * own) {
        out.problems.push_back(fmt + " spmv_traffic_bytes() is " +
                               std::to_string(prog / own) +
                               "x the benchmark's byte formula");
      }
    }

    SpmvCase cn{fmt + "/tN", m, fat, plan.repsn, {}, {}};
    run_multiplies(*refs.tn, {&cn}, op, 0.0, kSamples, out);
    out.metric("mat.spmv_gflops." + fmt + ".tN", gflops(cn, *refs.tn),
               "GF/s");
    out.metric("mat.triad_frac." + fmt + ".tN",
               triad_frac(cn, *refs.tn, kTriadDramTnGbs), "ratio");

    bool attached = false;
    const kb::Bracketed attach = kb::bracket(*refs.t1, 3, [&] {
      attached = m->set_slim(mat::SlimOptions{false, true});
    });
    out.metric("mat.slim_attach_s." + fmt,
               attach.t / attach.ref * refs.t1->nominal_s(), "s");
    if (!attached) out.problems.push_back(fmt + " declined the fp32 stream");
    SpmvCase c32{fmt + "_fp32/tN", m, fp32, plan.repsn, {}, {}};
    run_multiplies(*refs.tn, {&c32}, op, 0.0, kSamples, out);
    out.metric("mat.spmv_gflops." + fmt + "_fp32.tN",
               gflops(c32, *refs.tn), "GF/s");
    m->set_slim(mat::SlimOptions{});

    set_threads(1);
    m->repartition(1);
    SpmvCase c1{fmt + "/t1", m, fat, plan.reps1, {}, {}};
    run_multiplies(*refs.t1, {&c1}, op, 0.0, kSamples, out);
    out.metric("mat.spmv_gflops." + fmt + ".t1", gflops(c1, *refs.t1),
               "GF/s");
    out.metric("mat.triad_frac." + fmt + ".t1",
               triad_frac(c1, *refs.t1, kTriadDram1tGbs), "ratio");

    if (fmt == "csr" || fmt == "sell") {
      const std::pair<simd::IsaTier, const char*> tiers[] = {
          {simd::IsaTier::kScalar, "scalar"},
          {simd::IsaTier::kAvx, "avx"},
          {simd::IsaTier::kAvx2, "avx2"},
          {simd::IsaTier::kAvx512, "avx512"}};
      const simd::IsaTier saved = m->tier();
      for (const auto& [tier, tname] : tiers) {
        m->set_tier(tier);
        SpmvCase ct{fmt + "/" + tname, m, fat, plan.reps1, {}, {}};
        run_multiplies(*refs.t1, {&ct}, op, 0.0, 3, out);
        out.metric(std::string("simd.spmv_gflops.") + fmt + "." + tname,
                   gflops(ct, *refs.t1), "GF/s");
      }
      m->set_tier(saved);
    }
    m.reset();
  }
  set_threads(nproc());
}

/// The Gray–Scott solve layers: untraced and traced K-step blocks,
/// alternating, from the seeded start; layer times are per block, paired.
void gs_battery(std::uint64_t seed, kb::RefPool& pool,
                const std::string& scope_json, Out& out) {
  constexpr int kBlocks = 2;  ///< of each kind
  const std::unique_ptr<kb::Reference> ref_ptr = gs_reference();
  kb::Reference& ref = *ref_ptr;
  kb::Rng rng(seed);
  const kb::GsProblem p{kGsN};
  const std::vector<double> start = seeded_gs_start(p, rng);
  set_threads(1);
  GsSolver solver(kGsN);
  prof::current().reset();
  const std::size_t mark = kb::tracer().mark();
  std::vector<double> plain, traced;
  GsLayers layers;
  for (int b = 0; b < 2 * kBlocks; ++b) {
    const bool t = b % 2 == 1;
    (t ? traced : plain)
        .push_back(gs_block(solver, start, ref, t, out, &layers).paired);
  }
  double bench_matmult = 0.0;  // raw seconds, for the Scope cross-check
  const auto& sp = kb::tracer().spans();
  for (std::size_t i = mark; i < sp.size(); ++i) {
    if (std::strcmp(sp[i].name, "mat.spmv") == 0 ||
        std::strcmp(sp[i].name, "mat.spmv_coarse") == 0) {
      bench_matmult += sp[i].t1 - sp[i].t0;
    }
  }
  out.note("xcheck.bench_matmult_sell_s", bench_matmult);
  prof::LogConfig cfg;
  cfg.json_path = scope_json;
  prof::export_all(cfg, prof::current());
  set_threads(nproc());

  const double nb = kBlocks;
  out.metric("ts.step_s", layers.step / (nb * kGsBlockSteps), "s");
  out.metric("app.rhs_s", layers.rhs / nb, "s");
  out.metric("pc.setup_s", layers.pc_setup / nb, "s");
  out.metric("pc.apply_s", layers.pc_apply / nb, "s");
  out.metric("mat.spmv_s", layers.spmv / nb, "s");
  out.metric("mat.spmv_coarse_s", layers.spmv_coarse / nb, "s");
  out.metric("ksp.self_s", layers.ksp_scope / nb, "s");
  out.metric("snes.newton_its", layers.newton / nb, "count");
  out.metric("ksp.linear_its", layers.linear / nb, "count");
  out.metric("mat.spmv_calls", layers.spmv_calls / nb, "count");
  out.metric("pc.apply_calls", layers.pc_calls / nb, "count");
  out.metric("trace.gs_overhead_s", kb::median(traced) - kb::median(plain),
             "s");
  out.note("gs.untraced_solve_s", kb::median(plain));
  out.note("gs.traced_solve_s", kb::median(traced));
}

/// The halo exchange layers: untraced and traced CG solves, alternating.
void cg_battery(std::uint64_t seed, kb::RefPool& pool,
                const std::string& scope_json, Out& out) {
  constexpr int kSolves = 4;  ///< of each kind
  const std::unique_ptr<kb::Reference> ref_ptr = cg_reference(pool);
  kb::Reference& ref = *ref_ptr;
  kb::Rng rng(seed);
  const std::vector<double> b = seeded_vector(kLapN * kLapN, rng, -1.0, 1.0);
  mat::Csr global;
  const CgRun run =
      run_halo(global, b, ref, ref, 0.0, kSolves, scope_json, out);
  // Paired seconds per raw second of the traced solves.
  const double scale = ref.nominal_s() / run.traced_solves.ref_s();
  const CgLayers& l = run.layers;
  out.metric("par.spmv_us", l.spmv / l.spmv_calls * 1e6 * scale, "us");
  out.metric("par.allreduce_us",
             l.allreduce / l.allreduce_calls * 1e6 * scale, "us");
  out.metric("vec.dot_us", l.dot / l.dot_calls * 1e6 * scale, "us");
  out.metric("vec.axpy_us", run.axpy_us * scale, "us");
  const double traced = run.traced_solves.paired_s(ref.nominal_s());
  const double plain = run.solves.paired_s(ref.nominal_s());
  out.metric("ksp.cg_iter_us", traced / run.iterations * 1e6, "us");
  out.metric("par.messages_per_spmv", run.messages_per_spmv, "count");
  out.metric("par.bytes_per_spmv", run.bytes_per_spmv, "B");
  out.metric("par.ghosts", run.ghosts, "count");
  out.metric("trace.cg_overhead_s", traced - plain, "s");
  out.note("cg.untraced_solve_s", plain);
  out.note("cg.traced_solve_s", traced);
  out.note("cg_iterations", run.iterations);
}

/// Traced run: the layer sweep on the workload's own operator (with its
/// assembly as app.jacobian_s), then the Gray–Scott and halo-CG layer
/// batteries, which every traced run performs.
void traced_run(const Args& args, Out& out) {
  kb::RefPool pool(nproc());
  const MultiplyPlan plan = plan_for(args.workload);
  const RefPair refs = multiply_refs(pool, args.workload);
  kb::Rng rng(args.seed);
  Operator op;
  std::vector<double> state;
  kb::GsProblem p{args.workload == "spmv-dram" ? kDramN : kGsN};
  set_threads(nproc());
  std::function<void()> assemble;
  if (args.workload == "halo-cg") {
    op.terms = 8;
    op.x = to_vector(seeded_vector(kLapN * kLapN, rng, -1.0, 1.0));
    assemble = [&] {
      op.csr = std::make_shared<mat::Csr>(
          app::laplacian_dirichlet(kLapN, kLapN));
    };
  } else {
    state = seeded_gs_state(p.n, rng);
    op.x = to_vector(seeded_vector(p.size(), rng, -1.0, 1.0));
    assemble = [&] {
      app::GrayScott gs(p.n);
      op.csr = std::make_shared<mat::Csr>(gs.rhs_jacobian(to_vector(state)));
    };
  }
  const kb::Bracketed jac = kb::bracket(*refs.t1, 3, assemble);
  out.metric("app.jacobian_s", jac.t / jac.ref * refs.t1->nominal_s(), "s");
  build_check_data(op, [&](const double* x, double* y, double* ay) {
    if (args.workload == "halo-cg") {
      kb::laplacian_action(kLapN, x, y, ay, &pool);
    } else {
      kb::gs_jacobian_action(p, state.data(), x, y, ay, &pool);
    }
  });
  mat_battery(op, refs, plan, out);
  op = Operator{};
  {
    // Host-phase reference: raw DRAM triad speed (spmv-dram's references).
    const bool dram = args.workload == "spmv-dram";
    const RefPair own = dram ? RefPair{} : make_triads(pool);
    const RefPair& triads = dram ? refs : own;
    out.metric("ref.triad_gbs.t1", wall_rate(*triads.t1, 5), "GB/s");
    out.metric("ref.triad_gbs.tN", wall_rate(*triads.tn, 5), "GB/s");
  }

  kb::tracer().reserve(1 << 20);
  gs_battery(args.seed, pool, args.out + "/gs_scope.json", out);
  cg_battery(args.seed, pool, args.out + "/cg_scope.json", out);

  std::ofstream spans(args.out + "/spans.json");
  spans << "[";
  const auto& sp = kb::tracer().spans();
  for (std::size_t i = 0; i < sp.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d}",
                  i == 0 ? "" : ",", sp[i].name, sp[i].t0, sp[i].t1,
                  sp[i].parent);
    spans << line;
  }
  spans << "\n]\n";
}

// ---- self-test and calibration -------------------------------------------------

/// Every check must accept the program's correct output and reject the
/// same output with one entry corrupted by ten times what it allows.
/// Returns the first failure, or an empty string.
std::string self_test() {
  kb::Rng rng(7);
  // Multiply checks: Gray–Scott Jacobian (fat CSR, fat SELL, fp32 SELL)
  // and the Dirichlet Laplacian.
  {
    const kb::GsProblem p{16};
    const std::vector<double> state = seeded_gs_state(p.n, rng);
    const std::vector<double> x = seeded_vector(p.size(), rng, -1.0, 1.0);
    app::GrayScott gs(p.n);
    const mat::Csr j = gs.rhs_jacobian(to_vector(state));
    auto s32 = std::make_shared<mat::Sell>(j);
    s32->set_slim(mat::SlimOptions{false, true});
    std::vector<double> yhat(x.size()), ay(x.size()), y(x.size());
    kb::gs_jacobian_action(p, state.data(), x.data(), yhat.data(), ay.data());
    const std::pair<std::shared_ptr<mat::Matrix>, kb::SpmvCheck> cases[] = {
        {std::make_shared<mat::Csr>(j), {16, 0.0}},
        {std::make_shared<mat::Sell>(j), {16, 0.0}},
        {s32, {16, kFp32Unit}}};
    for (const auto& [m, chk] : cases) {
      m->spmv(x.data(), y.data());
      const std::int64_t m_rows = m->rows();
      if (chk.first_violation(y.data(), yhat.data(), ay.data(), m_rows) >= 0) {
        return "Jacobian multiply check rejected a correct " +
               m->format_name() + " output";
      }
      const std::int64_t k = m_rows / 3;
      y[k] += 10.0 * chk.bound(ay[k]);
      if (chk.first_violation(y.data(), yhat.data(), ay.data(), m_rows) != k) {
        return "Jacobian multiply check accepted a corrupted " +
               m->format_name() + " output";
      }
    }
  }
  {
    const Index nx = 16;
    const std::vector<double> x = seeded_vector(nx * nx, rng, -1.0, 1.0);
    const mat::Csr a = app::laplacian_dirichlet(nx, nx);
    std::vector<double> yhat(x.size()), ay(x.size()), y(x.size());
    kb::laplacian_action(nx, x.data(), yhat.data(), ay.data());
    a.spmv(x.data(), y.data());
    const kb::SpmvCheck chk{8, 0.0};
    if (chk.first_violation(y.data(), yhat.data(), ay.data(), nx * nx) >= 0) {
      return "Laplacian multiply check rejected a correct output";
    }
    y[5] += 10.0 * chk.bound(ay[5]);
    if (chk.first_violation(y.data(), yhat.data(), ay.data(), nx * nx) != 5) {
      return "Laplacian multiply check accepted a corrupted output";
    }
  }
  // Crank–Nicolson residual: one step of the gray-scott solver stack.
  {
    const kb::GsProblem p{32};
    GsSolver solver(p.n);
    const std::vector<double> u0 = seeded_gs_start(p, rng);
    Vector u = to_vector(u0);
    set_threads(1);
    const ts::ThetaResult res = ts::theta_integrate(solver.gs, u,
                                                    solver.plain);
    set_threads(nproc());
    std::vector<double> u1(u.begin(), u.end());
    const kb::Verdict good = kb::cn_step_check(p, u0, u1, 1.0, 1e-8, 1e-12);
    if (!res.completed || !good.ok()) {
      return "Crank-Nicolson check rejected a converged step (" +
             std::to_string(good.ratio()) + ")";
    }
    u1[u1.size() / 2] += 10.0 * good.allowed;
    if (kb::cn_step_check(p, u0, u1, 1.0, 1e-8, 1e-12).ok()) {
      return "Crank-Nicolson check accepted a corrupted step";
    }
  }
  // CG residual: a sequential CG solve of the Dirichlet Laplacian.
  {
    const Index nx = 16;
    const std::vector<double> b = seeded_vector(nx * nx, rng, -1.0, 1.0);
    const mat::Csr a = app::laplacian_dirichlet(nx, nx);
    ksp::Settings settings;
    settings.rtol = kCgRtol;
    ksp::SeqContext ctx(a);
    Vector x(nx * nx);
    const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, to_vector(b), x);
    std::vector<double> xs(x.begin(), x.end());
    const kb::Verdict good =
        kb::cg_residual_check(nx, b, xs, res.residual_norm, res.iterations);
    if (!res.converged || !good.ok()) {
      return "CG check rejected a converged solve (" +
             std::to_string(good.ratio()) + ")";
    }
    // A change δ in x_k changes (b − A x)_k by 4 δ / h²: make that ten
    // times the reported residual plus the allowed gap.
    const double h = 1.0 / static_cast<double>(nx + 1);
    xs[37] += 10.0 * (res.residual_norm + good.allowed) * h * h / 4.0;
    if (kb::cg_residual_check(nx, b, xs, res.residual_norm, res.iterations)
            .ok()) {
      return "CG check accepted a corrupted solution";
    }
  }
  // BiCGStab residual: spmv-dram's solve on a small Gray–Scott Jacobian.
  {
    const kb::GsProblem p{16};
    const std::vector<double> state = seeded_gs_state(p.n, rng);
    const std::vector<double> b = seeded_vector(p.size(), rng, -1.0, 1.0);
    const mat::Csr j = app::GrayScott(p.n).rhs_jacobian(to_vector(state));
    const mat::Sell a(j);
    ksp::Settings settings;
    settings.rtol = 0.0;
    settings.max_iterations = kDramSolveIts;
    ksp::SeqContext ctx(a);
    Vector x(a.rows());
    const ksp::SolveResult res =
        ksp::BiCgStab(settings).solve(ctx, to_vector(b), x);
    std::vector<double> xs(x.begin(), x.end()), ax(b.size()), ay(b.size());
    auto verdict = [&] {
      kb::gs_jacobian_action(p, state.data(), xs.data(), ax.data(),
                             ay.data());
      return kb::residual_check(b, ax, ay, res.residual_norm,
                                2 * res.iterations + 1, 16);
    };
    const kb::Verdict good = verdict();
    if (res.iterations != kDramSolveIts || !good.ok()) {
      return "BiCGStab check rejected a correct solve (" +
             std::to_string(good.ratio()) + ")";
    }
    // A change δ in x_k changes (b − A x) by at least |A_kk| δ.
    Vector d(a.rows());
    j.get_diagonal(d);
    const std::size_t k = xs.size() / 3;
    xs[k] += 10.0 * (res.residual_norm + good.allowed) / std::abs(d[k]);
    if (verdict().ok()) return "BiCGStab check accepted a corrupted solution";
  }
  return "";
}

/// Median speed of every reference kernel over ~1.5 s each: the numbers
/// the nominal constants at the top of this file were set from.
void calibrate() {
  kb::RefPool pool(nproc());
  auto report = [](const char* name, kb::Reference& r, const char* unit) {
    wall_rate(r, 3);  // warm
    std::printf("%-24s %8.3f %s  (nominal %8.3f)\n", name, wall_rate(r, 25),
                unit, r.work() / r.nominal_s() / 1e9);
  };
  {
    const RefPair t = make_triads(pool);
    report("triad.spmv-dram.t1", *t.t1, "GB/s");
    report("triad.spmv-dram.tN", *t.tn, "GB/s");
  }
  for (const char* w : {"gray-scott", "halo-cg"}) {
    const RefPair c = multiply_refs(pool, w);
    report((std::string("csr.") + w + ".t1").c_str(), *c.t1, "GF/s");
    report((std::string("csr.") + w + ".tN").c_str(), *c.tn, "GF/s");
    report((std::string("sell.") + w + ".t1").c_str(), *c.sell_t1, "GF/s");
    report((std::string("sell.") + w + ".tN").c_str(), *c.sell_tn, "GF/s");
  }
  report("krylov.gray-scott.t1", *gs_reference(), "GF/s");
  report("cg.halo-cg.tN", *cg_reference(pool), "GF/s");
}

void print_json(const Out& out, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("}, \"raw\": {");
  for (std::size_t i = 0; i < out.raw.size(); ++i) {
    std::printf("%s\"%s\": %.10g", i == 0 ? "" : ", ",
                out.raw[i].first.c_str(), out.raw[i].second);
  }
  std::printf("}, \"problems\": [");
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", out.problems[i].c_str());
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() != "0";
      else if (a == "--out") args.out = value();
      else if (a == "--self-test") args.self_test = true;
      else if (a == "--calibrate") args.calibrate = true;
      else throw std::runtime_error("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "kbench: %s\n", e.what());
      return 2;
    }
  }
  set_threads(nproc());
  try {
    if (args.self_test) {
      const std::string err = self_test();
      std::printf("self-test: %s\n", err.empty() ? "ok" : err.c_str());
      return err.empty() ? 0 : 1;
    }
    if (args.calibrate) {
      calibrate();
      return 0;
    }
    Out out;
    if (args.trace) {
      if (args.workload != "spmv-dram" && args.workload != "gray-scott" &&
          args.workload != "halo-cg") {
        throw std::runtime_error("unknown workload '" + args.workload + "'");
      }
      traced_run(args, out);
    } else if (args.workload == "spmv-dram") {
      spmv_dram(args, out);
    } else if (args.workload == "gray-scott") {
      gray_scott(args, out);
    } else if (args.workload == "halo-cg") {
      halo_cg(args, out);
    } else {
      throw std::runtime_error("unknown workload '" + args.workload + "'");
    }
    if (!args.trace) out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    const std::string err = self_test();
    if (!err.empty()) out.problems.push_back("self-test: " + err);
    for (const std::string& p : out.problems) {
      std::fprintf(stderr, "kbench: %s\n", p.c_str());
    }
    print_json(out, out.problems.empty());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s\n", e.what());
    return 3;
  }
  return 0;
}
