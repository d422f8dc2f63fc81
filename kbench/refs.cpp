// The reference kernels' timed loops, in a translation unit of their own
// so that edits elsewhere in kbench do not move their code: the speed
// of a tight loop can depend on where it lands relative to cache-line and
// instruction-fetch boundaries, and every loop here is 64-byte aligned
// (kbench/CMakeLists.txt).

#include <immintrin.h>

#include "bench.hpp"

namespace kb {

void PlainCsr::multiply_rows(const double* x, double* y, std::int64_t r0,
                             std::int64_t r1) const {
  for (std::int64_t i = r0; i < r1; ++i) {
    double s = 0.0;
    for (std::int64_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      s += val[k] * x[col[k]];
    }
    y[i] = s;
  }
}

double Triad::sample() {
  times_.resize(static_cast<std::size_t>(reps_));
  for (int r = reps_ > 1 ? -1 : 0; r < reps_; ++r) {
    const double s = 0.5 + 1e-3 * r;
    const double t0 = now();
    pool_.run(threads_, [&](int t, int nt) {
      const auto [lo, hi] = part(arr_->n, t, nt);
      double* a = arr_->a.data();
      const double* b = arr_->b.data();
      const double* c = arr_->c.data();
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    if (r >= 0) times_[static_cast<std::size_t>(r)] = now() - t0;
  }
  return median(times_) * reps_;
}

double CsrReference::sample() {
  times_.resize(static_cast<std::size_t>(reps_));
  for (int r = reps_ > 1 ? -1 : 0; r < reps_; ++r) {
    const double t0 = now();
    pool_.run(threads_, [&](int t, int nt) {
      const auto [lo, hi] = part(static_cast<std::size_t>(a_.m), t, nt);
      a_.multiply_rows(x_.data(), y_.data(), static_cast<std::int64_t>(lo),
                       static_cast<std::int64_t>(hi));
    });
    if (r >= 0) times_[static_cast<std::size_t>(r)] = now() - t0;
  }
  return median(times_) * reps_;
}

PlainSell::PlainSell(const PlainCsr& a)
    : m(a.m), n(a.n), nnz(a.nnz()), nslices((a.m + 7) / 8) {
  sliceptr.push_back(0);
  for (std::int64_t s = 0; s < nslices; ++s) {
    const std::int64_t r0 = 8 * s, r1 = std::min(m, r0 + 8);
    std::int64_t width = 0;
    for (std::int64_t r = r0; r < r1; ++r) {
      width = std::max(width, a.rowptr[r + 1] - a.rowptr[r]);
    }
    const std::size_t base = col.size();
    col.resize(base + 8 * width, 0);
    val.resize(base + 8 * width, 0.0);
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t k = a.rowptr[r]; k < a.rowptr[r + 1]; ++k) {
        const std::size_t at = base + 8 * (k - a.rowptr[r]) + (r - r0);
        col[at] = a.col[k];
        val[at] = a.val[k];
      }
    }
    sliceptr.push_back(static_cast<std::int64_t>(col.size()));
  }
}

namespace {

__attribute__((target("avx512f,fma"))) void sell_slices_avx512(
    const PlainSell& a, const double* x, double* y, std::int64_t s0,
    std::int64_t s1) {
  for (std::int64_t s = s0; s < s1; ++s) {
    __m512d acc = _mm512_setzero_pd();
    for (std::int64_t k = a.sliceptr[s]; k < a.sliceptr[s + 1]; k += 8) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a.col.data() + k));
      acc = _mm512_fmadd_pd(_mm512_loadu_pd(a.val.data() + k),
                            _mm512_i32gather_pd(idx, x, 8), acc);
    }
    _mm512_storeu_pd(y + 8 * s, acc);
  }
}

void sell_slices_scalar(const PlainSell& a, const double* x, double* y,
                        std::int64_t s0, std::int64_t s1) {
  for (std::int64_t s = s0; s < s1; ++s) {
    double acc[8] = {};
    for (std::int64_t k = a.sliceptr[s]; k < a.sliceptr[s + 1]; k += 8) {
      for (int l = 0; l < 8; ++l) acc[l] += a.val[k + l] * x[a.col[k + l]];
    }
    for (int l = 0; l < 8; ++l) y[8 * s + l] = acc[l];
  }
}

}  // namespace

void PlainSell::multiply_slices(const double* x, double* y, std::int64_t s0,
                                std::int64_t s1) const {
  static const bool avx512 = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("fma");
  (avx512 ? sell_slices_avx512 : sell_slices_scalar)(*this, x, y, s0, s1);
}

double SellReference::sample() {
  times_.resize(static_cast<std::size_t>(reps_));
  for (int r = reps_ > 1 ? -1 : 0; r < reps_; ++r) {
    const double t0 = now();
    pool_.run(threads_, [&](int t, int nt) {
      const auto [lo, hi] = part(static_cast<std::size_t>(a_.nslices), t, nt);
      a_.multiply_slices(x_.data(), y_.data(), static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi));
    });
    if (r >= 0) times_[static_cast<std::size_t>(r)] = now() - t0;
  }
  return median(times_) * reps_;
}

double KrylovReference::sample() {
  const double t0 = now();
  const std::size_t m = w_.size();
  for (int r = 0; r < reps_; ++r) {
    a_.multiply_rows(v_[0].data(), w_.data(), 0, a_.m);
    for (std::size_t k = 1; k < v_.size(); ++k) {
      const double* v = v_[k].data();
      double d = 0.0;
      for (std::size_t i = 0; i < m; ++i) d += w_[i] * v[i];
      for (std::size_t i = 0; i < m; ++i) w_[i] -= 1e-9 * d * v[i];
    }
  }
  return now() - t0;
}

double CgReference::sample() {
  CvBarrier sync(threads_);
  const double t0 = now();
  pool_.run(threads_, [&](int t, int nt) {
    const auto [lo, hi] = part(static_cast<std::size_t>(a_.m), t, nt);
    auto reduce = [&](double mine) {
      partial_[static_cast<std::size_t>(8 * t)] = mine;
      sync.arrive_and_wait();
      double s = 0.0;
      for (int q = 0; q < nt; ++q) s += partial_[8 * q];
      sync.arrive_and_wait();
      return s;
    };
    for (int it = 0; it < iters_; ++it) {
      a_.multiply_rows(p_.data(), ap_.data(), static_cast<std::int64_t>(lo),
                       static_cast<std::int64_t>(hi));
      double pap = 0.0;
      for (std::size_t i = lo; i < hi; ++i) pap += p_[i] * ap_[i];
      const double alpha = 1e-9 / (1.0 + 1e-9 * reduce(pap));
      double rr = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        x_[i] += alpha * p_[i];
        r_[i] -= alpha * ap_[i];
        rr += r_[i] * r_[i];
      }
      const double beta = 1e-9 / (1.0 + 1e-9 * reduce(rr));
      for (std::size_t i = lo; i < hi; ++i) p_[i] = r_[i] + beta * p_[i];
      sync.arrive_and_wait();  // p complete before the next multiply
    }
  });
  return now() - t0;
}
}  // namespace kb
