#pragma once
// Benchmark-owned machinery: clock, seeded input generator, statistics,
// the reference kernels every timed unit of program work is paired with,
// and the in-memory span recorder of traced runs. Nothing here calls into
// the library, so a change to the program cannot move a reference.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace kb {

/// Wall clock. Every program unit and reference sample is timed with it.
inline double now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process, all threads: kept beside each wall
/// time as a raw figure, never paired.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Steal of the whole machine so far, in clock ticks: the "steal" column of
/// the cpu line of /proc/stat, time the hypervisor ran other guests on our
/// vCPUs. 0 where that file cannot be read.
inline long long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int got =
      std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// Share of the machine's CPU time that may be stolen during a timed pair
/// before the pair is dropped, on top of one tick of rounding.
constexpr double kStealShare = 0.03;

/// Steal over a window of wall time: a pair (reference samples and the
/// program unit between them) is dropped when its window saw more steal
/// than kStealShare of every vCPU's time, plus one tick.
class StealWindow {
 public:
  StealWindow() { restart(); }
  void restart() {
    s0_ = steal_ticks();
    w0_ = now();
  }
  long long ticks() const { return steal_ticks() - s0_; }
  bool stolen() const {
    static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    static const double ncpu =
        std::max(1u, std::thread::hardware_concurrency());
    const double allowed = kStealShare * (now() - w0_) * ncpu / tick_s;
    return static_cast<double>(ticks()) > 1.0 + allowed;
  }

 private:
  long long s0_ = 0;
  double w0_ = 0.0;
};

/// splitmix64: the benchmark's own input generator (same seed, same inputs).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Fixed worker threads for the reference kernels and the output checks.
/// The caller is thread 0; run() returns after every thread finished.
class RefPool {
 public:
  explicit RefPool(int nthreads) : n_(nthreads) {
    for (int t = 1; t < n_; ++t) workers_.emplace_back([this, t] { loop(t); });
  }
  ~RefPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      ++epoch_;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;

  int size() const { return n_; }

  /// Runs fn(tid, nthreads) on `use` threads (1 <= use <= size()).
  void run(int use, const std::function<void(int, int)>& fn) {
    if (use <= 1) {
      fn(0, 1);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      use_ = use;
      pending_ = use - 1;
      ++epoch_;
    }
    cv_.notify_all();
    fn(0, use);
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [this] { return pending_ == 0; });
  }

 private:
  void loop(int tid) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int, int)>* fn;
      int use;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return epoch_ != seen; });
        seen = epoch_;
        if (stop_) return;
        fn = fn_;
        use = use_;
      }
      if (tid < use) {
        (*fn)(tid, use);
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0) done_.notify_one();
      }
    }
  }

  int n_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_, done_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  const std::function<void(int, int)>* fn_ = nullptr;
  int use_ = 1;
  int pending_ = 0;
};

/// [begin, end) of part `t` of `n` equal parts of [0, total).
inline std::pair<std::size_t, std::size_t> part(std::size_t total, int t,
                                                int n) {
  return {total * t / n, total * (t + 1) / n};
}

/// A reference kernel: one timed sample, and the nominal time of that
/// sample at the reference's stated speed (see README, "Nominal
/// references"). Paired metrics are program time / adjacent sample time,
/// times `nominal_s`.
class Reference {
 public:
  virtual ~Reference() = default;
  virtual double sample() = 0;      ///< wall seconds for one sample
  virtual double nominal_s() const = 0;
  virtual double work() const = 0;  ///< bytes (triad) or flops (CSR)
};

/// The three arrays of a STREAM triad, first-touched by the pool threads.
struct TriadArrays {
  TriadArrays(RefPool& pool, std::size_t n) : n(n), a(n), b(n), c(n) {
    pool.run(pool.size(), [&](int t, int nt) {
      const auto [lo, hi] = part(n, t, nt);
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = 0.0;
        b[i] = 1.0 + 1e-9 * static_cast<double>(i % 1000);
        c[i] = 2.0;
      }
    });
  }
  std::size_t n;
  std::vector<double> a, b, c;
};

/// STREAM triad a = b + s*c, `reps` times per sample on `threads` pool
/// threads. Bytes follow the STREAM convention: 24 per element (the
/// write-allocate read of a is not counted).
class Triad final : public Reference {
 public:
  Triad(RefPool& pool, std::shared_ptr<TriadArrays> arrays, int threads,
        int reps, double nominal_gbs)
      : pool_(pool), arr_(std::move(arrays)), threads_(threads), reps_(reps),
        nominal_gbs_(nominal_gbs) {}
  /// reps x the median time of one triad, so one preempted rep does not
  /// move the sample. With reps > 1 (cache-resident arrays) one untimed
  /// triad first brings the arrays back into cache.
  double sample() override;
  double work() const override { return 24.0 * arr_->n * reps_; }
  double nominal_s() const override { return work() / (nominal_gbs_ * 1e9); }

 private:
  RefPool& pool_;
  std::shared_ptr<TriadArrays> arr_;
  int threads_;
  int reps_;
  double nominal_gbs_;
  std::vector<double> times_;
};

/// Benchmark-owned copy of a CSR matrix and a plain row-loop multiply.
struct PlainCsr {
  std::int64_t m = 0, n = 0;
  std::vector<std::int64_t> rowptr;
  std::vector<std::int32_t> col;
  std::vector<double> val;

  void multiply_rows(const double* x, double* y, std::int64_t r0,
                     std::int64_t r1) const;
  std::int64_t nnz() const { return rowptr.empty() ? 0 : rowptr[m]; }
};

/// Plain CSR multiply of a benchmark-owned matrix copy, `reps` times per
/// sample, on `threads` pool threads.
class CsrReference final : public Reference {
 public:
  CsrReference(RefPool& pool, int threads, PlainCsr a, int reps,
               double nominal_gflops)
      : pool_(pool), threads_(threads), a_(std::move(a)), reps_(reps),
        nominal_gflops_(nominal_gflops), x_(a_.n, 1.0), y_(a_.m, 0.0) {
    for (std::int64_t i = 0; i < a_.n; ++i) x_[i] = 1.0 + 1e-3 * (i % 7);
  }
  /// reps x the median time of one multiply, after one untimed multiply
  /// when reps > 1 (as Triad::sample).
  double sample() override;
  double work() const override { return 2.0 * a_.nnz() * reps_; }
  double nominal_s() const override {
    return work() / (nominal_gflops_ * 1e9);
  }

 private:
  RefPool& pool_;
  int threads_;
  PlainCsr a_;
  int reps_;
  double nominal_gflops_;
  std::vector<double> x_, y_;
  std::vector<double> times_;
};

/// Benchmark-owned SELL-8 copy of a PlainCsr: slices of 8 rows stored
/// column-major, each padded to its longest row with zeros at column 0,
/// and rows padded to a whole slice.
struct PlainSell {
  explicit PlainSell(const PlainCsr& a);
  /// y[8 s0, 8 s1) of y = A x: per slice, one 8-wide gather of x and one
  /// fused multiply-add per column where the CPU has AVX-512, as the
  /// program's SELL kernel does, else a scalar loop.
  void multiply_slices(const double* x, double* y, std::int64_t s0,
                       std::int64_t s1) const;

  std::int64_t m = 0, n = 0, nnz = 0, nslices = 0;
  std::vector<std::int64_t> sliceptr;
  std::vector<std::int32_t> col;
  std::vector<double> val;
};

/// SELL multiply of a benchmark-owned matrix copy, `reps` times per
/// sample, on `threads` pool threads (whole slices per thread). It is the
/// reference of the end-to-end multiplies at cache scale: a gather-and-FMA
/// loop moves with the host's speed modes as the program's SELL kernel
/// does, where a scalar CSR loop does not (README, "Nominal references").
class SellReference final : public Reference {
 public:
  SellReference(RefPool& pool, int threads, const PlainCsr& a, int reps,
                double nominal_gflops)
      : pool_(pool), threads_(threads), a_(a), reps_(reps),
        nominal_gflops_(nominal_gflops), x_(a_.n), y_(8 * a_.nslices) {
    for (std::int64_t i = 0; i < a_.n; ++i) x_[i] = 1.0 + 1e-3 * (i % 7);
  }
  /// reps x the median time of one multiply, after one untimed multiply
  /// when reps > 1 (as CsrReference::sample).
  double sample() override;
  double work() const override { return 2.0 * a_.nnz * reps_; }
  double nominal_s() const override {
    return work() / (nominal_gflops_ * 1e9);
  }

 private:
  RefPool& pool_;
  int threads_;
  PlainSell a_;
  int reps_;
  double nominal_gflops_;
  std::vector<double> x_, y_;
  std::vector<double> times_;
};

/// A GMRES-shaped reference: one plain CSR multiply followed by a
/// Gram–Schmidt sweep of the result against `basis` vectors of the same
/// length (a dot and an axpy each), `reps` times per sample, one thread.
class KrylovReference final : public Reference {
 public:
  KrylovReference(PlainCsr a, int basis, int reps, double nominal_gflops)
      : a_(std::move(a)), reps_(reps), nominal_gflops_(nominal_gflops),
        v_(static_cast<std::size_t>(basis) + 1,
           std::vector<double>(static_cast<std::size_t>(a_.n))),
        w_(static_cast<std::size_t>(a_.m)) {
    for (std::size_t k = 0; k < v_.size(); ++k) {
      for (std::size_t i = 0; i < v_[k].size(); ++i) {
        v_[k][i] = 1e-3 * static_cast<double>((i + 7 * k) % 13);
      }
    }
  }
  double sample() override;
  double work() const override {
    return (2.0 * a_.nnz() + 4.0 * a_.m * (v_.size() - 1)) * reps_;
  }
  double nominal_s() const override {
    return work() / (nominal_gflops_ * 1e9);
  }

 private:
  PlainCsr a_;
  int reps_;
  double nominal_gflops_;
  std::vector<std::vector<double>> v_;
  std::vector<double> w_;
};

/// A reusable barrier on a mutex and condition variable, the mechanism the
/// fabric's collectives wait on.
class CvBarrier {
 public:
  explicit CvBarrier(int n) : n_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    const std::uint64_t gen = gen_;
    if (++count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return gen_ != gen; });
  }

 private:
  int n_;
  int count_ = 0;
  std::uint64_t gen_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// A CG-shaped reference on `threads` pool threads: per iteration each
/// thread multiplies its rows of a plain CSR matrix, then two barrier-
/// synchronised reductions and three axpys, like one iteration of a
/// distributed CG; `iters` iterations per sample. The barriers wait on a
/// condition variable, as the fabric's reductions do.
class CgReference final : public Reference {
 public:
  CgReference(RefPool& pool, int threads, PlainCsr a, int iters,
              double nominal_gflops)
      : pool_(pool), threads_(threads), a_(std::move(a)), iters_(iters),
        nominal_gflops_(nominal_gflops), p_(a_.n, 1.0), ap_(a_.m),
        r_(a_.m, 1.0), x_(a_.m), partial_(64) {
    for (std::int64_t i = 0; i < a_.n; ++i) p_[i] = 1.0 + 1e-3 * (i % 5);
  }
  double sample() override;
  double work() const override {
    return (2.0 * a_.nnz() + 10.0 * a_.m) * iters_;
  }
  double nominal_s() const override {
    return work() / (nominal_gflops_ * 1e9);
  }

 private:
  RefPool& pool_;
  int threads_;
  PlainCsr a_;
  int iters_;
  double nominal_gflops_;
  std::vector<double> p_, ap_, r_, x_;
  std::vector<double> partial_;  ///< one cache line per thread
};

/// One paired measurement series: program wall seconds, the mean of the
/// reference samples taken right before and right after each of them, the
/// program's CPU seconds (a raw figure), and whether the pair's window saw
/// too much steal. Statistics use the pairs that were not stolen, or every
/// pair when all were.
struct Series {
  std::vector<double> t, ref, cpu;
  std::vector<bool> stolen;
  void add(double t_wall, double ref_before, double ref_after, double t_cpu,
           bool was_stolen) {
    t.push_back(t_wall);
    ref.push_back(0.5 * (ref_before + ref_after));
    cpu.push_back(t_cpu);
    stolen.push_back(was_stolen);
  }
  std::size_t kept() const {
    return static_cast<std::size_t>(
        std::count(stolen.begin(), stolen.end(), false));
  }
  std::size_t size() const { return t.size(); }
  /// The entries of `v` of the pairs the statistics use.
  std::vector<double> used(const std::vector<double>& v) const {
    if (kept() == 0) return v;
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!stolen[i]) out.push_back(v[i]);
    }
    return out;
  }
  std::vector<double> ratios() const {
    std::vector<double> r(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) r[i] = t[i] / ref[i];
    return used(r);
  }
  /// Median paired time at the reference's nominal speed.
  double paired_s(double nominal_s) const {
    return median(ratios()) * nominal_s;
  }
  double raw_wall_s() const { return median(used(t)); }
  double raw_cpu_s() const { return median(used(cpu)); }
  double ref_s() const { return median(used(ref)); }
};

/// One unit of program work timed between reference samples.
struct Bracketed {
  double t;     ///< program wall seconds
  double ref;   ///< mean of the medians of the samples before and after
  double cpu;   ///< program CPU seconds (raw)
  bool stolen;  ///< the window saw more steal than StealWindow allows
  int tries = 1;
};

/// Times one call of fn bracketed by reference samples (median of `k` on
/// each side).
inline Bracketed bracket(Reference& ref, int k,
                         const std::function<void()>& fn) {
  const StealWindow window;
  std::vector<double> before, after;
  for (int i = 0; i < k; ++i) before.push_back(ref.sample());
  const double c0 = cpu_now();
  const double t0 = now();
  fn();
  const double t = now() - t0;
  const double cpu = cpu_now() - c0;
  for (int i = 0; i < k; ++i) after.push_back(ref.sample());
  return {t, 0.5 * (median(before) + median(after)), cpu, window.stolen(), 1};
}

/// Up to this many tries of a repeatable unit whose window was stolen.
constexpr int kMaxTries = 4;

/// bracket() of a repeatable unit, done again while its window was stolen
/// (at most kMaxTries times; the last try is kept either way).
inline Bracketed bracket_redo(Reference& ref, int k,
                              const std::function<void()>& fn) {
  Bracketed b{};
  for (int i = 1; i <= kMaxTries; ++i) {
    b = bracket(ref, k, fn);
    b.tries = i;
    if (!b.stolen) break;
  }
  return b;
}

// ---- traced runs -----------------------------------------------------------

/// Spans (name, start, end, parent) held in memory and written out when
/// the run ends. Single recording thread; other threads do not record.
class Tracer {
 public:
  struct Span {
    const char* name;
    double t0, t1;
    int parent;
  };

  void reserve(std::size_t n) { spans_.reserve(n); }
  /// True on the recording thread while tracing is on.
  bool on() const { return on_ && std::this_thread::get_id() == owner_; }
  /// Turns tracing on or off, with the calling thread as the recorder.
  void set_on(bool on) {
    on_ = on;
    owner_ = std::this_thread::get_id();
  }

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t mark() const { return spans_.size(); }

 private:
  bool on_ = false;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; records nothing unless the tracer is on.
class Scope {
 public:
  explicit Scope(const char* name)
      : id_(tracer().on() ? tracer().open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace kb
