#pragma once
// Kestrel Bastion: the in-process multi-tenant solve service.
//
// SolveService owns a bounded request queue and a small worker pool serving
// solves against MatrixRegistry handles. Robustness is the headline, built
// from four mechanisms that compose end-to-end:
//
//   admission control  submit() on a full queue sheds IMMEDIATELY with a
//                      structured RejectedError carrying the observed depth
//                      and a retry-after hint (EWMA of recent service
//                      time), so overload produces fast, parseable "no"s
//                      instead of unbounded queueing.
//   graceful           the LoadWatchdog watches queue occupancy; under
//   degradation        sustained load the service caps max_iterations and
//                      serves ABFT handles through their sampled-
//                      verification twins before it ever sheds.
//   deadlines +        every request runs under a Deadline token threaded
//   cancellation       into the KSP iteration loop (Settings::deadline);
//                      expiry or Ticket::cancel() stops the math at the
//                      next iteration and returns the best iterate with
//                      Status::kDeadlineExceeded.
//   fault isolation    handles are immutable and per-request state is
//                      per-request; an AbftError escalating out of one
//                      tenant's solve maps to Status::kFaulted for that
//                      response only and the worker moves on.
//
// Per-request Scope metrics (queue wait, solve seconds, shed / deadline /
// fault counters) are exported through export_metrics() into the
// kestrel-scope-metrics-v2 stream.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.hpp"
#include "base/options.hpp"
#include "ksp/ksp.hpp"
#include "svc/registry.hpp"
#include "svc/watchdog.hpp"
#include "vec/vector.hpp"

namespace kestrel::prof {
class Profiler;
}

namespace kestrel::svc {

struct ServiceOptions {
  int workers = 2;
  int queue_depth = 8;  ///< max waiting requests (excludes in-service ones)
  /// Applied to requests that do not set their own deadline; 0 = none.
  double default_deadline_s = 0.0;
  /// Degraded mode caps every request's max_iterations at this value.
  int degraded_max_iterations = 100;
  WatchdogOptions watchdog;

  /// Reads -svc_workers, -svc_queue_depth, -svc_deadline_ms,
  /// -svc_mem_budget (MB; applied to MemoryBudget::global()),
  /// -svc_degraded_max_it, -svc_watchdog_high, -svc_watchdog_low,
  /// -svc_watchdog_window.
  static ServiceOptions from_options(const Options& o);
};

enum class Status {
  kOk,                ///< solver finished (converged, or hit its own limits)
  kDeadlineExceeded,  ///< deadline/cancel tripped; x holds the best iterate
  kFaulted,           ///< AbftError escalated out of this tenant's solve
  kFailed,            ///< structured error (unknown handle, bad request, ...)
};

const char* status_name(Status s);

struct SolveRequest {
  std::string handle;            ///< registry name of the operator
  std::string tenant = "default";
  /// A ksp::make_solver name (cg|gmres|fgmres|bicgstab|bcgs|richardson), or
  /// chebyshev, which the service builds itself from cheb_emin/cheb_emax.
  std::string ksp_type = "cg";
  ksp::Settings ksp;
  Vector b;
  /// Wall budget for this request, queue wait included; 0 uses the service
  /// default (which may itself be "none").
  double deadline_s = 0.0;
  /// Spectrum bounds for ksp_type == "chebyshev".
  Scalar cheb_emin = 0.0;
  Scalar cheb_emax = 0.0;
};

struct SolveResponse {
  Status status = Status::kFailed;
  ksp::SolveResult ksp;  ///< valid for kOk and kDeadlineExceeded
  Vector x;              ///< best iterate (kOk / kDeadlineExceeded)
  double queue_wait_s = 0.0;
  double solve_s = 0.0;
  bool degraded = false;  ///< served in watchdog-degraded mode
  std::string error;      ///< what() for kFaulted / kFailed
};

class SolveService {
 public:
  explicit SolveService(MatrixRegistry& registry, ServiceOptions opts = {});
  /// Stops admitting, lets in-flight solves finish (their deadlines bound
  /// that), resolves still-queued requests as kDeadlineExceeded so no
  /// Ticket::wait() hangs, and joins the workers.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Handle to one accepted request.
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until the response is ready (deadlines bound this: a request
    /// under deadline cannot wait forever).
    SolveResponse wait();
    bool done() const;
    /// Cooperative cancel: trips the request's Deadline token; a queued
    /// request resolves without solving, a running one stops at the next
    /// KSP iteration. Idempotent.
    void cancel();

   private:
    friend class SolveService;
    struct Pending;
    explicit Ticket(std::shared_ptr<Pending> p) : p_(std::move(p)) {}
    std::shared_ptr<Pending> p_;
  };

  /// Admission control: throws RejectedError immediately when the queue is
  /// full (or the service is shutting down). Never blocks.
  Ticket submit(SolveRequest req);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;  ///< kOk responses
    std::uint64_t shed = 0;       ///< RejectedError throws out of submit()
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t faulted = 0;
    std::uint64_t failed = 0;
    std::uint64_t degraded_served = 0;
    double total_queue_wait_s = 0.0;
    double total_solve_s = 0.0;
    double ewma_solve_s = 0.0;  ///< the retry-after hint basis
  };
  Stats stats() const;

  const LoadWatchdog& watchdog() const { return watchdog_; }
  const ServiceOptions& options() const { return opts_; }
  int queue_depth() const;

  /// Sets svc/* metrics (accepted, shed, deadline_exceeded, faulted, queue
  /// wait and solve totals, watchdog transitions) on `p` for the
  /// kestrel-scope-metrics-v2 JSON stream.
  void export_metrics(prof::Profiler& p) const;

 private:
  void worker_main();
  SolveResponse serve(Ticket::Pending& pending, bool degraded);

  MatrixRegistry& registry_;
  ServiceOptions opts_;
  LoadWatchdog watchdog_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<std::shared_ptr<Ticket::Pending>> queue_;
  bool stop_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace kestrel::svc
