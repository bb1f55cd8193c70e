#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/tracer.hpp"

namespace prdma::host {

/// Software-path cost model of one server/client host (provenance for
/// the defaults in DESIGN.md §5).
struct HostParams {
  unsigned cores = 4;                 ///< cores available to RPC workers
  sim::SimTime post_cost = 300;       ///< posting one verb (WQE + doorbell)
  sim::SimTime poll_cost = 250;       ///< detecting work by polling
  sim::SimTime recv_handler_cost = 1600;  ///< two-sided recv dispatch path
  sim::SimTime handler_cost = 1200;   ///< one-sided request parse/bookkeeping
  sim::SimTime dispatch_cost = 3'000;  ///< handing a logged RPC to a worker
                                       ///< thread (§4.2 "a thread is created")
  double memcpy_bw_bytes_per_s = 12e9;    ///< CPU copy bandwidth
  double jitter_sigma = 0.12;             ///< lognormal tail on software paths
};

/// CPU model: a pool of cores plus a background-load multiplier.
///
/// set_load(l) models the paper's "busy" sender/receiver experiments
/// (Figs. 15/16): a compute-intensive background program inflates
/// every software path by (1 + l) and adds scheduling jitter.
class Host {
 public:
  Host(sim::Simulator& sim, sim::Rng& rng, HostParams params)
      : sim_(sim), rng_(rng), params_(params), cores_(sim, params.cores) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const HostParams& params() const { return params_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  void set_load(double load) { load_ = load < 0.0 ? 0.0 : load; }
  [[nodiscard]] double load() const { return load_; }

  /// Attaches a tracer: every exec/sleep charge becomes a span of
  /// `role` on track `track` (run_micro marks client hosts kSenderSw).
  void set_tracer(trace::Tracer* tracer, trace::Component role,
                  std::uint16_t track) {
    tracer_ = tracer;
    trace_role_ = role;
    trace_track_ = track;
  }

  /// A software path of base cost `c`, inflated by background load and
  /// given a latency tail.
  [[nodiscard]] sim::SimTime scaled(sim::SimTime c) {
    const double mult = (1.0 + load_) * rng_.lognormal_jitter(params_.jitter_sigma);
    return static_cast<sim::SimTime>(static_cast<double>(c) * mult);
  }

  /// Occupies one core for the scaled cost (queues FIFO if all cores
  /// are busy). The awaiter lives in the caller's frame, so a charge
  /// allocates nothing.
  class ExecAwaiter : sim::Semaphore::Waiter {
   public:
    ExecAwaiter(Host& host, sim::SimTime base_cost) noexcept
        : Waiter{nullptr, &grant}, host_(host), base_cost_(base_cost) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      if (host_.cores_.try_acquire()) {
        start();
      } else {
        host_.cores_.park(*this);
      }
    }
    void await_resume() const noexcept {}

   private:
    static void grant(Waiter* w) { static_cast<ExecAwaiter*>(w)->start(); }

    /// Runs once a core is held: the jitter draw happens here, at grant
    /// time. The core is released before the caller resumes, so a
    /// queued waiter's handoff is scheduled ahead of anything the
    /// caller schedules next.
    void start() {
      host_.sim_.schedule(host_.charge(base_cost_), [this] {
        host_.cores_.release();
        handle_.resume();
      });
    }

    Host& host_;
    sim::SimTime base_cost_;
    std::coroutine_handle<> handle_{};
  };

  [[nodiscard]] ExecAwaiter exec(sim::SimTime base_cost) {
    return ExecAwaiter{*this, base_cost};
  }

  /// Time passes but no core is consumed (e.g. waiting on a doorbell
  /// that another model component accounts for).
  [[nodiscard]] sim::DelayAwaiter sleep(sim::SimTime base_cost) {
    return sim::delay(sim_, charge(base_cost));
  }

  /// Total software time charged on this host (Fig. 20 accounting).
  [[nodiscard]] std::uint64_t charged_ns() const { return charged_; }

  /// CPU memcpy of `bytes` (core-occupying).
  [[nodiscard]] ExecAwaiter memcpy_exec(std::uint64_t bytes) {
    return exec(memcpy_cost(bytes));
  }

  [[nodiscard]] sim::SimTime memcpy_cost(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, params_.memcpy_bw_bytes_per_s);
  }

  // Convenience costed paths used by every protocol implementation.
  [[nodiscard]] ExecAwaiter charge_post() { return exec(params_.post_cost); }
  [[nodiscard]] ExecAwaiter charge_poll() { return exec(params_.poll_cost); }
  [[nodiscard]] ExecAwaiter charge_recv_handler() {
    return exec(params_.recv_handler_cost);
  }

 private:
  /// Draws the scaled cost of `base_cost`, books it and traces it as a
  /// span starting now.
  sim::SimTime charge(sim::SimTime base_cost) {
    const sim::SimTime c = scaled(base_cost);
    charged_ += c;
    if (tracer_) {
      tracer_->span(trace_role_, 0, sim_.now(), sim_.now() + c, trace_track_);
    }
    return c;
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  HostParams params_;
  sim::Semaphore cores_;
  double load_ = 0.0;
  std::uint64_t charged_ = 0;
  trace::Tracer* tracer_ = nullptr;
  trace::Component trace_role_ = trace::Component::kHostSw;
  std::uint16_t trace_track_ = 0;
};

}  // namespace prdma::host
