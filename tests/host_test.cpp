// Tests for the host/CPU model: core contention, background-load
// inflation and cost accounting.

#include <gtest/gtest.h>

#include <coroutine>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "host/host.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace prdma::host {
namespace {

using namespace prdma::sim::literals;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

struct HostFixture : ::testing::Test {
  Simulator sim;
  sim::Rng rng{3};
  HostParams params;
  HostFixture() { params.jitter_sigma = 0.0; }
};

TEST_F(HostFixture, ExecTakesScaledTime) {
  Host host(sim, rng, params);
  SimTime done = 0;
  sim::spawn([](Simulator& s, Host& h, SimTime& out) -> Task<> {
    co_await h.exec(10_us);
    out = s.now();
  }(sim, host, done));
  sim.run();
  EXPECT_EQ(done, 10_us);
  EXPECT_EQ(host.charged_ns(), 10'000u);
}

TEST_F(HostFixture, BackgroundLoadInflatesCosts) {
  Host host(sim, rng, params);
  host.set_load(3.0);
  EXPECT_DOUBLE_EQ(host.load(), 3.0);
  SimTime done = 0;
  sim::spawn([](Simulator& s, Host& h, SimTime& out) -> Task<> {
    co_await h.exec(10_us);
    out = s.now();
  }(sim, host, done));
  sim.run();
  EXPECT_EQ(done, 40_us);  // (1 + load) multiplier
}

TEST_F(HostFixture, NegativeLoadClampsToZero) {
  Host host(sim, rng, params);
  host.set_load(-5.0);
  EXPECT_DOUBLE_EQ(host.load(), 0.0);
}

TEST_F(HostFixture, CoresLimitParallelExec) {
  params.cores = 2;
  Host host(sim, rng, params);
  SimTime last_done = 0;
  for (int i = 0; i < 4; ++i) {
    sim::spawn([](Simulator& s, Host& h, SimTime& out) -> Task<> {
      co_await h.exec(100_us);
      out = s.now();
    }(sim, host, last_done));
  }
  sim.run();
  // 4 tasks of 100us on 2 cores -> 200us wall.
  EXPECT_EQ(last_done, 200_us);
}

TEST_F(HostFixture, SleepDoesNotOccupyCore) {
  params.cores = 1;
  Host host(sim, rng, params);
  SimTime exec_done = 0;
  sim::spawn([](Host& h, Simulator& s, SimTime& out) -> Task<> {
    co_await h.sleep(100_us);  // no core held
    out = s.now();
    (void)out;
  }(host, sim, exec_done));
  sim::spawn([](Host& h, Simulator& s, SimTime& out) -> Task<> {
    co_await h.exec(10_us);
    out = s.now();
  }(host, sim, exec_done));
  sim.run();
  // The exec finished at 10us despite the concurrent 100us sleep.
  EXPECT_EQ(exec_done, 100_us);  // last write wins: sleep ends later
}

TEST_F(HostFixture, MemcpyCostMatchesBandwidth) {
  Host host(sim, rng, params);
  // 12 GB/s -> 12 bytes/ns; 12,000 bytes -> 1000 ns.
  EXPECT_EQ(host.memcpy_cost(12'000), 1000u);
  SimTime done = 0;
  sim::spawn([](Simulator& s, Host& h, SimTime& out) -> Task<> {
    co_await h.memcpy_exec(12'000);
    out = s.now();
  }(sim, host, done));
  sim.run();
  EXPECT_EQ(done, 1000u);
}

TEST_F(HostFixture, JitterVariesCostsAroundBase) {
  params.jitter_sigma = 0.2;
  Host host(sim, rng, params);
  double total = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(host.scaled(1000));
  }
  EXPECT_NEAR(total / n, 1020.0, 60.0);  // lognormal mean ~ exp(s^2/2)
}

TEST_F(HostFixture, ChargeHelpersUseParams) {
  Host host(sim, rng, params);
  sim::spawn([](Host& h) -> Task<> {
    co_await h.charge_post();
    co_await h.charge_poll();
    co_await h.charge_recv_handler();
  }(host));
  sim.run();
  EXPECT_EQ(host.charged_ns(), params.post_cost + params.poll_cost +
                                   params.recv_handler_cost);
}


// ------------------------------------------------ differential reference

/// The coroutine implementation of Host::exec that ExecAwaiter
/// replaced, kept as the reference: a FIFO semaphore over a deque of
/// handles (handoff through a 0-delay event), acquire, RAII release,
/// jitter draw at grant time, delay. Its scheduling is independent of sim::Semaphore,
/// so a change in either the awaiter or the waiter queue shows up.
class ReferenceCores {
 public:
  ReferenceCores(Simulator& sim, unsigned cores) : sim_(sim), count_(cores) {}

  void release() {
    if (!waiters_.empty()) {
      const std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule(0, [h] { h.resume(); });
      return;
    }
    ++count_;
  }

  struct Acquire {
    ReferenceCores& cores;
    bool await_ready() const noexcept {
      if (cores.count_ == 0) return false;
      --cores.count_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cores.waiters_.push_back(h);
      ++cores.parked_;
    }
    void await_resume() const noexcept {}
  };
  Acquire acquire() { return Acquire{*this}; }
  /// Acquires that had to queue.
  [[nodiscard]] std::uint64_t parked() const { return parked_; }

 private:
  Simulator& sim_;
  unsigned count_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::uint64_t parked_ = 0;
};

/// Host's interface over the reference: the coroutines below are the
/// old bodies of exec, sleep and the one-line wrappers (each wrapper a
/// second frame around exec).
class ReferenceHost {
 public:
  ReferenceHost(Simulator& s, sim::Rng& rng, const HostParams& p)
      : sim_(s), model_(s, rng, p), cores_(s, p.cores) {}

  void set_load(double load) { model_.set_load(load); }
  [[nodiscard]] std::uint64_t charged_ns() const { return charged_; }
  [[nodiscard]] const ReferenceCores& cores() const { return cores_; }

  Task<> exec(SimTime base_cost) {
    co_await cores_.acquire();
    ReleaseOnExit guard{cores_};
    const SimTime c = model_.scaled(base_cost);
    charged_ += c;
    co_await sim::delay(sim_, c);
  }
  Task<> sleep(SimTime base_cost) {
    const SimTime c = model_.scaled(base_cost);
    charged_ += c;
    co_await sim::delay(sim_, c);
  }
  Task<> memcpy_exec(std::uint64_t bytes) {
    co_await exec(model_.memcpy_cost(bytes));
  }
  Task<> charge_post() { co_await exec(model_.params().post_cost); }
  Task<> charge_poll() { co_await exec(model_.params().poll_cost); }
  Task<> charge_recv_handler() {
    co_await exec(model_.params().recv_handler_cost);
  }

 private:
  struct ReleaseOnExit {
    ReferenceCores& cores;
    ~ReleaseOnExit() { cores.release(); }
  };

  Simulator& sim_;
  Host model_;  ///< only its scaled() is used: same Rng, params and load
  ReferenceCores cores_;
  std::uint64_t charged_ = 0;
};

enum class StepKind { kExec, kSleep, kPost, kPoll, kRecvHandler, kMemcpy };
struct Step {
  StepKind kind;
  std::uint64_t arg;  ///< base cost in ns, or bytes for kMemcpy
};
struct Script {
  SimTime begin;
  std::vector<Step> steps;
};
using Spans = std::vector<std::pair<SimTime, SimTime>>;  ///< (issue, finish)

template <typename Model>
Task<> drive(Simulator& s, Model& h, const Script& script, Spans& out) {
  co_await sim::delay(s, script.begin);
  for (const Step& st : script.steps) {
    const SimTime t0 = s.now();
    switch (st.kind) {
      case StepKind::kExec: co_await h.exec(st.arg); break;
      case StepKind::kSleep: co_await h.sleep(st.arg); break;
      case StepKind::kPost: co_await h.charge_post(); break;
      case StepKind::kPoll: co_await h.charge_poll(); break;
      case StepKind::kRecvHandler: co_await h.charge_recv_handler(); break;
      case StepKind::kMemcpy: co_await h.memcpy_exec(st.arg); break;
    }
    out.emplace_back(t0, s.now());
  }
}

/// Another model component sharing the node's Rng (as the RNIC does):
/// its draws interleave with the host's jitter draws by event order.
Task<> foreign_draws(Simulator& s, sim::Rng& rng, std::vector<SimTime> gaps) {
  for (const SimTime gap : gaps) {
    co_await sim::delay(s, gap);
    (void)rng.next_u64();
  }
}

struct Outcome {
  std::vector<Spans> spans;
  std::uint64_t charged = 0;
  std::uint64_t events = 0;
  std::uint64_t next_draw = 0;
  std::uint64_t parked = 0;  ///< reference only
};

template <typename Model>
Outcome run_model(std::uint64_t seed, const HostParams& params, double load,
                  const std::vector<Script>& scripts,
                  const std::vector<SimTime>& foreign_gaps) {
  Simulator sim;
  sim::Rng rng{seed};
  Model host(sim, rng, params);
  host.set_load(load);
  Outcome out;
  out.spans.resize(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    sim::spawn(drive(sim, host, scripts[i], out.spans[i]));
  }
  sim::spawn(foreign_draws(sim, rng, foreign_gaps));
  sim.run();
  out.charged = host.charged_ns();
  if constexpr (std::is_same_v<Model, ReferenceHost>) {
    out.parked = host.cores().parked();
  }
  out.events = sim.events_executed();
  out.next_draw = rng.next_u64();
  return out;
}

TEST(HostDifferential, ExecAwaiterMatchesTheCoroutineReference) {
  std::uint64_t parked = 0;
  for (const unsigned cores : {1u, 2u, 4u}) {
    for (const double load : {0.0, 1.5}) {
      for (const std::uint64_t seed : {11u, 12u, 13u}) {
        // The script is drawn from its own stream, so both runs see the
        // same tasks; the jitter comes from the shared per-run Rng.
        sim::Rng gen{seed * 7919 + cores};
        std::vector<Script> scripts(56);
        for (Script& sc : scripts) {
          sc.begin = gen.uniform(0, 20'000);
          const std::uint64_t n = gen.uniform(4, 14);
          for (std::uint64_t k = 0; k < n; ++k) {
            const auto kind = static_cast<StepKind>(gen.uniform(0, 5));
            const std::uint64_t arg = kind == StepKind::kMemcpy
                                          ? gen.uniform(64, 65'536)
                                          : gen.uniform(0, 4'000);
            sc.steps.push_back({kind, arg});
          }
        }
        std::vector<SimTime> gaps(300);
        for (SimTime& g : gaps) g = gen.uniform(0, 700);

        HostParams params;
        params.cores = cores;
        params.jitter_sigma = 0.12;
        const Outcome got = run_model<Host>(seed, params, load, scripts, gaps);
        const Outcome want =
            run_model<ReferenceHost>(seed, params, load, scripts, gaps);

        SCOPED_TRACE(::testing::Message() << "cores " << cores << " load "
                                          << load << " seed " << seed);
        ASSERT_EQ(got.spans.size(), want.spans.size());
        for (std::size_t i = 0; i < want.spans.size(); ++i) {
          ASSERT_EQ(got.spans[i], want.spans[i]) << "task " << i;
        }
        EXPECT_EQ(got.charged, want.charged);
        EXPECT_EQ(got.events, want.events);
        EXPECT_EQ(got.next_draw, want.next_draw);
        parked += want.parked;
      }
    }
  }
  // Contention is what separates FIFO from LIFO handoff and release
  // order: the mix must actually queue on the cores.
  EXPECT_GT(parked, 1000u);
}

}  // namespace
}  // namespace prdma::host
