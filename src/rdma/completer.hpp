#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "rnic/completion.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace prdma::rdma {

/// Demultiplexes one completion queue into per-work-request futures.
///
/// Protocol coroutines post several outstanding verbs on one QP and
/// await each completion by wr_id; a single dispatcher task drains the
/// CQ channel and resolves the matching waiter (or stashes the WC if
/// the waiter has not arrived yet).
///
/// Lifetime: the dispatcher coroutine co-owns the internal state via a
/// shared_ptr, so a Completer can be destroyed (e.g. replaced during
/// crash recovery) while its dispatcher is still parked on the CQ
/// channel — the dispatcher observes the stop flag on its next wake
/// and winds down without touching freed memory.
class Completer {
 public:
  Completer(sim::Simulator& sim, rnic::Cq& cq)
      : state_(std::make_shared<State>(sim, cq)) {
    sim::spawn(run(state_));
  }

  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  ~Completer() {
    state_->stopped = true;
    abort_waiters(*state_);
  }

  /// Resolves with the completion for `wr_id`. Each wr_id must be
  /// awaited at most once. Returns std::nullopt if the CQ was torn
  /// down (crash) before the completion arrived.
  sim::Task<std::optional<rnic::Wc>> wait(std::uint64_t wr_id) {
    // Keep the state alive for the whole await, even if the Completer
    // object itself is destroyed mid-flight (crash recovery).
    const std::shared_ptr<State> st = state_;
    if (const auto it = find_ready(*st, wr_id); it != st->ready.end()) {
      const rnic::Wc wc = it->second;
      *it = st->ready.back();
      st->ready.pop_back();
      co_return wc;
    }
    if (st->stopped) co_return std::nullopt;
    Waiter w{sim::Event(st->sim), {}};
    st->waiters.insert(waiter_at_or_after(*st, wr_id), {wr_id, &w});
    const bool ok = co_await w.event.wait();
    erase_waiter(*st, wr_id);
    if (!ok || !w.result.has_value()) co_return std::nullopt;
    co_return w.result;
  }

  /// Crash path: fail every currently-parked waiter immediately. A CQ
  /// reset alone can be swallowed when a completion is already in
  /// flight to the dispatcher (the channel wake for that completion
  /// races the reset), leaving waiters parked forever; callers tearing
  /// down an endpoint pair the reset with this.
  void fail_pending() { abort_waiters(*state_); }

  /// Allocates a fresh work-request id.
  std::uint64_t fresh_wr() { return state_->next_wr++; }

  /// First wr id a future fresh_wr() would hand out.
  [[nodiscard]] std::uint64_t next_wr() const { return state_->next_wr; }

  /// Recovery: a successor completer must never reuse a predecessor's
  /// wr ids — a stale completion that raced the teardown would match a
  /// fresh post and acknowledge it without any wire round-trip.
  void advance_wr(std::uint64_t floor) {
    if (state_->next_wr < floor) state_->next_wr = floor;
  }

  /// wr_id for fire-and-forget posts: the dispatcher discards its
  /// completion instead of stashing it forever.
  static constexpr std::uint64_t kSilentWr = 0;

 private:
  struct Waiter {
    sim::Event event;
    std::optional<rnic::Wc> result;
  };

  using ReadyList = std::vector<std::pair<std::uint64_t, rnic::Wc>>;
  using WaiterList = std::vector<std::pair<std::uint64_t, Waiter*>>;

  struct State {
    State(sim::Simulator& s, rnic::Cq& q) : sim(s), cq(q) {}
    sim::Simulator& sim;
    rnic::Cq& cq;
    bool stopped = false;
    std::uint64_t next_wr = 1;
    /// Completions that arrived before their waiter (any order), and
    /// parked waiters sorted by wr_id. Each holds about one entry per
    /// outstanding verb, so flat vectors searched in place stop
    /// allocating once they reach their high-water mark.
    ReadyList ready;
    WaiterList waiters;
    /// abort_waiters()' snapshot, kept for its capacity.
    WaiterList aborting;
  };

  static ReadyList::iterator find_ready(State& st, std::uint64_t wr_id) {
    return std::find_if(st.ready.begin(), st.ready.end(),
                        [wr_id](const auto& e) { return e.first == wr_id; });
  }

  static WaiterList::iterator waiter_at_or_after(State& st,
                                                 std::uint64_t wr_id) {
    return std::lower_bound(
        st.waiters.begin(), st.waiters.end(), wr_id,
        [](const auto& e, std::uint64_t id) { return e.first < id; });
  }

  static void erase_waiter(State& st, std::uint64_t wr_id) {
    const auto it = waiter_at_or_after(st, wr_id);
    if (it != st.waiters.end() && it->first == wr_id) st.waiters.erase(it);
  }

  static void abort_waiters(State& st) {
    // Waiters erase themselves on resume; abort them from a snapshot,
    // in wr_id order.
    st.aborting.swap(st.waiters);
    for (auto& [id, w] : st.aborting) w->event.abort();
    st.aborting.clear();
  }

  static sim::Task<> run(std::shared_ptr<State> st) {
    for (;;) {
      auto wc = co_await st->cq.channel().recv();
      if (st->stopped) {
        // Owner replaced this completer (crash recovery). A value we
        // were woken with belongs to the successor — hand it back.
        if (wc.has_value()) st->cq.channel().send(*wc);
        co_return;
      }
      if (!wc.has_value()) break;  // CQ closed or crash-reset
      if (wc->wr_id == kSilentWr) continue;  // fire-and-forget post
      if (const auto it = waiter_at_or_after(*st, wc->wr_id);
          it != st->waiters.end() && it->first == wc->wr_id) {
        it->second->result = *wc;
        it->second->event.set();
        st->waiters.erase(it);
      } else if (find_ready(*st, wc->wr_id) == st->ready.end()) {
        st->ready.emplace_back(wc->wr_id, *wc);  // first one wins
      }
    }
    // Wake any remaining waiters with "no completion".
    abort_waiters(*st);
  }

  std::shared_ptr<State> state_;
};

}  // namespace prdma::rdma
