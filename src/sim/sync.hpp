#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace prdma::sim {

/// One-shot (resettable) event for task synchronization.
///
/// Waiters resume through the event queue at the signalling timestamp,
/// never inline, which keeps resume order deterministic and the native
/// stack flat. wait() resumes with `true` on set() and `false` on
/// abort() — the abort path models node crashes tearing down pending
/// operations without destroying the synchronization object itself.
class Event {
 public:
  explicit Event(Simulator& sim) noexcept : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const noexcept { return set_; }

  void set() { fire(true); }
  void abort() { fire(false); }

  /// Re-arms an already fired event.
  void reset() noexcept { set_ = false; }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return (first_ != nullptr ? 1 : 0) + more_.size();
  }

  class Awaiter {
   public:
    explicit Awaiter(Event& ev) noexcept : ev_(ev) {}
    bool await_ready() const noexcept { return ev_.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      if (ev_.first_ == nullptr) {
        ev_.first_ = this;
      } else {
        ev_.more_.push_back(this);
      }
    }
    bool await_resume() const noexcept { return ok_; }

   private:
    friend class Event;
    Event& ev_;
    std::coroutine_handle<> handle_{};
    bool ok_ = true;
  };

  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  void fire(bool ok) {
    if (ok) set_ = true;
    Awaiter* const first = std::exchange(first_, nullptr);
    if (first == nullptr) return;
    std::vector<Awaiter*> more;
    more.swap(more_);
    resume_later(first, ok);
    for (Awaiter* w : more) resume_later(w, ok);
  }

  void resume_later(Awaiter* w, bool ok) {
    w->ok_ = ok;
    sim_.schedule(0, [h = w->handle_] { h.resume(); });
  }

  Simulator& sim_;
  bool set_ = false;
  /// Waiters in arrival order: the first inline (most events have
  /// exactly one, and a fresh Event per wait must not allocate), the
  /// rest in `more_`, which is empty whenever `first_` is null.
  Awaiter* first_ = nullptr;
  std::vector<Awaiter*> more_;
};

namespace detail {

/// FIFO of parked waiters linked through their own `next` field. The
/// nodes live in the waiting coroutines' frames, so parking and
/// waking never allocate.
template <typename Node>
class IntrusiveFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  void push_back(Node* n) noexcept {
    n->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
  }

  /// Precondition: !empty().
  Node* pop_front() noexcept {
    Node* const n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

}  // namespace detail

/// Unbounded FIFO channel between simulation tasks.
///
/// recv() yields std::nullopt once the channel is closed and drained
/// (or was reset while waiting). send() never blocks; backpressure in
/// the models is expressed explicitly (flow-control thresholds), not by
/// channel capacity.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) noexcept : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T v) {
    if (closed_) return;  // messages to a closed channel are dropped
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.pop_front();
      w->slot_ = std::move(v);
      sim_.schedule(0, [h = w->handle_] { h.resume(); });
      return;
    }
    queue_.push_back(std::move(v));
  }

  /// Closes the channel: queued items remain receivable; once drained,
  /// recv() returns std::nullopt. Pending waiters wake with nullopt.
  void close() {
    closed_ = true;
    wake_all_empty();
  }

  /// Crash helper: drops queued items and wakes waiters with nullopt,
  /// then re-opens the channel for the post-restart epoch.
  void reset() {
    queue_.clear();
    wake_all_empty();
    closed_ = false;
  }

  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    std::optional<T> v{std::move(queue_.front())};
    queue_.pop_front();
    return v;
  }

  class RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel& ch) noexcept : ch_(ch) {}
    bool await_ready() const noexcept { return !ch_.queue_.empty() || ch_.closed_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ch_.waiters_.push_back(this);
    }
    std::optional<T> await_resume() {
      if (slot_.has_value()) return std::move(slot_);
      return ch_.try_recv();
    }

   private:
    friend class Channel;
    friend class detail::IntrusiveFifo<RecvAwaiter>;
    Channel& ch_;
    std::coroutine_handle<> handle_{};
    std::optional<T> slot_;
    RecvAwaiter* next = nullptr;
  };

  [[nodiscard]] RecvAwaiter recv() noexcept { return RecvAwaiter{*this}; }

 private:
  /// Wakes every waiter in arrival order. Resumption goes through the
  /// event queue, so none of them can re-park before the list drains.
  void wake_all_empty() {
    while (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.pop_front();
      sim_.schedule(0, [h = w->handle_] { h.resume(); });
    }
  }

  Simulator& sim_;
  bool closed_ = false;
  RingQueue<T> queue_;
  detail::IntrusiveFifo<RecvAwaiter> waiters_;
};

/// Counting semaphore for tasks; models bounded resources such as CPU
/// cores, DMA engines and flow-control windows.
///
/// A unit freed while tasks wait is handed to the oldest waiter through
/// a 0-delay event (never inline), without passing through the count.
class Semaphore {
 public:
  /// A parked waiter: an intrusive FIFO node that lives in the waiting
  /// frame. `on_grant` runs from the handoff event once the waiter owns
  /// a unit. Besides acquire(), host::Host::ExecAwaiter parks this way.
  struct Waiter {
    Waiter* next = nullptr;
    void (*on_grant)(Waiter*) = nullptr;
  };

  Semaphore(Simulator& sim, std::size_t initial) noexcept
      : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::size_t available() const noexcept { return count_; }

  /// Takes a unit if one is free.
  [[nodiscard]] bool try_acquire() noexcept {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  /// Parks `w` (after a failed try_acquire) until a unit is handed to it.
  void park(Waiter& w) noexcept { waiters_.push_back(&w); }

  void release(std::size_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      Waiter* const w = waiters_.pop_front();
      sim_.schedule(0, [w] { w->on_grant(w); });
      --n;
    }
    count_ += n;
  }

  /// Fault-recovery helper: forces the available count. Tasks already
  /// waiting are served first (a crash can strand waiters whose
  /// credits died with the server).
  void reset(std::size_t count) {
    count_ = 0;
    release(count);
  }

  class Awaiter : Waiter {
   public:
    explicit Awaiter(Semaphore& s) noexcept : Waiter{nullptr, &grant}, sem_(s) {}
    bool await_ready() const noexcept { return sem_.try_acquire(); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle_ = h;
      sem_.park(*this);
    }
    void await_resume() const noexcept {}

   private:
    static void grant(Waiter* w) { static_cast<Awaiter*>(w)->handle_.resume(); }

    Semaphore& sem_;
    std::coroutine_handle<> handle_{};
  };

  [[nodiscard]] Awaiter acquire() noexcept { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  std::size_t count_;
  detail::IntrusiveFifo<Waiter> waiters_;
};

/// Join-point for a dynamic set of tasks (like Go's WaitGroup).
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) noexcept : sim_(sim), done_(sim) {}

  void add(std::size_t n = 1) noexcept { outstanding_ += n; }

  void done() {
    if (outstanding_ == 0) return;
    if (--outstanding_ == 0) {
      done_.set();
    }
  }

  /// Resolves once all add()ed tasks called done(). Resolves
  /// immediately when nothing is outstanding.
  Task<> wait() {
    if (outstanding_ > 0) {
      co_await done_.wait();
    } else {
      co_await delay(sim_, 0);
    }
  }

  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_; }

 private:
  Simulator& sim_;
  Event done_;
  std::size_t outstanding_ = 0;
};

}  // namespace prdma::sim
