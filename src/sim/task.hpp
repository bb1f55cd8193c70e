#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/frame_arena.hpp"
#include "sim/simulator.hpp"

namespace prdma::sim {

/// Lazy coroutine task used to express simulated protocol flows.
///
/// A Task<T> does not run until it is either co_awaited by another task
/// (which chains the awaiter as its continuation, symmetric-transfer
/// style) or handed to spawn() to run as a detached top-level process.
/// Exceptions thrown inside the coroutine propagate to the awaiter.
///
/// Tasks are single-owner move-only handles: the handle owns the frame
/// and destroys it when the Task goes out of scope after completion.
/// Frames live in the running shard's FrameArena (sim/frame_arena.hpp).
template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  static void* operator new(std::size_t n) { return allocate_frame(n); }
  static void operator delete(void* p) noexcept { free_frame(p); }

  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) const noexcept {
      auto& cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T, typename Promise>
struct TaskAwaiter {
  std::coroutine_handle<Promise> handle;

  bool await_ready() const noexcept { return !handle || handle.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const noexcept {
    handle.promise().continuation = cont;
    return handle;  // start the child coroutine now
  }
  T await_resume() const {
    if (handle.promise().exception) {
      std::rethrow_exception(handle.promise().exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(*handle.promise().value_ptr());
    }
  }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    alignas(T) unsigned char storage[sizeof(T)];
    bool has_value = false;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U = T>
    void return_value(U&& v) {
      ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
      has_value = true;
    }
    T* value_ptr() { return std::launder(reinterpret_cast<T*>(storage)); }
    ~promise_type() {
      if (has_value) value_ptr()->~T();
    }
  };

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

  auto operator co_await() const& noexcept {
    return detail::TaskAwaiter<T, promise_type>{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

  auto operator co_await() const& noexcept {
    return detail::TaskAwaiter<void, promise_type>{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

namespace detail {

/// Self-destroying top-level coroutine used to run detached tasks. It
/// links itself into the spawning shard's RootRegistry while it lives,
/// so a root still parked when the simulation ends is destroyed at
/// teardown instead of leaking.
struct Detached {
  struct promise_type : RootRegistry::Node {
    static void* operator new(std::size_t n) { return allocate_frame(n); }
    static void operator delete(void* p) noexcept { free_frame(p); }

    promise_type() {
      if (RootRegistry* r = spawn_registry()) {
        frame = std::coroutine_handle<promise_type>::from_promise(*this);
        r->link(*this);
      }
    }
    ~promise_type() {
      if (owner != nullptr) owner->unlink(*this);
    }
    promise_type(const promise_type&) = delete;
    promise_type& operator=(const promise_type&) = delete;

    Detached get_return_object() const noexcept { return {}; }
    std::suspend_never initial_suspend() const noexcept { return {}; }
    std::suspend_never final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() const { std::terminate(); }
  };
};

inline Detached spawn_impl(Task<> t) { co_await t; }

}  // namespace detail

/// Runs `t` as a detached simulation process. The coroutine frame (and
/// the Task's ownership of it) lives inside an internal wrapper frame
/// that self-destroys on completion. Unhandled exceptions terminate —
/// detached processes must handle their own failures.
inline void spawn(Task<> t) { detail::spawn_impl(std::move(t)); }

/// Awaitable that suspends the current task for `d` simulated time.
/// A zero delay still round-trips through the event queue, acting as a
/// deterministic yield point.
class DelayAwaiter {
 public:
  DelayAwaiter(Simulator& sim, SimTime d) noexcept : sim_(sim), delay_(d) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_.schedule(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  SimTime delay_;
};

inline DelayAwaiter delay(Simulator& sim, SimTime d) { return {sim, d}; }

}  // namespace prdma::sim
