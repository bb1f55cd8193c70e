#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace prdma::sim {

/// FIFO queue on a power-of-two ring that doubles when full and never
/// shrinks (DESIGN.md §7.3). The simulator's queues (channel buffers,
/// posted receives, RNR and SRAM backlogs) cycle a handful of entries
/// forever: std::deque allocates and frees a block each time its ends
/// cross a block boundary, and owns a block even while empty. The ring
/// owns no storage until its first push, and once it has grown to the
/// queue's high-water mark, push and pop never allocate.
template <typename T>
class RingQueue {
 public:
  RingQueue() noexcept = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() {
    clear();
    release(buf_, cap_);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// The i-th entry from the front (0 == front()).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::move(v));
    ++size_;
  }

  void pop_front() noexcept {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every entry; the storage stays for reuse.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  static void release(T* buf, std::size_t cap) noexcept {
    if (buf != nullptr) std::allocator<T>().deallocate(buf, cap);
  }

  void grow() {
    const std::size_t cap = cap_ == 0 ? kInitialCapacity : 2 * cap_;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      ::new (static_cast<void*>(buf + i)) T(std::move(old));
      old.~T();
    }
    release(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace prdma::sim
