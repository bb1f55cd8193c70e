#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace prdma::mem {

namespace detail {

/// `bytes` of anonymous zero pages, or null if they cannot be mapped
/// (callers fall back to calloc). A mapping this thread released
/// before with the same size is reused without a system call.
void* map_zero_pages(std::size_t bytes);

/// Returns a mapping from map_zero_pages. Its pages are dropped, so it
/// reads as zeros again and holds no memory, and this thread keeps a
/// few such mappings for reuse; the rest are unmapped.
void unmap_zero_pages(void* p, std::size_t bytes);

}  // namespace detail

/// A fixed-size array of trivially copyable T that reads as all zeros
/// and costs neither time nor memory until an element is touched.
/// Large arrays are anonymous mappings, whose pages the kernel commits
/// (zeroed) on first touch; small ones come from calloc. Nothing ever
/// zeroes the whole array eagerly, so a 50 000-entry table costs
/// setup at most one system call and the run one page fault per page
/// it reaches.
template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Arrays of at least this many bytes are mapped, not calloc'd.
  static constexpr std::size_t kMapBytes = 64 * 1024;

  ZeroedArray() = default;

  explicit ZeroedArray(std::size_t n) : n_(n) {
    if (n == 0) return;
    if (n * sizeof(T) >= kMapBytes) {
      data_ = static_cast<T*>(detail::map_zero_pages(n * sizeof(T)));
      mapped_ = data_ != nullptr;
    }
    if (data_ == nullptr) data_ = static_cast<T*>(std::calloc(n, sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  ZeroedArray(ZeroedArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        n_(std::exchange(o.n_, 0)),
        mapped_(std::exchange(o.mapped_, false)) {}

  ZeroedArray& operator=(ZeroedArray&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      n_ = std::exchange(o.n_, 0);
      mapped_ = std::exchange(o.mapped_, false);
    }
    return *this;
  }

  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  ~ZeroedArray() { release(); }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void release() {
    if (mapped_) {
      detail::unmap_zero_pages(data_, n_ * sizeof(T));
    } else {
      std::free(data_);
    }
    data_ = nullptr;
    mapped_ = false;
  }

  T* data_ = nullptr;
  std::size_t n_ = 0;
  bool mapped_ = false;
};

}  // namespace prdma::mem
