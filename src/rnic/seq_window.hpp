#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

namespace prdma::rnic {

/// Entries keyed by an RC sequence number, stored in a ring indexed by
/// `seq mod capacity` (DESIGN.md §7.3). The QP's unacked send window
/// and its out-of-order receive buffer both hold a few packets whose
/// sequence numbers lie close together, so a ring spanning the lowest
/// to the highest present key replaces a std::map: no node per entry,
/// and once the ring has grown to the widest span the QP sees, inserts
/// and erases never allocate. Iteration visits keys in ascending
/// order, as the map did.
///
/// The ring starts with no storage and doubles whenever a new key
/// would widen [lowest, highest] past the capacity.
template <typename T>
class SeqWindow {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Lowest present key. Precondition: !empty().
  [[nodiscard]] std::uint64_t front_seq() const {
    assert(!empty());
    return lo_;
  }

  [[nodiscard]] T* find(std::uint64_t seq) {
    if (count_ == 0 || seq < lo_ || seq >= hi_) return nullptr;
    std::optional<T>& s = slot(seq);
    return s.has_value() ? &*s : nullptr;
  }
  [[nodiscard]] bool contains(std::uint64_t seq) {
    return find(seq) != nullptr;
  }

  /// The entry at `seq`, default-constructed if absent (std::map's
  /// operator[]).
  T& operator[](std::uint64_t seq) {
    if (count_ == 0) {
      reserve_span(1);
      lo_ = seq;
      hi_ = seq + 1;
    } else if (seq < lo_ || seq >= hi_) {
      const std::uint64_t lo = seq < lo_ ? seq : lo_;
      const std::uint64_t hi = seq >= hi_ ? seq + 1 : hi_;
      reserve_span(hi - lo);
      lo_ = lo;
      hi_ = hi;
    }
    std::optional<T>& s = slot(seq);
    if (!s.has_value()) {
      s.emplace();
      ++count_;
    }
    return *s;
  }

  /// Removes the entry at `seq`, if present.
  void erase(std::uint64_t seq) {
    T* v = find(seq);
    if (v == nullptr) return;
    slot(seq).reset();
    if (--count_ == 0) {
      lo_ = hi_ = 0;
      return;
    }
    while (!slot(lo_).has_value()) ++lo_;
    while (!slot(hi_ - 1).has_value()) --hi_;
  }

  /// Removes every entry; the storage stays for reuse.
  void clear() {
    for (std::uint64_t s = lo_; count_ > 0 && s < hi_; ++s) {
      if (slot(s).has_value()) {
        slot(s).reset();
        --count_;
      }
    }
    lo_ = hi_ = 0;
  }

  /// Calls f(seq, entry) for every entry in ascending key order. `f`
  /// must not insert or erase.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint64_t s = lo_; s < hi_; ++s) {
      std::optional<T>& sl = slot(s);
      if (sl.has_value()) f(s, *sl);
    }
  }

 private:
  [[nodiscard]] std::optional<T>& slot(std::uint64_t seq) {
    return slots_[seq & (cap_ - 1)];
  }

  /// Grows (doubling) until `span` consecutive keys fit, re-placing
  /// every present entry at its index under the new capacity.
  void reserve_span(std::uint64_t span) {
    if (span <= cap_) return;
    std::size_t cap = cap_ == 0 ? kInitialCapacity : cap_;
    while (cap < span) cap *= 2;
    auto slots = std::make_unique<std::optional<T>[]>(cap);
    for (std::uint64_t s = lo_; count_ > 0 && s < hi_; ++s) {
      std::optional<T>& old = slot(s);
      if (old.has_value()) slots[s & (cap - 1)].emplace(std::move(*old));
    }
    slots_ = std::move(slots);
    cap_ = cap;
  }

  static constexpr std::size_t kInitialCapacity = 4;

  std::unique_ptr<std::optional<T>[]> slots_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  std::uint64_t lo_ = 0;  ///< lowest present key (count_ > 0)
  std::uint64_t hi_ = 0;  ///< highest present key + 1
};

}  // namespace prdma::rnic
