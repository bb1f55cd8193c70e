#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/device.hpp"
#include "sim/simulator.hpp"

namespace prdma::mem {

/// Timing/cost parameters of the cache model.
struct LlcParams {
  std::uint64_t capacity_lines = 2048;   ///< DDIO-usable LLC portion (2 ways)
  sim::SimTime clflush_per_line = 10;    ///< clwb streaming rate (~6.4 GB/s)
  sim::SimTime sfence_cost = 250;        ///< trailing fence / drain latency
};

/// Last-level cache front of a persistent-memory device.
///
/// Two producers write through it:
///  * the receiver CPU's stores (always cached), and
///  * the RNIC's DMA when DDIO is enabled (§2.3 of the paper).
///
/// Dirty lines are *volatile*: a crash drops them, and that is exactly
/// why read-after-write fails as a persistence check under DDIO — a
/// coherent read returns the cached line even though PM still holds the
/// stale bytes. clflush() writes lines back into the persist domain.
/// Capacity pressure evicts the oldest dirty line to PM (physically
/// persisting it, but invisibly to any remote observer).
///
/// Dirty state is a set of disjoint, line-aligned dirty extents, each
/// a run of lines dirtied consecutively in address order; only lines
/// that received a byte store keep their 64 B of content, in a
/// per-line side table (DESIGN.md §7.3). Every operation costs O(extents it touches), not
/// O(lines), unless it moves bytes.
class Llc {
 public:
  Llc(sim::Simulator& sim, Device& backing, LlcParams params)
      : sim_(sim), backing_(backing), params_(params) {}

  Llc(const Llc&) = delete;
  Llc& operator=(const Llc&) = delete;

  /// Store through the cache: lines become dirty; backing content is
  /// NOT updated until clflush or eviction.
  void write(std::uint64_t addr, std::span<const std::byte> data);

  /// Content-elided store (ContentMode::kShadow payload interiors):
  /// identical line presence / dirtiness / eviction / flush-cost
  /// bookkeeping as write(), but no backing fault-in and no byte
  /// copies. Shadow-only lines also write back content-free.
  void write_shadow(std::uint64_t addr, std::uint64_t len);

  /// Coherent load: dirty lines shadow the backing device.
  void read(std::uint64_t addr, std::span<std::byte> out) const;

  /// True if any line overlapping [addr, addr+len) is dirty.
  [[nodiscard]] bool is_dirty(std::uint64_t addr, std::uint64_t len) const;

  /// Writes every dirty line overlapping [addr, addr+len) back to the
  /// backing device. Returns the simulated completion time of the
  /// flush + fence that starts at `start`.
  sim::SimTime clflush(sim::SimTime start, std::uint64_t addr, std::uint64_t len);

  /// Power failure: dirty lines are lost. Counts the casualties.
  void crash();

  [[nodiscard]] std::size_t dirty_lines() const { return dirty_lines_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t lines_flushed() const { return lines_flushed_; }
  [[nodiscard]] std::uint64_t lines_lost_to_crash() const { return lines_lost_; }

 private:
  /// Dirty lines [start, end) that were dirtied consecutively in
  /// address order: no line of another extent is older than one of
  /// these and newer than another. The list of extents, oldest first,
  /// is therefore the eviction FIFO of every dirty line.
  struct Extent {
    std::uint64_t start;
    std::uint64_t end;
    /// True when every line holds content in `bytes_`; false for lines
    /// only ever touched by write_shadow, which read as zeros and write
    /// back content-free (accounting is unchanged — see
    /// Device::poke_shadow).
    bool has_bytes;
    Extent* older = nullptr;  ///< eviction-order neighbours
    Extent* newer = nullptr;
  };

  using ExtentMap = std::map<std::uint64_t, Extent>;  ///< keyed by end
  using LineBytes = std::array<std::byte, kCacheLine>;
  using BytesMap = std::unordered_map<std::uint64_t, LineBytes>;

  static constexpr std::size_t kMaxSpareNodes = 4096;

  static std::uint64_t lines_in(std::uint64_t a, std::uint64_t b) {
    return (b - a) / kCacheLine;
  }

  /// Shared body of write() and write_shadow(); `src` is null for a
  /// content-elided store of `len` bytes.
  void store(std::uint64_t addr, std::uint64_t len, const std::byte* src);

  /// Appends the clean lines [a, b) as the newest dirty lines, growing
  /// the newest extent when it ends at `a`. `next` is the first extent
  /// past `b`.
  void add_lines(ExtentMap::iterator next, std::uint64_t a, std::uint64_t b,
                 bool has_bytes);

  /// Splits `it` at line address `at` (strictly inside it): returns the
  /// new extent [start, at); `it` keeps [at, end).
  ExtentMap::iterator split(ExtentMap::iterator it, std::uint64_t at);

  /// Removes the lines [start, to) of `it` (already written back or
  /// lost); returns the extent after it.
  ExtentMap::iterator drop_front(ExtentMap::iterator it, std::uint64_t to);

  /// Writes the lines [e.start, to) back to the backing device and
  /// releases their bytes.
  void write_back(const Extent& e, std::uint64_t to);
  void evict_if_needed();

  ExtentMap::iterator insert_extent(ExtentMap::const_iterator hint,
                                    const Extent& e);
  /// Links `e` into the eviction order just older than `newer` (or as
  /// the newest extent when `newer` is null).
  void link(Extent& e, Extent* newer);
  void unlink(Extent& e);

  /// Side-table slot for line `la`, uninitialized content. Nodes are
  /// recycled, so the steady-state write->flush cycle allocates nothing.
  LineBytes& new_bytes(std::uint64_t la);
  void release_bytes(BytesMap::iterator it);

  sim::Simulator& sim_;
  Device& backing_;
  LlcParams params_;
  ExtentMap extents_;
  std::vector<ExtentMap::node_type> spare_extents_;
  Extent* oldest_ = nullptr;
  Extent* newest_ = nullptr;
  BytesMap bytes_;
  std::vector<BytesMap::node_type> spare_bytes_;
  std::uint64_t dirty_lines_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t lines_flushed_ = 0;
  std::uint64_t lines_lost_ = 0;
};

}  // namespace prdma::mem
