#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace prdma::mem {

/// How faithfully a node's memory system models payload *content*
/// (timing is identical in both modes — DESIGN.md §7.3):
///  * kFull   — every byte is stored and copied (required by check/,
///              the durability oracle and any crash injection);
///  * kShadow — payload interiors are tracked as per-range lengths +
///              digests only; poke/peek copies of payload bytes are
///              elided. Benchmarks default to kShadow; arming a crash
///              hook in kShadow throws.
enum class ContentMode : std::uint8_t { kFull, kShadow };

inline constexpr std::uint64_t kCacheLine = 64;

/// Rounds an address down / a length up to cache-line granularity.
constexpr std::uint64_t line_down(std::uint64_t a) { return a & ~(kCacheLine - 1); }
constexpr std::uint64_t line_up(std::uint64_t a) {
  return (a + kCacheLine - 1) & ~(kCacheLine - 1);
}

/// Timing parameters of a memory device (calibrated in core/params.hpp).
struct DeviceTiming {
  sim::SimTime read_latency = 0;     ///< fixed per-access read latency
  sim::SimTime write_latency = 0;    ///< fixed per-access write latency
  double read_bw_bytes_per_s = 0.0;  ///< sustained read bandwidth
  double write_bw_bytes_per_s = 0.0; ///< sustained write bandwidth
};

/// Byte-addressable memory device with a bandwidth-occupancy timing
/// model. The data plane (content bytes) is updated instantaneously by
/// callers at the simulated instant the model says the access
/// completes; the timing plane serializes accesses against the
/// device's bandwidth.
///
/// The byte plane is sparse and line-granular (DESIGN.md §7.3): each
/// 64 B line stored into lives in an arena of lines, found through one
/// open-addressed table keyed by line index (linear probing, Fibonacci
/// hashing). The table is allocated on the device's first store and
/// doubles before a store would fill more than half of it. A line
/// never stored reads as zeros, so a device costs memory in proportion
/// to the lines stored into it, not to its capacity, and an untouched
/// device costs nothing. A multi-line access probes once per line and
/// copies each run of lines that lie back to back in the arena with
/// one memcpy.
class Device {
 public:
  Device(sim::Simulator& sim, std::string name, std::uint64_t capacity,
         DeviceTiming timing)
      : sim_(sim),
        name_(std::move(name)),
        timing_(timing),
        capacity_(capacity) {}

  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// True when contents survive a power failure (the persist domain).
  [[nodiscard]] virtual bool persistent() const = 0;

  /// Power failure: volatile devices lose their contents.
  virtual void crash() = 0;

  // --- data plane (instantaneous; timing charged separately) ---

  void poke(std::uint64_t addr, std::span<const std::byte> data) {
    assert(addr + data.size() <= capacity_);
    bytes_written_ += data.size();
    bytes_copied_ += data.size();
    if (data.empty()) return;
    for_each_run(
        addr, data.size(),
        [this](std::uint64_t line) { return line_for_store(line); },
        [&](std::byte* p, std::uint64_t pos, std::uint64_t len) {
          std::memcpy(p, data.data() + pos, len);
        });
  }

  /// Content-elided store (ContentMode::kShadow payload interiors):
  /// identical write accounting, no bytes moved.
  void poke_shadow(std::uint64_t addr, std::uint64_t len) {
    assert(addr + len <= capacity_);
    (void)addr;
    bytes_written_ += len;
  }

  void peek(std::uint64_t addr, std::span<std::byte> out) const {
    assert(addr + out.size() <= capacity_);
    bytes_copied_ += out.size();
    if (out.empty()) return;
    for_each_run(
        addr, out.size(),
        [this](std::uint64_t line) -> const std::byte* {
          return slots_ == 0 ? nullptr : probe(line).ptr;  // null: unstored
        },
        [&](const std::byte* p, std::uint64_t pos, std::uint64_t len) {
          if (p != nullptr) {
            std::memcpy(out.data() + pos, p, len);
          } else {
            std::memset(out.data() + pos, 0, len);
          }
        });
  }

  /// Lines that hold stored bytes.
  [[nodiscard]] std::uint64_t stored_lines() const { return stored_lines_; }

  /// Host bytes the byte plane holds: the line arena and the table.
  [[nodiscard]] std::size_t heap_bytes() const {
    std::size_t n = slots_ * sizeof(Slot) + chunks_.capacity() * sizeof(Chunk);
    for (const Chunk& c : chunks_) n += std::size_t{c.cap} * kCacheLine;
    return n;
  }

  // --- timing plane ---

  /// Completion time of a write of `bytes` that arrives at the device
  /// at `start`; serializes against earlier accesses (bandwidth).
  sim::SimTime write_complete_at(sim::SimTime start, std::uint64_t bytes) {
    const sim::SimTime begin = std::max(start, busy_until_);
    const sim::SimTime xfer =
        sim::transfer_time(bytes, timing_.write_bw_bytes_per_s);
    busy_until_ = begin + xfer;
    return begin + timing_.write_latency + xfer;
  }

  /// Pure cost of a write of `bytes` (latency + transfer), without
  /// claiming device occupancy — used by paths whose serialization is
  /// modeled elsewhere (the RNIC's DMA engine queue).
  [[nodiscard]] sim::SimTime write_cost(std::uint64_t bytes) const {
    return timing_.write_latency +
           sim::transfer_time(bytes, timing_.write_bw_bytes_per_s);
  }

  [[nodiscard]] sim::SimTime read_cost(std::uint64_t bytes) const {
    return timing_.read_latency +
           sim::transfer_time(bytes, timing_.read_bw_bytes_per_s);
  }

  /// Completion time of a read of `bytes` beginning at `start`.
  sim::SimTime read_complete_at(sim::SimTime start, std::uint64_t bytes) {
    const sim::SimTime begin = std::max(start, busy_until_);
    const sim::SimTime xfer =
        sim::transfer_time(bytes, timing_.read_bw_bytes_per_s);
    busy_until_ = begin + xfer;
    return begin + timing_.read_latency + xfer;
  }

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes physically moved through poke/peek — the data-plane copy
  /// traffic the shadow content mode elides (BENCH_dataplane.json).
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  [[nodiscard]] const DeviceTiming& timing() const { return timing_; }

 protected:
  /// Zeros every stored line — all a volatile device's content.
  void zero_content() {
    for (const Chunk& c : chunks_) {
      std::memset(c.mem.get(), 0, c.used * kCacheLine);
    }
  }

  sim::Simulator& sim_;

 private:
  static constexpr unsigned kLineShift = 6;
  static constexpr std::uint64_t kLineMask = kCacheLine - 1;
  static_assert(kCacheLine == std::uint64_t{1} << kLineShift);
  /// The first table (2 KiB) and chunk (4 KiB) fit the few dozen
  /// header, commit-word and flag lines of a client host, so such a
  /// device allocates twice. Chunks double up to 1 024 lines (64 KiB):
  /// a device that stores payloads allocates rarely.
  static constexpr std::size_t kFirstTableSlots = 128;
  static constexpr std::uint32_t kFirstChunkLines = 64;
  static constexpr std::uint32_t kMaxChunkLines = 1024;

  /// A table slot: line index `line` is stored at `ptr` (null: empty).
  struct Slot {
    std::uint64_t line;
    std::byte* ptr;
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::uint32_t used;  ///< lines handed out from the front
    std::uint32_t cap;
  };

  /// Walks the `n` > 0 bytes at `addr` line by line, `line_at(line)`
  /// giving each line's storage (null: none), and calls
  /// `fn(ptr, pos, len)` for bytes [pos, pos + len) once per run of
  /// lines that lie back to back in the arena (or are all unstored),
  /// so a payload stored in one go moves in one memcpy.
  template <typename LineAt, typename Fn>
  static void for_each_run(std::uint64_t addr, std::uint64_t n,
                           const LineAt& line_at, const Fn& fn) {
    const std::uint64_t off = addr & kLineMask;
    auto* run = line_at(addr >> kLineShift);
    if (run != nullptr) run += off;
    std::uint64_t pos = 0;
    std::uint64_t len = std::min(n, kCacheLine - off);
    while (pos + len < n) {
      auto* next = line_at((addr + pos + len) >> kLineShift);
      const std::uint64_t k = std::min(n - pos - len, kCacheLine);
      if (run == nullptr ? next == nullptr : next == run + len) {
        len += k;
        continue;
      }
      fn(run, pos, len);
      pos += len;
      run = next;
      len = k;
    }
    fn(run, pos, len);
  }

  /// The slot holding `line`, or the empty slot where it would go.
  /// The table must exist.
  Slot& probe(std::uint64_t line) const {
    const std::size_t mask = slots_ - 1;
    for (std::size_t i = (line * 0x9E3779B97F4A7C15ull) >> shift_;;
         i = (i + 1) & mask) {
      Slot& s = table_[i];
      if (s.ptr == nullptr || s.line == line) return s;
    }
  }

  /// Line `line`, allocated (zeroed) by this first store if need be.
  std::byte* line_for_store(std::uint64_t line) {
    Slot* s = slots_ != 0 ? &probe(line) : nullptr;
    if (s != nullptr && s->ptr != nullptr) return s->ptr;
    if (2 * (stored_lines_ + 1) > slots_) {
      grow();
      s = &probe(line);
    }
    *s = Slot{line, new_line()};
    return s->ptr;
  }

  /// Allocates the table, or doubles it and re-inserts every line.
  void grow() {
    const std::size_t n = slots_ == 0 ? kFirstTableSlots : 2 * slots_;
    const std::unique_ptr<Slot[]> old =
        std::exchange(table_, std::make_unique<Slot[]>(n));
    const std::size_t old_slots = std::exchange(slots_, n);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (std::size_t i = 0; i < old_slots; ++i) {
      if (old[i].ptr != nullptr) probe(old[i].line) = old[i];
    }
  }

  std::byte* new_line() {
    if (chunks_.empty() || chunks_.back().used == chunks_.back().cap) {
      const std::uint32_t cap =
          chunks_.empty() ? kFirstChunkLines
                          : std::min(2 * chunks_.back().cap, kMaxChunkLines);
      // Default-initialized: each line is zeroed when handed out, so
      // the untouched tail of a chunk stays unfaulted.
      chunks_.push_back(Chunk{
          std::unique_ptr<std::byte[]>(new std::byte[cap * kCacheLine]), 0,
          cap});
    }
    Chunk& c = chunks_.back();
    std::byte* b = c.mem.get() + std::uint64_t{c.used++} * kCacheLine;
    std::memset(b, 0, kCacheLine);
    ++stored_lines_;
    return b;
  }

  std::string name_;
  DeviceTiming timing_;
  std::uint64_t capacity_;
  std::unique_ptr<Slot[]> table_;
  std::size_t slots_ = 0;  ///< table size, a power of two (0: none yet)
  unsigned shift_ = 64;    ///< 64 - log2(slots_): keeps the hash's top bits
  std::vector<Chunk> chunks_;
  std::uint64_t stored_lines_ = 0;
  sim::SimTime busy_until_ = 0;
  std::uint64_t bytes_written_ = 0;
  mutable std::uint64_t bytes_copied_ = 0;
};

/// Persistent-memory device: its contents *are* the persist domain.
/// Once a DMA or cache write-back lands here it survives crashes (the
/// ADR guarantee covers the iMC write-pending queue; we model the
/// domain boundary at the device interface).
class PmDevice final : public Device {
 public:
  PmDevice(sim::Simulator& sim, std::string name, std::uint64_t capacity,
           DeviceTiming timing)
      : Device(sim, std::move(name), capacity, timing) {}

  [[nodiscard]] bool persistent() const override { return true; }
  void crash() override { /* contents retained by definition */ }

  /// Crash-instant landing of an in-flight DMA write: only the
  /// cache-line-aligned prefix that physically reached the media
  /// before the power failed is applied; the tail of `data` is lost.
  /// Models a torn entry — recovery must detect it by checksum (§4.2).
  void torn_write(std::uint64_t addr, std::span<const std::byte> data,
                  std::uint64_t persisted_bytes) {
    persisted_bytes = std::min<std::uint64_t>(persisted_bytes, data.size());
    persisted_bytes = line_down(persisted_bytes);
    if (persisted_bytes < data.size()) ++torn_writes_;
    if (persisted_bytes > 0) poke(addr, data.first(persisted_bytes));
  }

  /// Number of in-flight writes that landed partially across crashes.
  [[nodiscard]] std::uint64_t torn_writes() const { return torn_writes_; }

  /// Torn-landing bookkeeping for scatter-gather DMA images whose
  /// prefix application is walked segment-by-segment in NodeMemory
  /// (one torn write per in-flight DMA, like torn_write()).
  void count_torn_write() { ++torn_writes_; }

 private:
  std::uint64_t torn_writes_ = 0;
};

/// Volatile DRAM: contents are lost on power failure.
class DramDevice final : public Device {
 public:
  DramDevice(sim::Simulator& sim, std::string name, std::uint64_t capacity,
             DeviceTiming timing)
      : Device(sim, std::move(name), capacity, timing) {}

  [[nodiscard]] bool persistent() const override { return false; }
  void crash() override { zero_content(); }
};

}  // namespace prdma::mem
