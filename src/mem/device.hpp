#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
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
/// The byte plane is sparse (DESIGN.md §7.3): content lives in 256 B
/// blocks found through a two-level index — a top array with one entry
/// per 256 KiB of address space, whose leaves are allocated on the
/// first store into their range. A block that was never stored reads
/// as zeros, so a device costs memory in proportion to the bytes
/// stored into it, not to its capacity.
class Device {
 public:
  static constexpr std::uint64_t kBlockBytes = 256;
  static constexpr std::uint64_t kLeafBytes = 256 * 1024;

  Device(sim::Simulator& sim, std::string name, std::uint64_t capacity,
         DeviceTiming timing)
      : sim_(sim),
        name_(std::move(name)),
        timing_(timing),
        capacity_(capacity),
        leaves_((capacity + kLeafBytes - 1) / kLeafBytes) {}

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
    const std::uint64_t off = addr & kBlockMask;
    if (off + data.size() <= kBlockBytes) {  // one block: the common case
      std::memcpy(block_for_store(addr >> kBlockShift) + off, data.data(),
                  data.size());
      return;
    }
    store_blocks(addr, data);
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
    const std::uint64_t off = addr & kBlockMask;
    if (off + out.size() <= kBlockBytes) {
      const std::byte* b = stored_block(addr >> kBlockShift);
      if (b != nullptr) {
        std::memcpy(out.data(), b + off, out.size());
      } else {
        std::memset(out.data(), 0, out.size());
      }
      return;
    }
    load_blocks(addr, out);
  }

  /// Blocks that hold stored bytes (each kBlockBytes of host memory).
  [[nodiscard]] std::uint64_t stored_blocks() const { return stored_blocks_; }

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
  /// Zeros every stored block — all a volatile device's content.
  void zero_content() {
    for (const Chunk& c : chunks_) {
      std::memset(c.mem.get(), 0, c.used * kBlockBytes);
    }
  }

  sim::Simulator& sim_;

 private:
  static constexpr unsigned kBlockShift = 8;
  static constexpr std::uint64_t kBlockMask = kBlockBytes - 1;
  static constexpr unsigned kLeafShift = 18;
  static constexpr std::uint64_t kLeafBlocks = kLeafBytes / kBlockBytes;
  static_assert(kBlockBytes == std::uint64_t{1} << kBlockShift);
  static_assert(kLeafBytes == std::uint64_t{1} << kLeafShift);
  /// Block arena chunks start at 16 blocks (4 KiB) and double up to
  /// 256 blocks (64 KiB): a device that stores a few headers holds a
  /// few KiB, one that stores payloads allocates rarely.
  static constexpr std::uint32_t kFirstChunkBlocks = 16;
  static constexpr std::uint32_t kMaxChunkBlocks = 256;

  struct Leaf {
    std::byte* block[kLeafBlocks] = {};
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::uint32_t used;  ///< blocks handed out from the front
    std::uint32_t cap;
  };

  /// One slot of the lookup cache: block `blk` is at `ptr` (null: not
  /// stored). Stores refresh the slot they allocate through, so an
  /// entry never goes stale.
  struct CacheEntry {
    std::uint64_t blk = UINT64_MAX;
    std::byte* ptr = nullptr;
  };
  static constexpr std::size_t kCacheSlots = 64;

  CacheEntry& cache_slot(std::uint64_t blk) const {
    return cache_[(blk ^ (blk >> 6) ^ (blk >> 12)) & (kCacheSlots - 1)];
  }

  /// The stored block `blk` (address >> kBlockShift), or null.
  const std::byte* stored_block(std::uint64_t blk) const {
    CacheEntry& e = cache_slot(blk);
    if (e.blk == blk) return e.ptr;
    const Leaf* leaf = leaves_[blk >> (kLeafShift - kBlockShift)].get();
    e.blk = blk;
    e.ptr = leaf != nullptr ? leaf->block[blk & (kLeafBlocks - 1)] : nullptr;
    return e.ptr;
  }

  /// Block `blk`, allocated (zeroed) by this first store if need be.
  std::byte* block_for_store(std::uint64_t blk) {
    CacheEntry& e = cache_slot(blk);
    if (e.blk == blk && e.ptr != nullptr) return e.ptr;
    auto& leaf = leaves_[blk >> (kLeafShift - kBlockShift)];
    if (leaf == nullptr) leaf = std::make_unique<Leaf>();
    std::byte*& b = leaf->block[blk & (kLeafBlocks - 1)];
    if (b == nullptr) b = new_block();
    e.blk = blk;
    e.ptr = b;
    return b;
  }

  std::byte* new_block() {
    if (chunks_.empty() || chunks_.back().used == chunks_.back().cap) {
      const std::uint32_t cap =
          chunks_.empty()
              ? kFirstChunkBlocks
              : std::min(2 * chunks_.back().cap, kMaxChunkBlocks);
      // Default-initialized: each block is zeroed when handed out, so
      // the untouched tail of a chunk stays unfaulted.
      chunks_.push_back(Chunk{
          std::unique_ptr<std::byte[]>(new std::byte[cap * kBlockBytes]), 0,
          cap});
    }
    Chunk& c = chunks_.back();
    std::byte* b = c.mem.get() + std::uint64_t{c.used++} * kBlockBytes;
    std::memset(b, 0, kBlockBytes);
    ++stored_blocks_;
    return b;
  }

  /// Multi-block store/load, one block-sized piece at a time.
  void store_blocks(std::uint64_t addr, std::span<const std::byte> data) {
    const std::byte* src = data.data();
    for (std::uint64_t n = data.size(); n > 0;) {
      const std::uint64_t off = addr & kBlockMask;
      const std::uint64_t k = std::min(n, kBlockBytes - off);
      std::memcpy(block_for_store(addr >> kBlockShift) + off, src, k);
      addr += k;
      src += k;
      n -= k;
    }
  }

  void load_blocks(std::uint64_t addr, std::span<std::byte> out) const {
    std::byte* dst = out.data();
    for (std::uint64_t n = out.size(); n > 0;) {
      const std::uint64_t off = addr & kBlockMask;
      const std::uint64_t k = std::min(n, kBlockBytes - off);
      const std::byte* b = stored_block(addr >> kBlockShift);
      if (b != nullptr) {
        std::memcpy(dst, b + off, k);
      } else {
        std::memset(dst, 0, k);
      }
      addr += k;
      dst += k;
      n -= k;
    }
  }

  std::string name_;
  DeviceTiming timing_;
  std::uint64_t capacity_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::vector<Chunk> chunks_;
  std::uint64_t stored_blocks_ = 0;
  /// Direct-mapped lookup cache over recent blocks: the hot headers,
  /// commit words and flags of a node are a small set, so most
  /// accesses skip the index walk.
  mutable std::array<CacheEntry, kCacheSlots> cache_{};
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
