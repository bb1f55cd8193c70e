#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mem/buffer_pool.hpp"
#include "mem/device.hpp"
#include "mem/llc.hpp"
#include "mem/zeroed_array.hpp"
#include "sim/simulator.hpp"

namespace prdma::mem {

/// Digest of a deterministic payload range in shadow content mode: a
/// cheap FNV-style mix of (generator seed, stream offset, length) that
/// composes under sub-slicing — the digest of bytes [off, off+len) of
/// generator `seed` is computable without the bytes. Stands in for
/// FNV-1a over the real bytes everywhere shadow mode elides them.
inline std::uint64_t shadow_digest(std::uint64_t seed, std::uint64_t off,
                                   std::uint64_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ (seed * 0x100000001b3ull);
  h ^= off + 0x9e3779b97f4a7c15ull;
  h *= 0x100000001b3ull;
  h ^= len;
  h *= 0x100000001b3ull;
  return h;
}

/// Sizing/timing of one node's memory system.
struct NodeMemoryParams {
  std::uint64_t pm_capacity = 256ull << 20;    ///< 256 MiB modeled PM window
  std::uint64_t dram_capacity = 128ull << 20;  ///< DRAM (message buffers etc.)
  DeviceTiming pm_timing{
      /*read_latency=*/170, /*write_latency=*/90,
      /*read_bw=*/6.6e9, /*write_bw=*/12.0e9};  // 6-DIMM interleaved DCPMM
  DeviceTiming dram_timing{
      /*read_latency=*/80, /*write_latency=*/80,
      /*read_bw=*/38.0e9, /*write_bw=*/38.0e9};
  LlcParams llc{};
  /// Content fidelity (DESIGN.md §7.3): kFull stores every payload
  /// byte; kShadow elides payload copies (crash injection requires
  /// kFull — Node::crash() refuses kShadow).
  ContentMode content_mode = ContentMode::kFull;
};

/// One node's physical memory: a PM window, a DRAM window and the LLC
/// fronting the PM. Flat 64-bit addressing:
///   [0, pm_capacity)               -> persistent memory
///   [kDramBase, kDramBase + cap)   -> DRAM
///
/// Two access paths matter for persistence semantics:
///  * cpu_write / cpu_read — receiver-CPU stores, always cached (PM
///    stores stay volatile in the LLC until clflush);
///  * dma_write / dma_read — RNIC DMA; steering depends on DDIO
///    (LLC when enabled, straight into the persist domain when not).
///
/// Scatter-gather payload images (PayloadRef) take the *_payload
/// entry points: byte extents follow the plain byte paths; shadow
/// extents update only the shadow content plane (range -> generator
/// extents) with identical timing/accounting and no copies.
///
/// In kShadow, memory declared pristine (declare_pristine) that no
/// byte store has touched since reads back as generated content too,
/// so reading a never-written object moves no bytes (DESIGN.md §7.3).
/// Rings of fixed-stride slots declared with declare_slots keep one
/// shadow extent per slot inline in a flat table; the rest of the
/// plane is an ordered map (DESIGN.md §7.3).
class NodeMemory {
 public:
  static constexpr std::uint64_t kDramBase = 1ull << 40;

  /// Reserved content generator of pristine memory: byte `a` of a
  /// pristine range is byte `a` of this generator's stream, so any
  /// slice [a, a+n) is shadow extent (kPristineSeed, off = a). In the
  /// byte plane it reads as zeros.
  static constexpr std::uint64_t kPristineSeed = ~0ull;

  NodeMemory(sim::Simulator& sim, const NodeMemoryParams& params)
      : mode_(params.content_mode),
        pool_(sim),
        pm_(sim, "pm", params.pm_capacity, params.pm_timing),
        dram_(sim, "dram", params.dram_capacity, params.dram_timing),
        llc_(sim, pm_, params.llc) {}

  [[nodiscard]] bool is_pm(std::uint64_t addr) const {
    return addr < pm_.capacity();
  }

  [[nodiscard]] ContentMode content_mode() const { return mode_; }
  [[nodiscard]] BufferPool& pool() { return pool_; }
  [[nodiscard]] PmDevice& pm() { return pm_; }
  [[nodiscard]] DramDevice& dram() { return dram_; }
  [[nodiscard]] Llc& llc() { return llc_; }
  [[nodiscard]] const Llc& llc() const { return llc_; }

  // ---- CPU path (cached stores) ----

  void cpu_write(std::uint64_t addr, std::span<const std::byte> data) {
    write_bytes_nofire(addr, data, WritePath::kCpu, /*ddio=*/false);
    fire_watches(addr, data.size());
  }

  void cpu_read(std::uint64_t addr, std::span<std::byte> out) const {
    if (is_pm(addr)) {
      llc_.read(addr, out);
    } else {
      dram_.peek(addr - kDramBase, out);
    }
  }

  // ---- DMA path (RNIC) ----

  /// RNIC DMA store. With DDIO the line lands dirty in the LLC
  /// (volatile!); without DDIO it goes through the iMC into the
  /// persist domain (for PM) or DRAM.
  void dma_write(std::uint64_t addr, std::span<const std::byte> data, bool ddio) {
    write_bytes_nofire(addr, data, WritePath::kDma, ddio);
    fire_watches(addr, data.size());
  }

  /// RNIC DMA load — cache-coherent, so it sees dirty LLC lines. This
  /// is why read-after-write cannot prove persistence under DDIO.
  void dma_read(std::uint64_t addr, std::span<std::byte> out) const {
    cpu_read(addr, out);
  }

  // ---- pristine ranges ----

  /// Declares [addr, addr+len) never written: until a byte store
  /// lands on part of it, that part reads back (read_payload) as
  /// generator kPristineSeed at stream offset = address. The range
  /// must still hold zeros, i.e. not have been stored to. A no-op in
  /// kFull; no device, LLC or counter sees a declaration.
  void declare_pristine(std::uint64_t addr, std::uint64_t len);

  /// Declared ranges no byte store has clipped yet, as [start, end).
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pristine() const {
    return pristine_;
  }

  // ---- slot rings ----

  /// Declares [base, base + slots * slot_bytes) a ring of fixed-stride
  /// slots (an object store, a redo-log ring, a staging window). A
  /// shadow extent that lies inside one slot and is the first there is
  /// then held in the ring's flat table: O(1) to find, and storing
  /// into a cold slot allocates nothing. The table is zero pages until
  /// touched. Extents crossing a slot boundary, a slot's second extent
  /// and extents outside every ring stay in the ordered map, so what
  /// the plane holds, and every read of it, is the same either way.
  /// A no-op in kFull, for an empty ring, for 2^32 or more slots or
  /// bytes per slot and for a ring overlapping one declared before
  /// (re-declaring the same ring included); no device, LLC or counter
  /// sees a declaration.
  void declare_slots(std::uint64_t base, std::uint64_t slot_bytes,
                     std::uint64_t slots);

  /// Shadow extents held inline in declared slots.
  [[nodiscard]] std::size_t inline_extent_count() const {
    return inline_extents_;
  }
  /// Shadow extents held in the ordered map.
  [[nodiscard]] std::size_t mapped_extent_count() const {
    return shadow_.size();
  }

  // ---- scatter-gather payload paths ----

  /// Reconstructs [addr, addr+len) as a payload image: shadow ranges
  /// and pristine ranges come back as shadow extents (no bytes moved),
  /// everything else is byte-copied from the coherent view into one
  /// pooled block. In kFull mode this is exactly "cpu_read into a
  /// pooled buffer".
  [[nodiscard]] PayloadRef read_payload(std::uint64_t addr, std::uint64_t len);

  /// CPU store of (a prefix of) a payload image at `addr`; watches
  /// fire once over the whole written range, like one cpu_write.
  void cpu_write_payload(std::uint64_t addr, const PayloadRef& p,
                         std::uint64_t limit = UINT64_MAX) {
    const std::uint64_t n = write_payload_nofire(addr, p, limit,
                                                 WritePath::kCpu, false);
    fire_watches(addr, n);
  }

  /// DMA store of (a prefix of) a payload image at `addr`.
  void dma_write_payload(std::uint64_t addr, const PayloadRef& p, bool ddio,
                         std::uint64_t limit = UINT64_MAX) {
    const std::uint64_t n = write_payload_nofire(addr, p, limit,
                                                 WritePath::kDma, ddio);
    fire_watches(addr, n);
  }

  /// Non-temporal store of a payload image straight into the persist
  /// domain, bypassing the LLC (the SRFlush server's ntstore path).
  /// PM addresses only.
  void poke_payload_pm(std::uint64_t addr, const PayloadRef& p) {
    const std::uint64_t n = write_payload_nofire(addr, p, UINT64_MAX,
                                                 WritePath::kNtStore, false);
    fire_watches(addr, n);
  }

  /// Crash-instant landing of an in-flight payload DMA: only the
  /// line-aligned prefix that reached the media persists (cf.
  /// PmDevice::torn_write — one torn-write count per in-flight DMA).
  void dma_torn_write(std::uint64_t addr, const PayloadRef& p,
                      std::uint64_t len, std::uint64_t persisted_bytes);

  /// Shadow-plane digest of [addr, addr+len) if the range is tracked
  /// (kShadow payload writes record it); nullopt when untracked (byte
  /// content is authoritative then).
  [[nodiscard]] std::optional<std::uint64_t> shadow_digest_at(
      std::uint64_t addr, std::uint64_t len) const;

  /// Physical-media load: bypasses the LLC and returns exactly what is
  /// in the persist domain *right now* — what a post-crash reader would
  /// see. DRAM addresses read as zeros (they do not survive). This is
  /// the honest basis for durable watermarks and the durability oracle:
  /// a coherent read can overstate persistence (dirty lines), a media
  /// read cannot.
  void persisted_read(std::uint64_t addr, std::span<std::byte> out) const {
    if (is_pm(addr)) {
      pm_.peek(addr, out);
    } else {
      std::fill(out.begin(), out.end(), std::byte{0});
    }
  }

  /// True iff every byte of [addr, addr+len) is in the persist domain
  /// right now (PM address and no dirty cache line over it).
  [[nodiscard]] bool range_persistent(std::uint64_t addr, std::uint64_t len) const {
    if (!is_pm(addr)) return false;
    return !llc_.is_dirty(addr, len);
  }

  /// CPU clflush of a PM range; returns completion time. No-op (start)
  /// for DRAM addresses.
  sim::SimTime clflush(sim::SimTime start, std::uint64_t addr, std::uint64_t len) {
    if (!is_pm(addr)) return start;
    return llc_.clflush(start, addr, len);
  }

  /// Timing helper: completion time of a device write of `bytes` to
  /// `addr` starting at `start` (used by the RNIC DMA engine).
  sim::SimTime device_write_complete_at(sim::SimTime start, std::uint64_t addr,
                                        std::uint64_t bytes) {
    return is_pm(addr) ? pm_.write_complete_at(start, bytes)
                       : dram_.write_complete_at(start, bytes);
  }

  sim::SimTime device_read_complete_at(sim::SimTime start, std::uint64_t addr,
                                       std::uint64_t bytes) {
    return is_pm(addr) ? pm_.read_complete_at(start, bytes)
                       : dram_.read_complete_at(start, bytes);
  }

  /// Pure device write cost (no occupancy claim; see Device::write_cost).
  [[nodiscard]] sim::SimTime device_write_cost(std::uint64_t addr,
                                               std::uint64_t bytes) const {
    return is_pm(addr) ? pm_.write_cost(bytes) : dram_.write_cost(bytes);
  }

  /// Power failure: DRAM and dirty LLC lines are lost; PM survives.
  /// Watches persist (they model software that re-polls after restart).
  void crash() {
    llc_.crash();
    dram_.crash();
    pm_.crash();
  }

  // ---- write watches ----
  //
  // Software polling (a CPU spinning on a message buffer or log slot)
  // is modeled event-style: register a watch over the polled range and
  // the callback fires whenever any write lands in it. The *cost* of
  // polling is charged separately by the host layer; the watch only
  // supplies the wake-up edge. This keeps simulated polling O(1) per
  // write instead of one event per poll iteration.

  using WatchId = std::uint64_t;

  WatchId add_watch(std::uint64_t addr, std::uint64_t len,
                    std::function<void()> on_write) {
    const WatchId id = next_watch_++;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(callbacks_.size());
      callbacks_.push_back(std::move(on_write));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      callbacks_[slot] = std::move(on_write);
    }
    // Ids grow, so going after every watch at the same address keeps
    // watches_ sorted by (addr, id).
    const auto at = std::upper_bound(
        watches_.begin(), watches_.end(), addr,
        [](std::uint64_t a, const Watch& w) { return a < w.addr; });
    watches_.insert(at, Watch{id, addr, len, slot});
    max_watch_len_ = std::max(max_watch_len_, len);
    return id;
  }

  void remove_watch(WatchId id) {
    const auto it = std::find_if(watches_.begin(), watches_.end(),
                                 [id](const Watch& w) { return w.id == id; });
    if (it == watches_.end()) return;
    const std::uint32_t slot = it->slot;
    watches_.erase(it);
    // A fire in progress may still hold the slot in its snapshot; the
    // callback then runs as if it had been copied, and the slot is
    // recycled once the outermost fire returns.
    if (fire_depth_ > 0) {
      released_slots_.push_back(slot);
    } else {
      release_slot(slot);
    }
  }

  [[nodiscard]] std::size_t watch_count() const { return watches_.size(); }

 private:
  struct Watch {
    WatchId id;
    std::uint64_t addr;
    std::uint64_t len;
    std::uint32_t slot;  ///< index of the callback in callbacks_
  };

  enum class WritePath : std::uint8_t { kCpu, kDma, kNtStore };

  /// Tracked shadow extent: [start, start+len) holds the bytes of
  /// generator `seed` at stream offset `off`.
  struct ShadowRange {
    std::uint64_t len;
    std::uint64_t seed;
    std::uint64_t off;
  };

  using ShadowMap = std::map<std::uint64_t, ShadowRange>;

  /// A shadow extent held inline for its slot.
  struct SlotExtent {
    std::uint32_t at;  ///< start, as an offset into the slot
    std::uint32_t len;
    std::uint64_t seed;
    std::uint64_t off;
  };

  /// A declared ring: slot i is [base + i*slot_bytes, +slot_bytes).
  /// `index[i]` is 1 + the position of slot i's extent in `arena`, or
  /// 0 when it has none. The arena is filled in first-touch order, so
  /// the pages a run commits follow the number of slots it writes, not
  /// how they are spread over the ring. Both arrays share one
  /// ZeroedArray (zeros, and no memory for a large one, until
  /// touched): `slots` arena entries, then the index words.
  struct SlotRing {
    SlotRing(std::uint64_t base_addr, std::uint64_t slot_size,
             std::uint64_t slots)
        : base(base_addr),
          end(base_addr + slots * slot_size),
          slot_bytes(slot_size),
          table(slots + (slots * sizeof(std::uint32_t) + sizeof(SlotExtent) -
                         1) / sizeof(SlotExtent)),
          arena(&table[0]),
          index(reinterpret_cast<std::uint32_t*>(&table[slots])) {}

    std::uint64_t base;
    std::uint64_t end;
    std::uint64_t slot_bytes;
    std::uint64_t live = 0;  ///< slots holding an extent
    std::uint32_t used = 0;  ///< arena positions ever handed out
    std::uint32_t free = 0;  ///< 1 + head of the recycled positions; 0: none
    ZeroedArray<SlotExtent> table;
    SlotExtent* arena;
    std::uint32_t* index;

    [[nodiscard]] const SlotExtent* find(std::uint64_t i) const {
      const std::uint32_t k = index[i];
      return k == 0 ? nullptr : &arena[k - 1];
    }
    [[nodiscard]] SlotExtent* find(std::uint64_t i) {
      const std::uint32_t k = index[i];
      return k == 0 ? nullptr : &arena[k - 1];
    }
    void put(std::uint64_t i, const SlotExtent& e) {
      std::uint32_t k = free;
      if (k != 0) {
        free = static_cast<std::uint32_t>(arena[k - 1].seed);
      } else {
        k = ++used;
      }
      arena[k - 1] = e;
      index[i] = k;
      ++live;
    }
    void erase(std::uint64_t i) {
      const std::uint32_t k = index[i];
      arena[k - 1].seed = free;  // a recycled position links the next
      free = k;
      index[i] = 0;
      --live;
    }
  };

  /// A tracked extent, wherever it is held.
  struct Extent {
    std::uint64_t start;
    std::uint64_t len;
    std::uint64_t seed;
    std::uint64_t off;
  };

  [[nodiscard]] bool shadow_empty() const {
    return inline_extents_ == 0 && shadow_.empty();
  }
  /// Where a declared ring lies; `ring` indexes rings_.
  struct RingSpan {
    std::uint64_t base;
    std::uint64_t end;
    std::uint32_t ring;
  };

  /// Index into spans_ of the first ring ending past `addr`
  /// (spans_.size(): none).
  [[nodiscard]] std::size_t first_ring_after(std::uint64_t addr) const {
    return static_cast<std::size_t>(
        std::upper_bound(spans_.begin(), spans_.end(), addr,
                         [](std::uint64_t a, const RingSpan& g) {
                           return a < g.end;
                         }) -
        spans_.begin());
  }
  /// The ring holding `addr`, or null.
  [[nodiscard]] const SlotRing* ring_at(std::uint64_t addr) const {
    const std::size_t k = first_ring_after(addr);
    return k < spans_.size() && spans_[k].base <= addr
               ? &rings_[spans_[k].ring]
               : nullptr;
  }
  [[nodiscard]] SlotRing* ring_at(std::uint64_t addr) {
    return const_cast<SlotRing*>(std::as_const(*this).ring_at(addr));
  }
  /// Of the extents that end past `at` and start before `end`, the one
  /// that starts first; false when there is none.
  bool next_extent(std::uint64_t at, std::uint64_t end, Extent& out) const;
  /// Removes/clips the inline extents overlapping [addr, addr+len).
  void trim_slots(std::uint64_t addr, std::uint64_t len);

  void write_bytes_nofire(std::uint64_t addr, std::span<const std::byte> data,
                          WritePath path, bool ddio);
  /// Lands one shadow extent (timing/accounting like a byte write of
  /// `len`, no copies) and records it in the shadow plane.
  void write_shadow_seg(std::uint64_t addr, std::uint64_t len,
                        std::uint64_t seed, std::uint64_t off, WritePath path,
                        bool ddio);
  /// Removes/clips shadow extents overlapping [addr, addr+len), inline
  /// and mapped; returns the first mapped extent at or past addr+len
  /// (an insertion hint).
  ShadowMap::iterator trim_shadow(std::uint64_t addr, std::uint64_t len);
  /// Inserts a shadow extent at `start` (no extent may overlap it),
  /// reusing a recycled map node when one is spare.
  ShadowMap::iterator insert_shadow(ShadowMap::const_iterator hint,
                                    std::uint64_t start, const ShadowRange& r);
  /// True when [addr, addr+len) meets the hull of the pristine set:
  /// the one branch a byte store outside every declared range pays.
  [[nodiscard]] bool touches_pristine(std::uint64_t addr,
                                      std::uint64_t len) const {
    return addr < pristine_hi_ && pristine_lo_ < addr + len;
  }
  /// Removes [addr, addr+len) from the pristine set.
  void clip_pristine(std::uint64_t addr, std::uint64_t len);
  void update_pristine_hull();
  /// Byte-copies [addr, addr+len) of the coherent view into one block.
  PayloadRef read_bytes_image(std::uint64_t addr, std::uint64_t len);
  /// Writes min(p.size(), limit) bytes of `p` at `addr`; returns the
  /// count. Watches are NOT fired (callers fire once over the range).
  std::uint64_t write_payload_nofire(std::uint64_t addr, const PayloadRef& p,
                                     std::uint64_t limit, WritePath path,
                                     bool ddio);

  void fire_watches(std::uint64_t addr, std::uint64_t len) {
    if (watches_.empty() || len == 0) return;
    // Only a watch starting less than the longest watch's length
    // before `addr` can overlap the write.
    const std::uint64_t lo = addr - std::min(addr, max_watch_len_);
    auto it = std::lower_bound(
        watches_.begin(), watches_.end(), lo,
        [](const Watch& w, std::uint64_t a) { return w.addr < a; });
    // A callback may add or remove watches, or write and fire again:
    // run the watches matched now (snapshot), in registration order.
    // The snapshot is a stack nested fires share, and holds callback
    // slots rather than copies, so a warm fire allocates nothing.
    const std::size_t base = fired_.size();
    for (; it != watches_.end() && it->addr < addr + len; ++it) {
      if (addr < it->addr + it->len) fired_.push_back({it->id, it->slot});
    }
    if (fired_.size() - base > 1) {
      std::sort(fired_.begin() + static_cast<std::ptrdiff_t>(base),
                fired_.end(),
                [](const Fired& a, const Fired& b) { return a.id < b.id; });
    }
    ++fire_depth_;
    // Indexed, not iterated: a nested fire may reallocate fired_.
    // callbacks_ is a deque, so adding watches never moves a callback
    // while it runs.
    for (std::size_t i = base; i < fired_.size(); ++i) {
      callbacks_[fired_[i].slot]();
    }
    --fire_depth_;
    fired_.resize(base);
    if (fire_depth_ == 0) {
      for (const std::uint32_t slot : released_slots_) release_slot(slot);
      released_slots_.clear();
    }
  }

  void release_slot(std::uint32_t slot) {
    callbacks_[slot] = nullptr;
    free_slots_.push_back(slot);
  }

  ContentMode mode_;
  BufferPool pool_;
  PmDevice pm_;
  DramDevice dram_;
  Llc llc_;
  /// kShadow plane: declared rings hold one extent per slot inline, the
  /// map holds every other extent. Rings stay in declaration order, so
  /// declaring one moves no table; spans_ keeps them sorted by base
  /// (they are disjoint).
  static constexpr std::size_t kFirstRings = 4;
  std::vector<SlotRing> rings_;
  std::vector<RingSpan> spans_;
  std::size_t inline_extents_ = 0;
  ShadowMap shadow_;
  /// Recycled map nodes: the steady-state payload overwrite cycle
  /// outside declared rings performs no map allocations.
  std::vector<ShadowMap::node_type> spare_shadow_;
  /// kShadow pristine set: disjoint, non-adjacent [start -> end)
  /// ranges, and their hull [lo, hi) (empty: [0, 0)).
  std::map<std::uint64_t, std::uint64_t> pristine_;
  std::uint64_t pristine_lo_ = 0;
  std::uint64_t pristine_hi_ = 0;
  std::uint64_t next_watch_ = 1;
  std::vector<Watch> watches_;  ///< sorted by (addr, id)
  /// Longest watch ever registered: bounds how far before a write a
  /// matching watch can start.
  std::uint64_t max_watch_len_ = 0;
  std::deque<std::function<void()>> callbacks_;  ///< by Watch::slot
  std::vector<std::uint32_t> free_slots_;
  /// Slots removed during a fire, recycled when the outermost returns.
  std::vector<std::uint32_t> released_slots_;
  struct Fired {
    WatchId id;
    std::uint32_t slot;
  };
  std::vector<Fired> fired_;  ///< snapshot stack of fire_watches
  int fire_depth_ = 0;
};

}  // namespace prdma::mem
