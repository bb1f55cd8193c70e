#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/partitioned_engine.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace prdma::mem {

class BufferPool;

/// One scatter-gather extent of a payload image. `kBytes` extents are
/// real bytes inside the owning block's data area; `kShadow` extents
/// carry no bytes at all — just a length plus the deterministic
/// content generator (`seed` = the entry sequence that produced the
/// bytes, `off` = offset within that generator's stream), which is
/// everything the shadow content plane needs to track digests.
struct PayloadSeg {
  enum class Kind : std::uint8_t { kBytes, kShadow };
  Kind kind = Kind::kBytes;
  std::uint32_t len = 0;
  std::uint32_t data_off = 0;  ///< kBytes: offset into the block data area
  std::uint64_t seed = 0;      ///< kShadow: content-generator id
  std::uint64_t off = 0;       ///< kShadow: offset within the generator
};

/// Intrusively refcounted payload block: a fixed header (refcount +
/// inline segment descriptor array) followed by the data area. Blocks
/// come from a per-node BufferPool (recycled on last unref) or, for
/// the few non-pooled users, straight from the heap (pool == nullptr).
struct PayloadBuf {
  static constexpr std::uint32_t kMaxSegs = 8;

  BufferPool* pool = nullptr;     ///< null: plain heap block
  PayloadBuf* next_free = nullptr;
  /// Atomic because a packet's payload may be unreffed by the receiver
  /// node's partition worker while the owner still holds references
  /// (relaxed bumps, acq_rel on the final release — the same contract
  /// as shared_ptr's control block). Single-threaded runs pay only the
  /// uncontended lock-prefix cost.
  std::atomic<std::uint32_t> refs{0};
  std::atomic<std::uint32_t> ref_acquires{0};  ///< lifetime ref() count
  std::uint32_t size_class = 0;
  std::uint32_t data_cap = 0;
  std::uint32_t data_used = 0;
  std::uint32_t seg_count = 0;
  std::uint64_t total_len = 0;  ///< logical payload bytes across segments
  PayloadSeg segs[kMaxSegs];

  [[nodiscard]] std::byte* data() {
    return reinterpret_cast<std::byte*>(this) + sizeof(PayloadBuf);
  }
  [[nodiscard]] const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(PayloadBuf);
  }

  [[nodiscard]] std::span<const std::byte> seg_bytes(const PayloadSeg& s) const {
    assert(s.kind == PayloadSeg::Kind::kBytes);
    return {data() + s.data_off, s.len};
  }

  /// Reserves `n` data bytes, extending the trailing kBytes segment or
  /// opening a new one; returns where to write them.
  std::byte* append_bytes_uninit(std::uint32_t n) {
    assert(data_used + n <= data_cap);
    std::byte* out = data() + data_used;
    if (seg_count > 0 && segs[seg_count - 1].kind == PayloadSeg::Kind::kBytes &&
        segs[seg_count - 1].data_off + segs[seg_count - 1].len == data_used) {
      segs[seg_count - 1].len += n;
    } else {
      assert(seg_count < kMaxSegs);
      segs[seg_count++] = PayloadSeg{PayloadSeg::Kind::kBytes, n, data_used, 0, 0};
    }
    data_used += n;
    total_len += n;
    return out;
  }

  void append_bytes(std::span<const std::byte> bytes) {
    std::byte* dst = append_bytes_uninit(static_cast<std::uint32_t>(bytes.size()));
    for (std::size_t i = 0; i < bytes.size(); ++i) dst[i] = bytes[i];
  }

  void append_shadow(std::uint32_t len, std::uint64_t seed, std::uint64_t off) {
    assert(seg_count < kMaxSegs);
    segs[seg_count++] = PayloadSeg{PayloadSeg::Kind::kShadow, len, 0, seed, off};
    total_len += len;
  }
};

namespace detail {
void release_payload(PayloadBuf* b);  // defined with BufferPool (below)
}

/// Shared handle to a PayloadBuf — the data plane's replacement for
/// `shared_ptr<const vector<byte>>`. Copies bump the intrusive
/// refcount (8 bytes, no control block); the last handle returns the
/// block to its pool. Lifetime rule (DESIGN.md §7.3): every hop that
/// may outlive its caller (packet in flight, retransmit queue, pending
/// DMA) holds its own PayloadRef; nobody frees bytes explicitly.
class PayloadRef {
 public:
  PayloadRef() noexcept = default;
  PayloadRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-*)

  /// Adopts the caller's reference (refs already counts it).
  explicit PayloadRef(PayloadBuf* adopt) noexcept : buf_(adopt) {}

  PayloadRef(const PayloadRef& o) noexcept : buf_(o.buf_) {
    if (buf_ != nullptr) {
      buf_->refs.fetch_add(1, std::memory_order_relaxed);
      buf_->ref_acquires.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PayloadRef(PayloadRef&& o) noexcept : buf_(o.buf_) { o.buf_ = nullptr; }
  PayloadRef& operator=(const PayloadRef& o) noexcept {
    PayloadRef tmp(o);
    std::swap(buf_, tmp.buf_);
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
      reset();
      buf_ = o.buf_;
      o.buf_ = nullptr;
    }
    return *this;
  }
  ~PayloadRef() { reset(); }

  void reset() noexcept {
    if (buf_ != nullptr) {
      if (buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        detail::release_payload(buf_);
      }
      buf_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return buf_ != nullptr;
  }
  friend bool operator==(const PayloadRef& r, std::nullptr_t) noexcept {
    return r.buf_ == nullptr;
  }
  friend bool operator!=(const PayloadRef& r, std::nullptr_t) noexcept {
    return r.buf_ != nullptr;
  }

  [[nodiscard]] PayloadBuf* buf() const noexcept { return buf_; }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return buf_ != nullptr ? buf_->total_len : 0;
  }
  [[nodiscard]] std::uint32_t seg_count() const noexcept {
    return buf_ != nullptr ? buf_->seg_count : 0;
  }
  [[nodiscard]] std::span<const PayloadSeg> segs() const noexcept {
    return buf_ != nullptr ? std::span<const PayloadSeg>(buf_->segs,
                                                         buf_->seg_count)
                           : std::span<const PayloadSeg>{};
  }
  /// True when the whole payload is one contiguous bytes extent.
  [[nodiscard]] bool contiguous_bytes() const noexcept {
    return buf_ != nullptr && buf_->seg_count == 1 &&
           buf_->segs[0].kind == PayloadSeg::Kind::kBytes;
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    assert(contiguous_bytes());
    return buf_->seg_bytes(buf_->segs[0]);
  }

 private:
  PayloadBuf* buf_ = nullptr;
};

/// Aggregate pool counters (deterministic; BENCH_dataplane.json).
struct BufferPoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t recycles = 0;
  std::uint64_t outstanding = 0;       ///< blocks currently referenced
  std::uint64_t outstanding_peak = 0;
  std::uint64_t slab_bytes = 0;        ///< total slab memory carved
  std::uint64_t oversize_allocs = 0;   ///< acquires too big for any class
};

/// Per-node deterministic slab allocator for payload blocks (the
/// chunked-slab pattern of sim/inline_function.hpp's engine slots):
/// power-of-two size classes, each growing by slab chunks whose blocks
/// are recycled through an intrusive free list — zero steady-state
/// heap allocations once the working set is warm. A class's chunks
/// grow with its demand: 32 KiB first, doubling up to 256 KiB.
/// Requests too big for any class are the only heap allocations.
class BufferPool {
 public:
  explicit BufferPool(sim::Simulator& sim);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A block with data_cap >= `data_cap`, refs == 1, no segments.
  PayloadRef acquire(std::uint64_t data_cap);

  /// Pool-backed single-extent copy of `bytes`.
  PayloadRef make_bytes(std::span<const std::byte> bytes);

  /// Returns a block whose refcount hit zero (PayloadRef internal).
  /// From a foreign partition's worker thread the block is parked on a
  /// lock-free remote-free stack instead; the owner partition applies
  /// the frees at its next epoch barrier (drain_remote_frees), keeping
  /// every pool counter single-writer and the free lists thread-local.
  void recycle(PayloadBuf* b);

  /// Applies remote frees parked by other partitions. Called by the
  /// owner partition's epoch hook (and once after the run drains);
  /// the remote-free sets per epoch are a pure function of the
  /// schedule, so the resulting stats are thread-count independent.
  void drain_remote_frees();

  [[nodiscard]] const BufferPoolStats& stats() const { return stats_; }

  /// Wires the pool to a tracer: occupancy (kPayloadPool) and
  /// per-recycle ref-acquisition (kPayloadRefs) gauges, recorded
  /// alloc-free in kCounters mode.
  void set_tracer(trace::Tracer* tracer, std::uint16_t track = 0) {
    tracer_ = tracer;
    track_ = track;
  }

  /// ASan builds poison free blocks' data areas; exposed for tests.
  [[nodiscard]] static bool poisoning_enabled();
  [[nodiscard]] static bool address_poisoned(const void* p);

 private:
  static constexpr std::uint32_t kMinClassBytes = 64;
  static constexpr std::uint32_t kClassCount = 22;  ///< up to 128 MiB
  /// A class's first slab chunk; each later one doubles, up to the max.
  static constexpr std::uint64_t kFirstChunkBytes = 32 * 1024;
  static constexpr std::uint64_t kMaxChunkBytes = 256 * 1024;

  static std::uint32_t class_of(std::uint64_t cap);
  static std::uint64_t class_bytes(std::uint32_t cls) {
    return static_cast<std::uint64_t>(kMinClassBytes) << cls;
  }

  void grow_class(std::uint32_t cls);
  void note_acquire();
  void note_recycle(const PayloadBuf* b);

  struct Slab {
    void* base;
    std::uint64_t bytes;
  };

  sim::Simulator& sim_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t track_ = 0;
  PayloadBuf* free_[kClassCount] = {};
  std::uint64_t next_chunk_bytes_[kClassCount] = {};  ///< 0: none carved yet
  std::vector<Slab> slabs_;
  BufferPoolStats stats_;
  /// Treiber stack of blocks released by foreign partition workers
  /// (multi-producer push, single-consumer exchange in the owner's
  /// epoch hook — the only remover, so no ABA window).
  std::atomic<PayloadBuf*> remote_free_{nullptr};
};

/// Heap-owned (non-pooled) single-extent payload — for tests and the
/// few construction sites that have no node at hand.
PayloadRef make_heap_payload(std::span<const std::byte> bytes);

namespace detail {
/// Last unref: pooled blocks recycle, heap blocks free.
void release_payload_heap(PayloadBuf* b);
inline void release_payload(PayloadBuf* b) {
  if (b->pool != nullptr) {
    b->pool->recycle(b);
  } else {
    release_payload_heap(b);
  }
}
}  // namespace detail

}  // namespace prdma::mem
