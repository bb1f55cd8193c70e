#include "mem/buffer_pool.hpp"

#include <algorithm>
#include <new>

#include "trace/component.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRDMA_ASAN 1
#endif
#endif
#if !defined(PRDMA_ASAN) && defined(__SANITIZE_ADDRESS__)
#define PRDMA_ASAN 1
#endif
#ifdef PRDMA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace prdma::mem {

namespace {

void poison(void* p, std::size_t n) {
#ifdef PRDMA_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

void unpoison(void* p, std::size_t n) {
#ifdef PRDMA_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

PayloadBuf* new_block(std::uint64_t data_cap) {
  void* raw = ::operator new(sizeof(PayloadBuf) + data_cap);
  auto* b = ::new (raw) PayloadBuf{};
  b->data_cap = static_cast<std::uint32_t>(data_cap);
  return b;
}

}  // namespace

bool BufferPool::poisoning_enabled() {
#ifdef PRDMA_ASAN
  return true;
#else
  return false;
#endif
}

bool BufferPool::address_poisoned(const void* p) {
#ifdef PRDMA_ASAN
  return __asan_address_is_poisoned(p) != 0;
#else
  (void)p;
  return false;
#endif
}

BufferPool::BufferPool(sim::Simulator& sim) : sim_(sim) {}

BufferPool::~BufferPool() {
  for (const Slab& s : slabs_) {
    unpoison(s.base, s.bytes);  // free blocks keep poisoned data areas
    ::operator delete(s.base);
  }
}

std::uint32_t BufferPool::class_of(std::uint64_t cap) {
  std::uint32_t cls = 0;
  while (cls < kClassCount && class_bytes(cls) < cap) ++cls;
  return cls;
}

void BufferPool::grow_class(std::uint32_t cls) {
  const std::uint64_t bytes = class_bytes(cls);
  const std::uint64_t block = sizeof(PayloadBuf) + bytes;
  std::uint64_t& chunk = next_chunk_bytes_[cls];
  if (chunk == 0) chunk = kFirstChunkBytes;
  const std::uint64_t count = std::max<std::uint64_t>(1, chunk / block);
  chunk = std::min(2 * chunk, kMaxChunkBytes);
  void* slab = ::operator new(block * count);
  slabs_.push_back(Slab{slab, block * count});
  stats_.slab_bytes += block * count;
  auto* base = static_cast<std::byte*>(slab);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto* b = ::new (base + i * block) PayloadBuf{};
    b->size_class = cls;
    b->data_cap = static_cast<std::uint32_t>(bytes);
    b->next_free = free_[cls];
    free_[cls] = b;
    poison(b->data(), bytes);
  }
}

void BufferPool::note_acquire() {
  ++stats_.acquires;
  ++stats_.outstanding;
  stats_.outstanding_peak =
      std::max(stats_.outstanding_peak, stats_.outstanding);
  if (tracer_ != nullptr) {
    tracer_->counter(trace::Component::kPayloadPool, sim_.now(),
                     stats_.outstanding, track_);
  }
}

void BufferPool::note_recycle(const PayloadBuf* b) {
  ++stats_.recycles;
  --stats_.outstanding;
  if (tracer_ != nullptr) {
    tracer_->counter(trace::Component::kPayloadPool, sim_.now(),
                     stats_.outstanding, track_);
    tracer_->counter(trace::Component::kPayloadRefs, sim_.now(),
                     b->ref_acquires.load(std::memory_order_relaxed), track_);
  }
}

PayloadRef BufferPool::acquire(std::uint64_t data_cap) {
  const std::uint32_t cls = class_of(data_cap);
  PayloadBuf* b = nullptr;
  if (cls >= kClassCount) {
    ++stats_.oversize_allocs;
    b = new_block(data_cap);
    b->size_class = cls;
  } else {
    if (free_[cls] == nullptr) grow_class(cls);
    b = free_[cls];
    free_[cls] = b->next_free;
    unpoison(b->data(), b->data_cap);
  }
  b->pool = this;
  b->next_free = nullptr;
  b->refs.store(1, std::memory_order_relaxed);
  b->ref_acquires.store(1, std::memory_order_relaxed);
  b->data_used = 0;
  b->seg_count = 0;
  b->total_len = 0;
  note_acquire();
  return PayloadRef(b);
}

PayloadRef BufferPool::make_bytes(std::span<const std::byte> bytes) {
  PayloadRef r = acquire(bytes.size());
  if (!bytes.empty()) r.buf()->append_bytes(bytes);
  return r;
}

void BufferPool::recycle(PayloadBuf* b) {
  // A final unref on another partition's worker must not touch this
  // pool's counters or free lists; park the block for the owner to
  // apply at the next epoch barrier.
  const void* shard = sim::current_engine_shard();
  if (shard != nullptr && shard != static_cast<const void*>(&sim_)) {
    PayloadBuf* head = remote_free_.load(std::memory_order_relaxed);
    do {
      b->next_free = head;
    } while (!remote_free_.compare_exchange_weak(
        head, b, std::memory_order_release, std::memory_order_relaxed));
    return;
  }
  note_recycle(b);
  if (b->size_class >= kClassCount) {
    ::operator delete(static_cast<void*>(b));
    return;
  }
  poison(b->data(), b->data_cap);
  b->next_free = free_[b->size_class];
  free_[b->size_class] = b;
}

void BufferPool::drain_remote_frees() {
  // Usually empty: a plain load is far cheaper than the locked
  // exchange. Pushes happen in phase A, before the barrier this drain
  // runs behind, so an empty read here is never stale.
  if (remote_free_.load(std::memory_order_relaxed) == nullptr) return;
  PayloadBuf* b = remote_free_.exchange(nullptr, std::memory_order_acquire);
  while (b != nullptr) {
    PayloadBuf* next = b->next_free;
    recycle(b);  // caller is the owner partition: takes the local path
    b = next;
  }
}

PayloadRef make_heap_payload(std::span<const std::byte> bytes) {
  PayloadBuf* b = new_block(bytes.size());
  b->refs.store(1, std::memory_order_relaxed);
  b->ref_acquires.store(1, std::memory_order_relaxed);
  if (!bytes.empty()) b->append_bytes(bytes);
  return PayloadRef(b);
}

namespace detail {
void release_payload_heap(PayloadBuf* b) {
  ::operator delete(static_cast<void*>(b));
}
}  // namespace detail

}  // namespace prdma::mem
