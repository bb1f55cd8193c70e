#include "sim/frame_arena.hpp"

#include <algorithm>
#include <new>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRDMA_FRAME_ASAN 1
#endif
#endif
#if !defined(PRDMA_FRAME_ASAN) && defined(__SANITIZE_ADDRESS__)
#define PRDMA_FRAME_ASAN 1
#endif
#ifdef PRDMA_FRAME_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace prdma::sim {

namespace {

// Free blocks keep their header and free-list link readable; the rest
// of the frame is poisoned until the block is handed out again, so a
// use-after-free of a recycled frame still trips ASan.
constexpr std::size_t kLinkBytes = sizeof(void*);

void poison_free(void* frame, std::size_t cls) {
#ifdef PRDMA_FRAME_ASAN
  const std::size_t body = (cls + 1) * FrameArena::kClassBytes -
                           FrameArena::kHeaderBytes - kLinkBytes;
  __asan_poison_memory_region(static_cast<std::byte*>(frame) + kLinkBytes,
                              body);
#else
  (void)frame;
  (void)cls;
#endif
}

void unpoison_block(void* base, std::size_t bytes) {
#ifdef PRDMA_FRAME_ASAN
  __asan_unpoison_memory_region(base, bytes);
#else
  (void)base;
  (void)bytes;
#endif
}

}  // namespace

FrameArena::~FrameArena() {
  drain_remote_frees();
  for (const Chunk& c : chunks_) {
    unpoison_block(c.base, c.bytes);
    ::operator delete(c.base);
  }
}

void FrameArena::grow(std::size_t cls) {
  const std::size_t block = (cls + 1) * kClassBytes;
  std::size_t& chunk = next_chunk_bytes_[cls];
  if (chunk == 0) chunk = kFirstChunkBytes;
  const std::size_t count = std::max<std::size_t>(1, chunk / block);
  chunk = std::min(2 * chunk, kMaxChunkBytes);
  void* base = ::operator new(block * count);
  chunks_.push_back(Chunk{base, block * count});
  chunk_bytes_ += block * count;
  auto* bytes = static_cast<std::byte*>(base);
  // Thread the blocks in address order so the first take() hands out
  // the chunk's first block.
  for (std::size_t i = count; i-- > 0;) {
    auto* h = ::new (bytes + i * block) Header{this, static_cast<std::uint32_t>(cls)};
    void* frame = reinterpret_cast<std::byte*>(h) + kHeaderBytes;
    auto* link = ::new (frame) Link{free_[cls]};
    free_[cls] = link;
    poison_free(frame, cls);
  }
}

void* FrameArena::take(std::size_t cls) {
  if (free_[cls] == nullptr) grow(cls);
  Link* link = free_[cls];
  free_[cls] = link->next;
  ++in_use_;
  void* frame = link;
  unpoison_block(frame, (cls + 1) * kClassBytes - kHeaderBytes);
  return frame;
}

void FrameArena::give(void* frame) noexcept {
  const std::size_t cls = header_of(frame)->cls;
  free_[cls] = ::new (frame) Link{free_[cls]};
  --in_use_;
  poison_free(frame, cls);
}

void FrameArena::park_remote(void* frame) noexcept {
  auto* link = static_cast<Link*>(frame);
  Link* head = remote_.load(std::memory_order_relaxed);
  do {
    link->next = head;
  } while (!remote_.compare_exchange_weak(head, link, std::memory_order_release,
                                          std::memory_order_relaxed));
}

void FrameArena::drain_remote_frees() noexcept {
  // Usually empty: a plain load is far cheaper than the locked
  // exchange, and pushes happen in phase A, before the barrier the
  // drain runs behind.
  if (remote_.load(std::memory_order_relaxed) == nullptr) return;
  Link* link = remote_.exchange(nullptr, std::memory_order_acquire);
  while (link != nullptr) {
    Link* next = link->next;
    give(link);
    ++remote_frees_;
    link = next;
  }
}

void* FrameArena::allocate_global(std::size_t n) {
  void* raw = ::operator new(n + kHeaderBytes);
  ::new (raw) Header{nullptr, static_cast<std::uint32_t>(kClasses)};
  return static_cast<std::byte*>(raw) + kHeaderBytes;
}

void FrameArena::free_global(void* frame) noexcept {
  ::operator delete(header_of(frame));
}

void RootRegistry::link(Node& n) {
  std::lock_guard lock(mu_);
  n.owner = this;
  n.prev = nullptr;
  n.next = head_;
  if (head_ != nullptr) head_->prev = &n;
  head_ = &n;
  ++count_;
}

void RootRegistry::unlink(Node& n) noexcept {
  std::lock_guard lock(mu_);
  if (n.owner != this) return;  // already taken by destroy_all()
  if (n.prev != nullptr) {
    n.prev->next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != nullptr) n.next->prev = n.prev;
  n.owner = nullptr;
  --count_;
}

std::size_t RootRegistry::destroy_all() {
  std::size_t destroyed = 0;
  for (;;) {
    std::coroutine_handle<> frame;
    {
      std::lock_guard lock(mu_);
      Node* n = head_;
      if (n == nullptr) break;
      head_ = n->next;
      if (head_ != nullptr) head_->prev = nullptr;
      n->owner = nullptr;
      --count_;
      frame = n->frame;
    }
    // Outside the lock: the frame's locals may complete or destroy
    // other roots as they unwind.
    frame.destroy();
    ++destroyed;
  }
  return destroyed;
}

std::size_t RootRegistry::size() const {
  std::lock_guard lock(mu_);
  return count_;
}

}  // namespace prdma::sim
