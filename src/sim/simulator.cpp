#include "sim/simulator.hpp"

#include <cstdio>
#include <string>

namespace prdma::sim {

Simulator::Simulator() { detail::t_setup_frames = &frames_; }

Simulator::~Simulator() {
  destroy_parked_roots();
  if (detail::t_setup_frames == &frames_) detail::t_setup_frames = nullptr;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slot(s).next_free;
    slot(s).next_free = kNoSlot;
    return s;
  }
  if (slab_size_ == slab_.size() * kSlabChunkSlots) {
    slab_.push_back(std::make_unique<Slot[]>(kSlabChunkSlots));
    ++pool_allocs_;
  }
  return static_cast<std::uint32_t>(slab_size_++);
}

void Simulator::release_slot(std::uint32_t s) {
  slot(s).fn.reset();
  slot(s).seq = kNoSeq;
  slot(s).next_free = free_head_;
  free_head_ = s;
}

EventHandle Simulator::schedule_at(SimTime t, InlineTask fn) {
  const std::uint32_t s = acquire_slot();
  slot(s).fn = std::move(fn);
  return push_entry(t, s);
}

EventHandle Simulator::link_entry(SimTime t, std::uint64_t seq,
                                  std::uint32_t slot) {
  if (heap_.size() == heap_.capacity()) ++pool_allocs_;
  this->slot(slot).seq = seq;
  heap_.push_back(HeapEntry{t, seq, slot});
  sift_up(heap_.size() - 1);
  return EventHandle{slot, seq};
}

EventHandle Simulator::push_entry(SimTime t, std::uint32_t slot) {
  if (t < now_) t = now_;  // never schedule into the past
  return link_entry(t, next_seq_++, slot);
}

// Lazy deletion: cancel() frees the slot at once (its seq no longer
// matches the heap entry, which marks the entry dead) and leaves the
// entry in place. Dead entries are popped as soon as they reach the
// top, and filtered out wholesale once they are the majority. Neither
// touches a live entry's (time, seq) key, so the live pop order is
// exactly the order without the cancelled events.

void Simulator::cancel(EventHandle h) {
  if (h.slot >= slab_size_ || slot(h.slot).seq != h.seq) return;  // stale
  release_slot(h.slot);
  ++dead_;
  drop_dead_top();
  if (2 * dead_ > heap_.size()) compact();
}

void Simulator::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::drop_dead_top() {
  while (dead_ > 0 && !live(heap_.front())) {
    pop_top();
    --dead_;
  }
}

void Simulator::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return !live(e); });
  dead_ = 0;
  // Bottom-up heap construction: sift down every parent, last first.
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

// 4-ary hole-insertion heap: half the levels of a binary heap and one
// entry store per level instead of a swap — both matter when sifting is
// the hot loop. (time, seq) is a total order, so the pop sequence is
// identical for any heap arity; determinism does not depend on layout.

void Simulator::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    // Pull the likely next level in while this one is compared.
    if (4 * first + 1 < n) {
      __builtin_prefetch(static_cast<const void*>(&heap_[4 * first + 1]));
    }
    std::size_t smallest = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[smallest])) smallest = c;
    }
    if (!heap_[smallest].before(entry)) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = entry;
}

bool Simulator::step_one() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  // Start pulling the task's slot into cache while the sift below runs;
  // the slab is large enough that this fetch otherwise stalls invoke.
  __builtin_prefetch(static_cast<const void*>(&slot(top.slot)));
  pop_top();
  drop_dead_top();
  now_ = top.time;
  ++executed_;
  // Invoke in place — the chunked slab keeps the slot's address stable
  // even when the callback schedules enough new events to grow the
  // slab. The slot is recycled right after, so steady state holds the
  // high-water mark of pending events plus one. Clearing `seq` first
  // makes the event's own handle stale while it runs.
  Slot& s = slot(top.slot);
  s.seq = kNoSeq;
  s.fn.consume();
  release_slot(top.slot);
  return true;
}

void Simulator::run() {
  const detail::RunningShardScope scope(&frames_);
  while (!stopped_ && step_one()) {
  }
}

void Simulator::run_until(SimTime t) {
  const detail::RunningShardScope scope(&frames_);
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    step_one();
  }
  if (now_ < t && !stopped_) now_ = t;
}

std::string format_time(SimTime t) {
  char buf[48];
  if (t < kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%lluns", static_cast<unsigned long long>(t));
  } else if (t < kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.2fus", to_us(t));
  } else if (t < kSecond) {
    std::snprintf(buf, sizeof buf, "%.2fms", to_ms(t));
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", to_s(t));
  }
  return buf;
}

}  // namespace prdma::sim
