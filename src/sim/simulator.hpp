#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/frame_arena.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace prdma::sim {

/// Names one event scheduled by Simulator::schedule()/schedule_at(). A
/// default-constructed handle names no event.
struct EventHandle {
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::uint64_t kNoSeq = UINT64_MAX;
  std::uint32_t slot = kNoSlot;
  std::uint64_t seq = kNoSeq;
};

/// The (time, seq) ordering key of an event, drawn by
/// Simulator::reserve() before the event is armed.
struct EventKey {
  SimTime time = 0;
  std::uint64_t seq = 0;

  [[nodiscard]] bool before(const EventKey& o) const {
    return time != o.time ? time < o.time : seq < o.seq;
  }
};

/// Deterministic single-threaded discrete-event simulator.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO via a monotonically increasing sequence number), so a run is a
/// pure function of the initial schedule and the RNG seed. This property
/// is load-bearing: every benchmark in bench/ is reproducible bit-for-bit.
///
/// Hot-path layout: callables are move-only InlineTasks (no per-event
/// heap allocation for captures within the inline budget) parked in a
/// slab of recycled slots, while the priority queue orders 24-byte
/// (time, seq, slot) entries. Once the slab and heap vectors reach
/// their high-water marks, steady-state scheduling performs zero
/// allocations — measured by bench/engine_perf and pinned by sim_test.
///
/// Every scheduled event can be withdrawn through its EventHandle
/// with cancel() (DESIGN.md §7.1). Cancellation is lazy: the capture is
/// destroyed and its slot recycled at once, while the heap entry stays
/// behind, dead, until it reaches the top or a compaction filters it
/// out. The heap top is always live, so pending(), next_event_time()
/// and run_until() only ever see live events.
class Simulator {
 public:
  /// Becomes the thread's setup shard: roots spawned before any run
  /// register with it (ShardFrames, DESIGN.md §7.3).
  Simulator();
  /// Destroys the roots still parked, then everything else.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Only advances inside run()/step().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at now() + delay. The returned handle is
  /// only needed to cancel() the event; most callers drop it.
  template <typename F>
  EventHandle schedule(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  /// The capture is constructed directly inside a recycled slab slot —
  /// no intermediate InlineTask moves on the hot path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask>>>
  EventHandle schedule_at(SimTime t, F&& fn) {
    const std::uint32_t s = acquire_slot();
    slot(s).fn.emplace(std::forward<F>(fn));
    return push_entry(t, s);
  }

  /// Overload for a pre-built task (move-assigned into the slot).
  EventHandle schedule_at(SimTime t, InlineTask fn);

  /// Draws the key schedule(delay, ...) would give an event here and
  /// now, without arming anything: the sequence number is consumed at
  /// this call, exactly as schedule() consumes it. Paired with
  /// schedule_keyed(), it lets a caller keep many future events in a
  /// private queue of its own and arm only the earliest (the
  /// workload::ClientPool arrival heap, DESIGN.md §7.7) while the
  /// global pop order stays what schedule() at the reserve() points
  /// would have produced.
  [[nodiscard]] EventKey reserve(SimTime delay) {
    return EventKey{now_ + delay, next_seq_++};
  }

  /// Arms `fn` under a key drawn by reserve(). The caller must arm a
  /// key before the simulator passes it — before any event that the
  /// key orders ahead of pops — or the order breaks.
  ///
  /// Arm-once rule: a key enters the queue at most once. Cancellation
  /// is lazy, so a cancelled key's dead entry stays in the heap; armed
  /// again, it would match its slot's seq and look live beside the new
  /// entry, and step() would run an empty task. Debug builds assert
  /// the rule; a cancelled key must be replaced by a fresh reserve().
  template <typename F>
  EventHandle schedule_keyed(EventKey key, F&& fn) {
    assert(key.time >= now_ && key.seq < next_seq_);
    assert(std::none_of(heap_.begin(), heap_.end(),
                        [&](const HeapEntry& e) { return e.seq == key.seq; }) &&
           "schedule_keyed: key armed twice (arm-once rule)");
    const std::uint32_t s = acquire_slot();
    slot(s).fn.emplace(std::forward<F>(fn));
    return link_entry(key.time, key.seq, s);
  }

  /// Withdraws a pending event: it never runs and is not counted in
  /// events_executed(). A stale handle (the event already ran or was
  /// cancelled) is ignored. Only the thread running this simulator may
  /// call it.
  void cancel(EventHandle h);

  /// Executes the next pending event, if any. Returns false when idle.
  /// step(), run() and run_until() make this the thread's running
  /// shard, so frames created by the events come from its arena.
  bool step() {
    const detail::RunningShardScope scope(&frames_);
    return step_one();
  }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs until simulated time would exceed `t` (events at exactly `t`
  /// still execute) or the queue drains. Advances now() to `t` even if
  /// the queue drained earlier.
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Clears the stop flag so the simulation can be resumed.
  void clear_stop() { stopped_ = false; }

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of live events currently pending (cancelled ones excluded).
  [[nodiscard]] std::size_t pending() const { return heap_.size() - dead_; }

  /// Timestamp of the next live pending event. Calling this with
  /// pending() == 0 is a contract violation (asserts in debug builds).
  [[nodiscard]] SimTime next_event_time() const {
    assert(!heap_.empty() && "next_event_time() requires pending() > 0");
    return heap_.front().time;
  }

  /// Times the event-storage vectors (slot slab / heap) had to grow.
  /// Flat after warm-up: the free-list recycles slots, so a steady
  /// workload schedules forever without touching the allocator.
  [[nodiscard]] std::uint64_t pool_allocations() const { return pool_allocs_; }

  /// Event slots currently owned by the slab (high-water mark of
  /// concurrently pending live events, plus the one executing).
  [[nodiscard]] std::size_t slab_slots() const { return slab_size_; }

  /// This shard's coroutine frame arena and detached-root registry.
  [[nodiscard]] ShardFrames& frames() { return frames_; }

  /// Destroys every detached root still parked on this shard, and the
  /// Task chains they own. Owners call it at teardown, while the
  /// objects those frames reference are still alive; the destructor
  /// calls it again as a fallback. Returns how many were destroyed.
  std::size_t destroy_parked_roots() { return frames_.roots.destroy_all(); }

 private:
  static constexpr std::uint32_t kNoSlot = EventHandle::kNoSlot;
  static constexpr std::uint64_t kNoSeq = EventHandle::kNoSeq;
  /// Slab chunk geometry: fixed-size chunks give every slot a stable
  /// address, so step() can invoke a task in place while the callback
  /// grows the slab underneath it.
  static constexpr std::size_t kSlabChunkShift = 8;
  static constexpr std::size_t kSlabChunkSlots = std::size_t{1}
                                                << kSlabChunkShift;

  /// One recycled event slot. `seq` is the seq of the pending event
  /// that owns the slot (kNoSeq while vacant or running), so a heap
  /// entry whose seq differs is dead and a stale EventHandle misses.
  /// `next_free` threads the free-list when the slot is vacant.
  struct Slot {
    InlineTask fn;
    std::uint64_t seq = kNoSeq;
    std::uint32_t next_free = kNoSlot;
  };
  // `seq` fits in the padding the slot already had.
  static_assert(sizeof(Slot) <= sizeof(InlineTask) + alignof(InlineTask));

  /// Compact heap entry: ordering data only, so sift operations move
  /// 24 bytes instead of whole events.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;

    [[nodiscard]] bool before(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  bool step_one();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Links an occupied slot into the queue at time `t` (clamped to now()).
  EventHandle push_entry(SimTime t, std::uint32_t slot);
  /// Links an occupied slot into the queue under key (t, seq).
  EventHandle link_entry(SimTime t, std::uint64_t seq, std::uint32_t slot);
  [[nodiscard]] bool live(const HeapEntry& e) {
    return slot(e.slot).seq == e.seq;
  }
  void pop_top();
  /// Pops dead entries off the top: restores the live-top invariant.
  void drop_dead_top();
  /// Filters every dead entry out of the heap and re-heapifies.
  void compact();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return slab_[i >> kSlabChunkShift][i & (kSlabChunkSlots - 1)];
  }

  /// First member, so destroyed last: events in the slab below may
  /// own Tasks whose frames live in this arena.
  ShardFrames frames_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::uint64_t pool_allocs_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::size_t slab_size_ = 0;  ///< slots handed out across all chunks
  std::uint32_t free_head_ = kNoSlot;
  std::size_t dead_ = 0;  ///< cancelled entries still in heap_
  // Hand-rolled 4-ary min-heap: std::priority_queue's const top() blocks
  // moving entries out, and (time, seq) FIFO needs the explicit tie-break.
  // Arity does not affect the pop order — the comparator is total.
  std::vector<HeapEntry> heap_;
};

}  // namespace prdma::sim
