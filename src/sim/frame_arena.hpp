#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace prdma::sim {

/// Per-shard free-list allocator for coroutine frames (DESIGN.md §7.3).
///
/// Every protocol step is a coroutine, so a frame is created and freed
/// several times per simulated op. Frames are carved from chunks in
/// 64-byte size classes up to kMaxBlockBytes and recycled through one
/// intrusive free list per class; once a shard's working set is warm,
/// creating and destroying frames never reaches the global allocator.
/// A class's first chunk is kFirstChunkBytes; each later one doubles,
/// up to kMaxChunkBytes. Chunks come from the global `operator new`
/// and are all returned when the arena is destroyed.
///
/// Every block starts with a 16-byte header naming its owning arena,
/// so a frame may be freed anywhere: on its own shard it goes straight
/// back to the free list; on another partition's worker it is parked
/// on a lock-free stack that the owner drains at the next epoch
/// barrier (the BufferPool::recycle pattern), keeping every free list
/// single-writer. Frames created while no shard runs on the thread
/// (cluster setup) and frames too large for a class come from the
/// global `operator new`; their header names no owner.
class FrameArena {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxBlockBytes = 1024;
  static constexpr std::size_t kClasses = kMaxBlockBytes / kClassBytes;
  static constexpr std::size_t kFirstChunkBytes = 4 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024;
  static constexpr std::size_t kHeaderBytes = 16;

  FrameArena() = default;
  ~FrameArena();
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Frames of `n` bytes come from this class (n + header rounded up
  /// to kClassBytes); kClasses means "too large, global operator new".
  [[nodiscard]] static constexpr std::size_t class_of(std::size_t n) {
    const std::size_t block = n + kHeaderBytes;
    return block > kMaxBlockBytes ? kClasses : (block - 1) / kClassBytes;
  }

  /// A block of class `cls` (< kClasses); returns the frame address.
  void* take(std::size_t cls);

  /// Returns a block to its free list. Only the owner's thread (or a
  /// thread running no shard at all: setup, teardown) may call it.
  void give(void* frame) noexcept;

  /// Parks a block freed on a foreign partition's worker.
  void park_remote(void* frame) noexcept;

  /// Applies every parked remote free. Called by the owner partition at
  /// each epoch barrier and once after a run.
  void drain_remote_frees() noexcept;

  /// The arena a frame belongs to, or nullptr for a global block.
  [[nodiscard]] static FrameArena* owner_of(void* frame) noexcept {
    return header_of(frame)->owner;
  }

  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  /// Blocks handed out and not yet returned (parked ones still count).
  [[nodiscard]] std::uint64_t blocks_in_use() const { return in_use_; }
  /// Remote frees applied by drain_remote_frees() so far.
  [[nodiscard]] std::uint64_t remote_frees() const { return remote_frees_; }

  /// Global-fallback allocation with an owner-less header.
  static void* allocate_global(std::size_t n);
  static void free_global(void* frame) noexcept;

 private:
  struct alignas(16) Header {
    FrameArena* owner;
    std::uint32_t cls;
  };
  static_assert(sizeof(Header) == kHeaderBytes);
  /// Free and parked blocks link through the first word of the frame.
  struct Link {
    Link* next;
  };

  [[nodiscard]] static Header* header_of(void* frame) noexcept {
    return reinterpret_cast<Header*>(static_cast<std::byte*>(frame) -
                                     kHeaderBytes);
  }

  void grow(std::size_t cls);

  struct Chunk {
    void* base;
    std::size_t bytes;
  };

  Link* free_[kClasses] = {};
  std::size_t next_chunk_bytes_[kClasses] = {};  ///< 0: none carved yet
  std::vector<Chunk> chunks_;
  std::uint64_t chunk_bytes_ = 0;
  std::uint64_t in_use_ = 0;
  std::uint64_t remote_frees_ = 0;
  /// Treiber stack of frames freed by foreign partition workers
  /// (multi-producer push, single-consumer exchange by the owner).
  std::atomic<Link*> remote_{nullptr};
};

/// Detached root coroutines (sim::spawn) alive on one shard.
///
/// A simulation can end with processes still parked: a dispatcher on
/// its CQ channel, a server loop waiting for requests, a poll waiting
/// for a write that never comes. Nothing would ever resume or destroy
/// them, so their frames, and whatever the frames own, would leak.
/// Each root links itself here while it lives; destroy_all() destroys
/// the ones still parked, and with them the Task chains they own.
/// Linking is mutex-guarded: roots created during cluster setup
/// complete on whichever partition resumes them.
class RootRegistry {
 public:
  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    RootRegistry* owner = nullptr;
    std::coroutine_handle<> frame{};
  };

  RootRegistry() = default;
  RootRegistry(const RootRegistry&) = delete;
  RootRegistry& operator=(const RootRegistry&) = delete;

  void link(Node& n);
  void unlink(Node& n) noexcept;

  /// Destroys every registered root frame; returns how many. Call it
  /// while everything the parked frames reference is still alive.
  std::size_t destroy_all();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  Node* head_ = nullptr;
  std::size_t count_ = 0;
};

/// The coroutine memory of one simulator shard.
struct ShardFrames {
  FrameArena arena;
  RootRegistry roots;
};

namespace detail {

/// The shard whose events this thread is executing (set by Simulator
/// run/step and by the partitioned engine's workers), or nullptr.
inline thread_local ShardFrames* t_running_frames = nullptr;
/// The simulator most recently constructed on this thread. Roots
/// spawned outside any run (cluster setup, test bodies) register with
/// it; nullptr once it is destroyed.
inline thread_local ShardFrames* t_setup_frames = nullptr;

/// Makes `frames` the running shard for the scope.
class RunningShardScope {
 public:
  explicit RunningShardScope(ShardFrames* frames) noexcept
      : saved_(t_running_frames) {
    t_running_frames = frames;
  }
  ~RunningShardScope() { t_running_frames = saved_; }
  RunningShardScope(const RunningShardScope&) = delete;
  RunningShardScope& operator=(const RunningShardScope&) = delete;

 private:
  ShardFrames* saved_;
};

/// Coroutine frame allocation: the running shard's arena when there
/// is one and the frame fits a class, else the global operator new.
inline void* allocate_frame(std::size_t n) {
  ShardFrames* s = t_running_frames;
  const std::size_t cls = FrameArena::class_of(n);
  if (s != nullptr && cls < FrameArena::kClasses) return s->arena.take(cls);
  return FrameArena::allocate_global(n);
}

inline void free_frame(void* frame) noexcept {
  FrameArena* owner = FrameArena::owner_of(frame);
  if (owner == nullptr) {
    FrameArena::free_global(frame);
    return;
  }
  ShardFrames* s = t_running_frames;
  if (s != nullptr && &s->arena != owner) {
    owner->park_remote(frame);
  } else {
    owner->give(frame);
  }
}

/// Registry a root spawned here and now belongs to.
inline RootRegistry* spawn_registry() noexcept {
  ShardFrames* s = t_running_frames != nullptr ? t_running_frames
                                               : t_setup_frames;
  return s != nullptr ? &s->roots : nullptr;
}

}  // namespace detail

}  // namespace prdma::sim
