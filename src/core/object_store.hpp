#pragma once

#include <cstdint>
#include <vector>

#include "core/node.hpp"
#include "sim/task.hpp"

namespace prdma::core {

/// Server-side object table living in persistent memory: the target of
/// every micro/macro-benchmark operation (§5.1: 50 K objects).
///
/// Application semantics: a *durable* object write is a CPU memcpy
/// into the slot followed by a cache-line flush of the written range —
/// the SNIA PM programming model the paper builds on (§2.1).
class ObjectStore {
 public:
  ObjectStore(Node& node, std::uint64_t object_count, std::uint64_t slot_bytes)
      : node_(node),
        count_(object_count),
        slot_(slot_bytes),
        base_(node.pm_alloc().alloc(object_count * slot_bytes, 256)) {
    // Fresh slots hold zeros: a read of a slot no run has written yet
    // moves no bytes in kShadow, and each slot keeps its shadow extent
    // inline (DESIGN.md §7.3).
    node.mem().declare_pristine(base_, object_count * slot_bytes);
    node.mem().declare_slots(base_, slot_bytes, object_count);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t slot_bytes() const { return slot_; }
  [[nodiscard]] std::uint64_t addr_of(std::uint64_t obj_id) const {
    return base_ + (obj_id % count_) * slot_;
  }

  /// Durably applies `len` bytes sitting at server-local `src_addr`
  /// to object `obj_id`: memcpy (core-occupying) + clflush. Resolves
  /// when the object bytes are in the persist domain.
  sim::Task<> apply_write(std::uint64_t obj_id, std::uint64_t src_addr,
                          std::uint32_t len) {
    auto& host = node_.host();
    auto& mem = node_.mem();
    co_await host.memcpy_exec(len);
    const std::uint64_t dst = addr_of(obj_id);
    mem.cpu_write_payload(dst, mem.read_payload(src_addr, len));
    const auto done = mem.clflush(node_.rnic().simulator().now(), dst, len);
    co_await sim::delay(node_.rnic().simulator(),
                        done - node_.rnic().simulator().now());
    bytes_applied_ += len;
  }

  /// Reads `len` object bytes into server-local `dst_addr` (staging a
  /// response); charges the copy.
  sim::Task<> read_into(std::uint64_t obj_id, std::uint64_t dst_addr,
                        std::uint32_t len) {
    auto& mem = node_.mem();
    co_await node_.host().memcpy_exec(len);
    mem.cpu_write_payload(dst_addr, mem.read_payload(addr_of(obj_id), len));
  }

  [[nodiscard]] std::uint64_t bytes_applied() const { return bytes_applied_; }

 private:
  Node& node_;
  std::uint64_t count_;
  std::uint64_t slot_;
  std::uint64_t base_;
  std::uint64_t bytes_applied_ = 0;
};

}  // namespace prdma::core
