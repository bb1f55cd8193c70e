#pragma once

#include <cstdint>
#include <string_view>

namespace prdma::trace {

/// Numeric handle of a Component: the index of its tracer and
/// breakdown slot. Every valid id is below kPredefinedComponents.
using ComponentId = std::uint16_t;

/// Predefined span/counter categories — the phases the paper's
/// analysis names (Figs. 4/5/20): sender and receiver software,
/// network serialization and flight, RNIC SRAM/DMA/flush execution,
/// and the durable-RPC pipeline stages of §4.2.
enum class Component : ComponentId {
  kSenderSw = 0,   ///< client host software (Fig. 20 "sender SW")
  kReceiverSw,     ///< receiver critical-path software the client waits on
  kHostSw,         ///< host software not on the client critical path
  kRtt,            ///< derived hardware round-trip share (Fig. 20 remainder)
  kNetSerialize,   ///< link serialization (occupancy behind earlier packets)
  kNetFlight,      ///< propagation + queueing + jitter
  kRnicSram,       ///< SRAM packet-buffer occupancy (counter, bytes)
  kRnicDma,        ///< DMA engine drain SRAM -> host memory
  kRnicWFlush,     ///< WFlush execution at the receiver RNIC (§4.1.1)
  kRnicSFlush,     ///< SFlush addressing + copy at the receiver RNIC
  kRnicRFlush,     ///< persist_range: the RFlush building block (§4.1.2)
  kLogAppend,      ///< client post of the redo-log entry
  kDataPersist,    ///< post end -> remote durability point (T_B)
  kOpPersist,      ///< server-side persist of a logged entry
  kPersistAck,     ///< persist notification write to the sender
  kWorker,         ///< worker-thread processing of a logged RPC
  kFlowStall,      ///< client blocked on the flow-control window (§4.4)
  kPayloadPool,    ///< payload-pool occupancy (counter, blocks outstanding)
  kPayloadRefs,    ///< payload handle acquisitions per recycled block
  kReplForward,    ///< replication forwarding hop (chain/mirror, repl/)
  kReplAck,        ///< replication ack back to the application
  kNetSwitchHop,   ///< switch traversal + egress queue + serialization
  kNetPortQueue,   ///< egress-queue wait at a topology port (counter, ns)
  kEngineEpochs,   ///< partitioned-engine epochs completed (counter)
  kEngineBarrierNs,  ///< wall-clock ns spent at epoch barriers (counter)
  kNetDrop,        ///< packets dropped at a fabric egress (counter)
  kRnicRetransmit,  ///< RC packets replayed by a retransmission timer
  kCount
};

constexpr ComponentId to_id(Component c) {
  return static_cast<ComponentId>(c);
}

/// Number of predefined components.
inline constexpr ComponentId kPredefinedComponents = to_id(Component::kCount);

/// Stable name of a predefined component (the Chrome trace event name
/// and the breakdown's JSON key).
[[nodiscard]] std::string_view component_name(Component c);
[[nodiscard]] std::string_view component_name(ComponentId id);

/// Chrome trace "cat" group of a predefined component: "host", "net",
/// "rnic", "rpc", "mem" or "sim".
[[nodiscard]] std::string_view component_category(ComponentId id);

}  // namespace prdma::trace
