#include "trace/tracer.hpp"

#include <array>
#include <cassert>

namespace prdma::trace {

namespace {

struct NameEntry {
  std::string_view name;
  std::string_view category;
};

constexpr std::array<NameEntry, kPredefinedComponents> kNames{{
    {"sender_sw", "host"},      // kSenderSw
    {"receiver_sw", "host"},    // kReceiverSw
    {"host_sw", "host"},        // kHostSw
    {"rtt", "net"},             // kRtt
    {"net_serialize", "net"},   // kNetSerialize
    {"net_flight", "net"},      // kNetFlight
    {"rnic_sram", "rnic"},      // kRnicSram
    {"rnic_dma", "rnic"},       // kRnicDma
    {"rnic_wflush", "rnic"},    // kRnicWFlush
    {"rnic_sflush", "rnic"},    // kRnicSFlush
    {"rnic_rflush", "rnic"},    // kRnicRFlush
    {"log_append", "rpc"},      // kLogAppend
    {"data_persist", "rpc"},    // kDataPersist
    {"op_persist", "rpc"},      // kOpPersist
    {"persist_ack", "rpc"},     // kPersistAck
    {"worker", "rpc"},          // kWorker
    {"flow_stall", "rpc"},      // kFlowStall
    {"payload_pool", "mem"},    // kPayloadPool
    {"payload_refs", "mem"},    // kPayloadRefs
    {"repl_forward", "rpc"},    // kReplForward
    {"repl_ack", "rpc"},        // kReplAck
    {"net_switch_hop", "net"},  // kNetSwitchHop
    {"net_port_queue", "net"},  // kNetPortQueue
    {"engine_epochs", "sim"},   // kEngineEpochs
    {"engine_barrier_ns", "sim"},  // kEngineBarrierNs
    {"net_drop", "net"},        // kNetDrop
    {"rnic_retransmit", "rnic"},  // kRnicRetransmit
}};

}  // namespace

std::string_view component_name(Component c) {
  return kNames[to_id(c)].name;
}

std::string_view component_name(ComponentId id) { return kNames.at(id).name; }

std::string_view component_category(ComponentId id) {
  return kNames.at(id).category;
}

void Tracer::enable(Mode mode, std::size_t capacity) {
  mode_ = mode;
  totals_ = {};
  ring_.clear();
  head_ = 0;
  if (mode_ == Mode::kFull) {
    ring_.resize(capacity == 0 ? 1 : capacity);
  }
  ring_.shrink_to_fit();
}

void Tracer::record_span(ComponentId id, std::uint64_t corr, sim::SimTime t0,
                         sim::SimTime t1, std::uint16_t track) {
  assert(t1 >= t0);
  totals_[id].total_ns += t1 - t0;
  ++totals_[id].samples;
  if (mode_ == Mode::kFull) {
    push(TraceEvent{t0, t1, corr, id, track, /*kind=*/0});
  }
}

void Tracer::record_counter(ComponentId id, sim::SimTime t,
                            std::uint64_t value, std::uint16_t track) {
  ++totals_[id].samples;
  totals_[id].last_value = value;
  if (mode_ == Mode::kFull) {
    push(TraceEvent{t, t, value, id, track, /*kind=*/1});
  }
}

void Tracer::merge_totals_from(const Tracer& other) {
  for (ComponentId id = 0; id < kPredefinedComponents; ++id) {
    totals_[id].total_ns += other.totals_[id].total_ns;
    totals_[id].samples += other.totals_[id].samples;
  }
}

void Tracer::push(const TraceEvent& ev) {
  ring_[head_ % ring_.size()] = ev;
  ++head_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = head_ < ring_.size() ? head_ : ring_.size();
  out.reserve(n);
  for (std::size_t i = head_ - n; i < head_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

}  // namespace prdma::trace
