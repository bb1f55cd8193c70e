#pragma once

#include <optional>
#include <vector>

#include "check/oracle.hpp"
#include "core/node.hpp"
#include "core/rpc.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace prdma::check {

/// One server node under power-failure injection, with its clients and
/// the durability oracle auditing them. Shared by the crash explorer
/// and the fault experiment (src/fault/), so both tear a server down
/// and bring it back in the same order.
struct ServerUnderTest {
  core::Node& node;
  core::RpcServer& server;
  std::vector<core::RpcClient*> clients;
  /// Null: not audited (the fault experiment's traditional baselines).
  DurabilityOracle* oracle = nullptr;
};

/// The power failure at the current instant: software teardown (the
/// server stops its pumps), hardware state loss through the checked
/// Node::crash() (in-flight DMA lands torn on the PM media), every
/// client's pending calls abort, then the oracle's crash-instant audit.
void crash_server(const ServerUnderTest& sut);

/// Brings a crashed server back: `restart_delay` of downtime, node
/// power-up, redo-log replay, client reconnects, then the oracle's
/// post-recovery audit.
sim::Task<> restart_server(const ServerUnderTest& sut,
                           sim::SimTime restart_delay);

/// Records in `end` the instant `wg` drains (left empty if it never
/// does).
sim::Task<> watch_finish(sim::WaitGroup& wg, sim::Simulator& sim,
                         std::optional<sim::SimTime>& end);

}  // namespace prdma::check
