#pragma once

#include <cstdint>
#include <vector>

#include "rpcs/registry.hpp"
#include "sim/time.hpp"

namespace prdma::fault {

/// One crash/restart measurement (§5.4).
///
/// The driver keeps `window` requests outstanding (pipelined client),
/// injects `crashes` full power failures at the server (crash → 300 ms
/// unikernel restart → recovery → reconnect) and re-drives every
/// operation that did not complete, with the recovery semantics of the
/// system under test:
///
///  * durable RPCs: committed log entries replay server-side; writes
///    whose persist-ACK arrived need nothing from the client, and the
///    durable watermark tells the client exactly which in-flight
///    writes survived (no data re-send). Reads are re-issued directly.
///  * traditional RPCs: the server restarts empty; the client's RC
///    stack discovers each lost work request by its retransmission
///    timer (100 ms, §5.4) and re-sends request *and data*, one
///    timeout cycle after another.
struct FailureRunConfig {
  double read_ratio = 0.0;
  std::uint64_t ops = 1200;
  std::uint32_t crashes = 2;
  std::uint32_t window = 8;            ///< outstanding requests
  std::uint32_t value_size = 4096;
  std::uint64_t seed = 1;
  sim::SimTime restart_delay = 300 * sim::kMillisecond;  ///< unikernel boot
  sim::SimTime retransmit_interval = 100 * sim::kMillisecond;
  bool heavy_processing = true;        ///< 100 µs per request at the server
  /// Fabric shape (default point-to-point; --topology). Node::crash()
  /// needs a single engine partition; this serial cluster has one at
  /// any preset.
  net::TopologyConfig topology;
};

struct FailureRunResult {
  sim::SimTime total = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t resends = 0;        ///< ops the client had to re-send
  std::uint64_t replayed = 0;       ///< server-side log replays (durable)
  std::uint32_t crashes = 0;
  /// Extra time attributable to failures: total minus the measured
  /// failure-free run of the same workload.
  sim::SimTime failure_overhead = 0;
  /// Durability-oracle violations across the run's crashes (durable
  /// systems only — a correct implementation reports 0; traditional
  /// baselines are not audited).
  std::uint64_t oracle_violations = 0;
};

/// Runs the crash/recovery experiment for `system` (a durable RPC or a
/// traditional baseline) and measures total completion time.
FailureRunResult run_with_failures(rpcs::System system,
                                   const FailureRunConfig& cfg);

/// Availability model of Fig. 12: converts a server-availability level
/// into a failure rate (one 300 ms outage per `uptime_per_failure`),
/// then composes paper-scale totals (1e9 RPCs) from the measured
/// per-op time and per-crash overhead.
struct AvailabilityPoint {
  double availability;        ///< e.g. 0.999
  double normalized_time;     ///< durable / traditional total time
};

std::vector<AvailabilityPoint> compose_figure12(
    double read_ratio, const std::vector<double>& availabilities,
    std::uint64_t seed, std::uint64_t ops_per_measurement = 1200,
    const net::TopologyConfig& topology = {});

}  // namespace prdma::fault
