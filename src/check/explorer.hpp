#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/durable_rpc.hpp"
#include "net/faults.hpp"
#include "sim/time.hpp"

namespace prdma::check {

/// Workload + model knobs shared by every schedule of one exploration.
struct ExplorerConfig {
  core::FlushVariant variant = core::FlushVariant::kWFlush;
  std::uint64_t seed = 1;
  std::uint64_t ops = 48;              ///< write operations to drive
  std::uint32_t window = 8;            ///< outstanding requests
  std::uint32_t value_size = 4096;
  std::uint32_t random_schedules = 32;
  /// Cap on distinct protocol-phase timestamps turned into targeted
  /// schedules (each is probed at t-1, t, t+1).
  std::uint32_t max_boundary_points = 16;
  /// FAULT-INJECTION MUTANT (RnicParams::ack_before_persist): the
  /// server RNIC acknowledges WFlush before its DMA drained. The
  /// explorer must find a schedule that proves the resulting data loss.
  bool ack_before_persist = false;
  bool heavy_processing = false;
  sim::SimTime restart_delay = 1 * sim::kMillisecond;
  sim::SimTime retransmit_interval = 100 * sim::kMillisecond;
  /// Uniform packet-loss probability on the client-server cable
  /// (degraded-fabric exploration, DESIGN.md §7.8). Schedules stay a
  /// pure function of (cfg, s): loss draws replay identically.
  double loss_probability = 0.0;
  /// Deterministic network-fault schedule installed into the fabric of
  /// every schedule (link flaps, partitions, loss bursts). Combine
  /// with crash instants to probe crash-during-retransmit windows; use
  /// with_net_faults() for the canned families.
  net::FaultPlan faults;
  /// Worker threads for independent schedules (0 = hardware threads
  /// clamped to [2, 4], SweepRunner::default_jobs()). Every schedule is a pure function of (cfg, s), so
  /// the report is byte-identical at any jobs value; only wall-clock
  /// changes (DESIGN.md §7.1).
  std::size_t jobs = 1;
};

/// One point in crash-schedule space: with this config, crash the
/// server at exactly `crash_at` simulated nanoseconds (0 = never).
/// Together with ExplorerConfig this is a complete, re-runnable
/// reproducer.
struct Schedule {
  std::uint64_t seed = 1;
  sim::SimTime crash_at = 0;
  std::uint64_t ops = 48;
};

struct ScheduleResult {
  Schedule schedule;
  bool crash_fired = false;
  std::uint64_t ops_completed = 0;
  std::uint64_t resends = 0;
  std::uint64_t acks = 0;
  std::uint64_t replays = 0;
  sim::SimTime end_time = 0;
  std::vector<Violation> violations;

  [[nodiscard]] bool failed() const { return !violations.empty(); }
};

struct ExplorerReport {
  std::uint64_t schedules_run = 0;
  std::uint64_t schedules_failed = 0;
  sim::SimTime clean_end = 0;                 ///< crash-free run length
  std::vector<sim::SimTime> boundary_points;  ///< targeted timestamps
  std::optional<ScheduleResult> first_failure;
  /// Shrunken minimal reproducer of the first failure (fewest ops that
  /// still violate an invariant at the same crash instant).
  std::optional<ScheduleResult> minimal;
  /// "seed=<s> crash_at=<t>ns ops=<n>" — feed to parse_reproducer() /
  /// run_schedule() to replay the minimal failure.
  std::string reproducer;
};

/// Runs ONE crash schedule deterministically: builds a fresh cluster +
/// deployment of cfg.variant, drives cfg-many pipelined writes, crashes
/// the server node at s.crash_at (torn DMA and all), recovers, and
/// audits with a DurabilityOracle. Identical (cfg, s) inputs give a
/// bit-identical result. When `boundaries` is non-null the client's
/// QpSession phase transitions and the redo log's trace points are
/// recorded into it (timestamps).
ScheduleResult run_schedule(const ExplorerConfig& cfg, const Schedule& s,
                            std::vector<sim::SimTime>* boundaries = nullptr);

/// Full exploration: one traced dry run to harvest protocol-phase
/// boundary timestamps, targeted schedules at each boundary (t-1, t,
/// t+1), then cfg.random_schedules seeded-random crash instants. The
/// first failing schedule is shrunk to a minimal reproducer.
ExplorerReport explore(const ExplorerConfig& cfg);

/// Canned degraded-fabric schedule families (DESIGN.md §7.8). Each
/// overlays a deterministic FaultPlan on the exploration so the crash
/// instants the explorer probes land inside the degraded window:
///  * kCrashDuringRetransmit — a loss/corruption burst covers most of
///    the run, so crashes interleave with go-back-N replays;
///  * kFlapDuringRecovery    — the client-server cable flaps over the
///    window where post-crash recovery traffic flows;
///  * kPartitionThenHeal     — the client is partitioned away for a
///    stretch of the run, then the partition heals.
enum class NetFaultFamily {
  kCrashDuringRetransmit,
  kFlapDuringRecovery,
  kPartitionThenHeal,
};

[[nodiscard]] const char* net_fault_family_name(NetFaultFamily family);

/// Derives a faulted ExplorerConfig from `cfg`: dry-runs one clean
/// schedule to size the windows, shrinks the RC timer so lost packets
/// recover inside the run, and installs the family's FaultPlan.
/// Deterministic: same (cfg, family) in, same config out.
[[nodiscard]] ExplorerConfig with_net_faults(ExplorerConfig cfg,
                                             NetFaultFamily family);

/// Formats / parses the re-runnable reproducer line.
[[nodiscard]] std::string format_reproducer(const Schedule& s);
[[nodiscard]] std::optional<Schedule> parse_reproducer(const std::string& line);

}  // namespace prdma::check
