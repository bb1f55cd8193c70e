// Crash-schedule explorer + durability oracle (src/check/).
//
// The oracle's contract (§4.2): a persist-ACK is a promise that
// survives a power failure at ANY later nanosecond. These tests drive
// the explorer over all four durable RPC variants — random schedules
// plus targeted schedules straddling every protocol-phase boundary —
// and additionally prove the oracle has teeth by switching on the
// ack-before-persist RNIC mutant and demanding a caught, shrunken,
// re-runnable reproducer.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/explorer.hpp"
#include "check/oracle.hpp"
#include "check/repl_explorer.hpp"
#include "check/search.hpp"
#include "core/redo_log.hpp"
#include "core/wire.hpp"

namespace prdma::check {
namespace {

using core::FlushVariant;

ExplorerConfig small_config(FlushVariant v) {
  ExplorerConfig cfg;
  cfg.variant = v;
  cfg.seed = 17;
  cfg.ops = 48;
  cfg.window = 8;
  cfg.value_size = 4096;
  cfg.random_schedules = 32;
  cfg.restart_delay = 1 * sim::kMillisecond;
  return cfg;
}

/// The mutant is only observable when the ACK can outrun the DMA: a
/// 32 KB entry needs ~6 us of PCIe/media time while the flush ACK
/// round-trip is ~2 us, so an early ACK leaves a multi-microsecond
/// window in which a crash tears acknowledged data.
ExplorerConfig mutant_config() {
  ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  cfg.value_size = 32 * 1024;
  cfg.ops = 32;
  cfg.ack_before_persist = true;
  return cfg;
}

// ------------------------------------------------------------ reproducer

TEST(Reproducer, FormatParseRoundTrip) {
  const Schedule s{42, 123456789, 17};
  const auto line = format_reproducer(s);
  EXPECT_EQ(line, "seed=42 crash_at=123456789ns ops=17");
  const auto back = parse_reproducer(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->crash_at, s.crash_at);
  EXPECT_EQ(back->ops, s.ops);
}

TEST(Reproducer, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_reproducer("not a reproducer").has_value());
  EXPECT_FALSE(parse_reproducer("seed=1 crash_at=2").has_value());
}

// ------------------------------------------------------- oracle plumbing

TEST(Oracle, CleanRunRecordsEveryAckAndStaysSilent) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  const auto r = run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops});
  EXPECT_FALSE(r.crash_fired);
  EXPECT_EQ(r.ops_completed, cfg.ops);
  EXPECT_EQ(r.acks, cfg.ops);  // write-only workload: one ACK per op
  EXPECT_EQ(r.replays, 0u);
  EXPECT_TRUE(r.violations.empty()) << "clean run must not violate";
}

TEST(Oracle, CrashedRunReplaysAndCompletesEverything) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  // Crash mid-run: half the clean run length.
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops});
  const auto r =
      run_schedule(cfg, Schedule{cfg.seed, dry.end_time / 2, cfg.ops});
  EXPECT_TRUE(r.crash_fired);
  EXPECT_EQ(r.ops_completed, cfg.ops);  // recovery + re-sends finish the job
  EXPECT_TRUE(r.violations.empty()) << "correct stack survives any schedule";
}

TEST(Oracle, DeterministicPayloadMatchesDurableClientPattern) {
  // The oracle recomputes acknowledged bytes from (seq, len) alone;
  // this pins the shared pattern so client and oracle cannot drift.
  const auto p = core::deterministic_payload(3, 8);
  ASSERT_EQ(p.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p[i], static_cast<std::byte>((3 * 131 + i * 7) & 0xFF));
  }
}

// ---------------------------------------------------------- determinism

TEST(Explorer, IdenticalScheduleGivesBitIdenticalResult) {
  const ExplorerConfig cfg = small_config(FlushVariant::kSFlush);
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops});
  const Schedule s{cfg.seed, dry.end_time / 3, cfg.ops};
  const auto a = run_schedule(cfg, s);
  const auto b = run_schedule(cfg, s);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Explorer, DryRunHarvestsPhaseBoundaries) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  std::vector<sim::SimTime> boundaries;
  (void)run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops}, &boundaries);
  EXPECT_GE(boundaries.size(), 2 * cfg.ops)  // posted + done per op minimum
      << "phase traces should fire for every verb transition";
  EXPECT_TRUE(std::is_sorted(boundaries.begin(), boundaries.end()));
}

TEST(SampleBoundaries, KeepsBothEndsWithinTheCap) {
  const std::vector<sim::SimTime> points = {10, 20, 30, 40, 50, 60, 70};
  EXPECT_EQ(sample_boundaries(points, 7), points);
  EXPECT_EQ(sample_boundaries(points, 3),
            (std::vector<sim::SimTime>{10, 40, 70}));
  EXPECT_EQ(sample_boundaries(points, 2), (std::vector<sim::SimTime>{10, 70}));
  EXPECT_EQ(sample_boundaries(points, 1), (std::vector<sim::SimTime>{10}));
  EXPECT_EQ(sample_boundaries({}, 1), std::vector<sim::SimTime>{});
}

TEST(Explorer, OneBoundaryPointKeepsTheFirstBoundary) {
  ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  cfg.random_schedules = 4;
  cfg.max_boundary_points = 1;
  std::vector<sim::SimTime> trace;
  (void)run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops}, &trace);
  ASSERT_GE(trace.size(), 2u);
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.boundary_points, std::vector<sim::SimTime>{trace.front()});
  EXPECT_EQ(rep.schedules_run, 3u + cfg.random_schedules);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

// ---------------------------------------- all variants survive schedules

class AllVariants : public ::testing::TestWithParam<FlushVariant> {};

TEST_P(AllVariants, Survives32RandomPlusTargetedSchedules) {
  const ExplorerConfig cfg = small_config(GetParam());
  const auto rep = explore(cfg);
  EXPECT_GE(rep.schedules_run,
            static_cast<std::uint64_t>(cfg.random_schedules));
  EXPECT_FALSE(rep.boundary_points.empty());
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << (rep.first_failure.has_value() && !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
  EXPECT_FALSE(rep.minimal.has_value());
}

INSTANTIATE_TEST_SUITE_P(Check, AllVariants,
                         ::testing::Values(FlushVariant::kWFlush,
                                           FlushVariant::kSFlush,
                                           FlushVariant::kWRFlush,
                                           FlushVariant::kSRFlush),
                         [](const auto& info) {
                           switch (info.param) {
                             case FlushVariant::kWFlush: return "WFlush";
                             case FlushVariant::kSFlush: return "SFlush";
                             case FlushVariant::kWRFlush: return "WRFlush";
                             case FlushVariant::kSRFlush: return "SRFlush";
                           }
                           return "Unknown";
                         });

// ----------------------------------------------------- mutant detection

TEST(Mutant, AckBeforePersistIsCaughtAndShrunk) {
  const ExplorerConfig cfg = mutant_config();
  const auto rep = explore(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "the explorer must find a schedule that exposes the early ACK";
  ASSERT_TRUE(rep.first_failure.has_value());
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_LE(rep.minimal->schedule.ops, rep.first_failure->schedule.ops);
  EXPECT_FALSE(rep.reproducer.empty());

  // The violation is acknowledged-data loss (or corruption), at a
  // concrete sequence and instant.
  const auto& v = rep.minimal->violations.front();
  EXPECT_TRUE(v.kind == ViolationKind::kAckedLost ||
              v.kind == ViolationKind::kAckedCorrupt)
      << violation_name(v.kind) << ": " << v.detail;
  EXPECT_GT(v.seq, 0u);
  EXPECT_GT(v.at, 0u);
}

TEST(Explorer, ParallelJobsReportIsBitIdenticalToSerial) {
  // The whole point of the sweep runner: --jobs only changes wall
  // clock. Run the mutant hunt serial and 8-wide; every field of the
  // report — counts, boundary harvest, first failure, shrunken minimal
  // reproducer line — must match bit for bit.
  ExplorerConfig cfg = mutant_config();
  cfg.random_schedules = 12;
  ExplorerConfig wide = cfg;
  wide.jobs = 8;
  const auto a = explore(cfg);
  const auto b = explore(wide);
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.schedules_failed, b.schedules_failed);
  EXPECT_EQ(a.clean_end, b.clean_end);
  EXPECT_EQ(a.boundary_points, b.boundary_points);
  ASSERT_EQ(a.first_failure.has_value(), b.first_failure.has_value());
  ASSERT_TRUE(a.first_failure.has_value())
      << "mutant config must fail under both job counts";
  EXPECT_EQ(a.first_failure->schedule.seed, b.first_failure->schedule.seed);
  EXPECT_EQ(a.first_failure->schedule.crash_at,
            b.first_failure->schedule.crash_at);
  EXPECT_EQ(a.first_failure->schedule.ops, b.first_failure->schedule.ops);
  ASSERT_EQ(a.first_failure->violations.size(),
            b.first_failure->violations.size());
  for (std::size_t i = 0; i < a.first_failure->violations.size(); ++i) {
    EXPECT_EQ(a.first_failure->violations[i].kind,
              b.first_failure->violations[i].kind);
    EXPECT_EQ(a.first_failure->violations[i].seq,
              b.first_failure->violations[i].seq);
    EXPECT_EQ(a.first_failure->violations[i].at,
              b.first_failure->violations[i].at);
  }
  ASSERT_EQ(a.minimal.has_value(), b.minimal.has_value());
  EXPECT_EQ(a.reproducer, b.reproducer);
}

TEST(Mutant, ShrunkenReproducerRoundTrips) {
  const ExplorerConfig cfg = mutant_config();
  const auto rep = explore(cfg);
  ASSERT_TRUE(rep.minimal.has_value());

  // Parse the printed seed+timestamp pair back and re-run it cold: the
  // identical violation must reappear.
  const auto parsed = parse_reproducer(rep.reproducer);
  ASSERT_TRUE(parsed.has_value());
  const auto replay = run_schedule(cfg, *parsed);
  ASSERT_FALSE(replay.violations.empty())
      << "reproducer must re-trigger the failure: " << rep.reproducer;
  EXPECT_EQ(replay.violations.size(), rep.minimal->violations.size());
  EXPECT_EQ(replay.violations.front().kind,
            rep.minimal->violations.front().kind);
  EXPECT_EQ(replay.violations.front().seq, rep.minimal->violations.front().seq);
  EXPECT_EQ(replay.violations.front().at, rep.minimal->violations.front().at);
}

TEST(Mutant, CleanWFlushWithLargePayloadsStillPasses) {
  // Control: identical workload without the mutant — the window the
  // mutant opens must not exist in the correct RNIC.
  ExplorerConfig cfg = mutant_config();
  cfg.ack_before_persist = false;
  cfg.random_schedules = 8;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

// ------------------------------------------------------ degraded fabric

// Acceptance matrix (DESIGN.md §7.8): the persist-ACK promise must
// hold on a lossy fabric exactly as on a clean one — go-back-N
// retransmission may slow schedules down, never weaken them.

TEST_P(AllVariants, SurvivesCrashSchedulesUnderPacketLoss) {
  ExplorerConfig cfg = small_config(GetParam());
  cfg.loss_probability = 1e-2;
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 12;
  const auto rep = explore(cfg);
  EXPECT_GT(rep.schedules_run, 0u);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << (rep.first_failure.has_value() && !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

TEST_P(AllVariants, SurvivesEveryNetFaultFamily) {
  for (const NetFaultFamily family :
       {NetFaultFamily::kCrashDuringRetransmit,
        NetFaultFamily::kFlapDuringRecovery,
        NetFaultFamily::kPartitionThenHeal}) {
    ExplorerConfig cfg = small_config(GetParam());
    cfg.random_schedules = 8;
    cfg = with_net_faults(cfg, family);
    const auto rep = explore(cfg);
    EXPECT_EQ(rep.schedules_failed, 0u)
        << net_fault_family_name(family) << ": "
        << (rep.first_failure.has_value()
                ? format_reproducer(rep.first_failure->schedule)
                : std::string())
        << " "
        << (rep.first_failure.has_value() &&
                    !rep.first_failure->violations.empty()
                ? rep.first_failure->violations.front().detail
                : std::string());
  }
}

TEST(NetFaults, MildLossLeavesExplorationClean) {
  // The 1e-4 point of the loss matrix: rare enough that many schedules
  // see no drop at all, which must not perturb the oracle either.
  ExplorerConfig cfg = small_config(FlushVariant::kWRFlush);
  cfg.loss_probability = 1e-4;
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 8;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

TEST(NetFaults, FaultedScheduleIsDeterministic) {
  // Loss draws and fault windows are part of the schedule's pure
  // function of (cfg, s): replaying the same point must be
  // bit-identical, or reproducers printed under faults would lie.
  const ExplorerConfig cfg =
      with_net_faults(small_config(FlushVariant::kSFlush),
                      NetFaultFamily::kFlapDuringRecovery);
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, 0, cfg.ops});
  const Schedule s{cfg.seed, dry.end_time / 3, cfg.ops};
  const auto a = run_schedule(cfg, s);
  const auto b = run_schedule(cfg, s);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Mutant, EarlyAckIsStillCaughtOnADegradedFabric) {
  // The oracle must not lose its teeth when retransmissions blur the
  // timeline: the ack-before-persist window is still a violation when
  // crashes land inside a loss burst.
  const ExplorerConfig cfg =
      with_net_faults(mutant_config(), NetFaultFamily::kCrashDuringRetransmit);
  const auto rep = explore(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "degraded fabric must not mask the early-ACK mutant";
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_FALSE(rep.reproducer.empty());
}

// ============================================= replicated crash oracle

ReplExplorerConfig small_repl_config(core::FlushVariant v,
                                     repl::Protocol p) {
  ReplExplorerConfig cfg;
  cfg.variant = v;
  cfg.protocol = p;
  cfg.replicas = 2;
  cfg.seed = 17;
  cfg.ops = 18;
  cfg.window = 4;
  cfg.value_size = 2048;
  cfg.random_schedules = 8;
  cfg.max_boundary_points = 6;
  cfg.jobs = 4;
  return cfg;
}

/// The replicated mutant acknowledges once the HEAD persisted and
/// finishes the other hops in the background; crashing the head inside
/// the forwarding window strands the acked entry on the dead replica —
/// the surviving peer has nothing (ViolationKind::kReplicaLost).
ReplExplorerConfig repl_mutant_config() {
  ReplExplorerConfig cfg =
      small_repl_config(core::FlushVariant::kWFlush, repl::Protocol::kChain);
  cfg.ops = 24;
  cfg.value_size = 16 * 1024;
  cfg.random_schedules = 16;
  cfg.max_boundary_points = 10;
  cfg.ack_before_replica_persist = true;
  return cfg;
}

TEST(ReplOracle, CleanRunAuditsEveryHopAndStaysSilent) {
  const auto cfg = small_repl_config(core::FlushVariant::kWFlush,
                                     repl::Protocol::kChain);
  const auto r = run_repl_schedule(cfg, ReplSchedule{cfg.seed, cfg.ops, {}});
  EXPECT_EQ(r.crashes_fired, 0u);
  EXPECT_EQ(r.ops_completed, cfg.ops);
  EXPECT_EQ(r.txn_acks, cfg.ops);
  // One per-replica persist-ACK per hop of every transaction.
  EXPECT_EQ(r.hop_acks, cfg.ops * cfg.replicas);
  EXPECT_TRUE(r.violations.empty());
}

class ReplAllCombos
    : public ::testing::TestWithParam<
          std::tuple<core::FlushVariant, repl::Protocol>> {};

TEST_P(ReplAllCombos, SurvivesTargetedCorrelatedAndRandomCrashSweeps) {
  const auto cfg = small_repl_config(std::get<0>(GetParam()),
                                     std::get<1>(GetParam()));
  const auto rep = explore_repl(cfg);
  EXPECT_GE(rep.schedules_run,
            static_cast<std::uint64_t>(cfg.random_schedules));
  EXPECT_FALSE(rep.boundary_points.empty());
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_repl_reproducer(rep.first_failure->schedule)
              : std::string())
      << " "
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
  EXPECT_FALSE(rep.minimal.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Repl, ReplAllCombos,
    ::testing::Combine(::testing::Values(FlushVariant::kWFlush,
                                         FlushVariant::kSFlush,
                                         FlushVariant::kWRFlush,
                                         FlushVariant::kSRFlush),
                       ::testing::Values(repl::Protocol::kChain,
                                         repl::Protocol::kMirror)),
    [](const auto& param_info) {
      std::string n;
      switch (std::get<0>(param_info.param)) {
        case FlushVariant::kWFlush: n = "WFlush"; break;
        case FlushVariant::kSFlush: n = "SFlush"; break;
        case FlushVariant::kWRFlush: n = "WRFlush"; break;
        case FlushVariant::kSRFlush: n = "SRFlush"; break;
      }
      n += std::get<1>(param_info.param) == repl::Protocol::kChain ? "Chain"
                                                                   : "Mirror";
      return n;
    });

TEST(ReplMutant, AckBeforeReplicaPersistIsCaughtAndShrunk) {
  const auto cfg = repl_mutant_config();
  const auto rep = explore_repl(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "the explorer must find a head crash inside the forwarding window";
  ASSERT_TRUE(rep.first_failure.has_value());
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_LE(rep.minimal->schedule.ops, rep.first_failure->schedule.ops);
  EXPECT_FALSE(rep.reproducer.empty());

  const auto& v = rep.minimal->violations.front();
  EXPECT_TRUE(v.kind == ViolationKind::kReplicaLost ||
              v.kind == ViolationKind::kTxnLost)
      << violation_name(v.kind) << ": " << v.detail;
  EXPECT_GT(v.seq, 0u);
  EXPECT_GT(v.at, 0u);
}

TEST(ReplMutant, ShrunkenReproducerRoundTrips) {
  const auto cfg = repl_mutant_config();
  const auto rep = explore_repl(cfg);
  ASSERT_TRUE(rep.minimal.has_value());

  // Parse the printed schedule back and re-run it cold: the identical
  // violation must reappear, bit for bit.
  const auto parsed = parse_repl_reproducer(rep.reproducer);
  ASSERT_TRUE(parsed.has_value());
  const auto replay = run_repl_schedule(cfg, *parsed);
  ASSERT_FALSE(replay.violations.empty())
      << "reproducer must re-trigger the failure: " << rep.reproducer;
  EXPECT_EQ(replay.violations.size(), rep.minimal->violations.size());
  EXPECT_EQ(replay.violations.front().kind,
            rep.minimal->violations.front().kind);
  EXPECT_EQ(replay.violations.front().seq,
            rep.minimal->violations.front().seq);
  EXPECT_EQ(replay.violations.front().at, rep.minimal->violations.front().at);
}

TEST(ReplMutant, CorrectChainWithSameWorkloadPasses) {
  // Control: the identical workload without the mutant must survive
  // the exact same exploration.
  ReplExplorerConfig cfg = repl_mutant_config();
  cfg.ack_before_replica_persist = false;
  cfg.random_schedules = 8;
  const auto rep = explore_repl(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

TEST(ReplExplorer, ParallelJobsReportIsBitIdenticalToSerial) {
  ReplExplorerConfig cfg = repl_mutant_config();
  cfg.random_schedules = 8;
  cfg.jobs = 1;
  ReplExplorerConfig wide = cfg;
  wide.jobs = 8;
  const auto a = explore_repl(cfg);
  const auto b = explore_repl(wide);
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.schedules_failed, b.schedules_failed);
  EXPECT_EQ(a.clean_end, b.clean_end);
  EXPECT_EQ(a.boundary_points, b.boundary_points);
  ASSERT_EQ(a.first_failure.has_value(), b.first_failure.has_value());
  ASSERT_TRUE(a.first_failure.has_value());
  EXPECT_EQ(a.first_failure->schedule.seed, b.first_failure->schedule.seed);
  EXPECT_EQ(a.first_failure->schedule.ops, b.first_failure->schedule.ops);
  EXPECT_EQ(a.first_failure->schedule.crashes,
            b.first_failure->schedule.crashes);
  EXPECT_EQ(a.reproducer, b.reproducer);
}

TEST(ReplExplorer, OneBoundaryPointKeepsTheFirstBoundary) {
  ReplExplorerConfig cfg = small_repl_config(core::FlushVariant::kWFlush,
                                             repl::Protocol::kMirror);
  cfg.random_schedules = 4;
  cfg.max_boundary_points = 1;
  std::vector<sim::SimTime> trace;
  (void)run_repl_schedule(cfg, ReplSchedule{cfg.seed, cfg.ops, {}}, &trace);
  ASSERT_GE(trace.size(), 2u);
  const auto rep = explore_repl(cfg);
  EXPECT_EQ(rep.boundary_points, std::vector<sim::SimTime>{trace.front()});
  // Per-replica straddles, one correlated, three recovery pairs, then
  // the random singles and pairs.
  EXPECT_EQ(rep.schedules_run, 3 * cfg.replicas + 1 + 3 +
                                   cfg.random_schedules +
                                   cfg.random_schedules / 2);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

// ------------------------------------ replication on a degraded fabric

TEST(ReplNetFaults, BothProtocolsSurviveCrashSweepsUnderLoss) {
  // Replication hops ride the same lossy transport as clients: chain
  // forwarding and mirror fan-out must keep the replicated durability
  // predicate with 1% of packets vanishing.
  for (const repl::Protocol proto :
       {repl::Protocol::kChain, repl::Protocol::kMirror}) {
    auto cfg = small_repl_config(core::FlushVariant::kWFlush, proto);
    cfg.loss_probability = 1e-2;
    cfg.retransmit_interval = 200 * sim::kMicrosecond;
    cfg.random_schedules = 6;
    const auto rep = explore_repl(cfg);
    EXPECT_EQ(rep.schedules_failed, 0u)
        << (proto == repl::Protocol::kChain ? "chain" : "mirror") << ": "
        << (rep.first_failure.has_value()
                ? format_repl_reproducer(rep.first_failure->schedule)
                : std::string())
        << " "
        << (rep.first_failure.has_value() &&
                    !rep.first_failure->violations.empty()
                ? rep.first_failure->violations.front().detail
                : std::string());
  }
}

TEST(ReplNetFaults, ChainSurvivesReplicaLinkFlapAcrossCrashSweep) {
  // Flap the head→tail cable over the middle of the run: forwarding
  // hops stall on go-back-N until the cable heals, and replica crashes
  // layered on top must still never strand an acked transaction.
  auto cfg = small_repl_config(core::FlushVariant::kSRFlush,
                               repl::Protocol::kChain);
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 6;
  const auto dry = run_repl_schedule(cfg, ReplSchedule{cfg.seed, cfg.ops, {}});
  const sim::SimTime span = std::max<sim::SimTime>(dry.end_time, 16);
  net::FaultPlan plan;
  plan.link_flaps.push_back({0, 1, span / 3, span / 3 + span / 8 + 1});
  plan.validate();
  cfg.faults = std::move(plan);
  const auto rep = explore_repl(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_repl_reproducer(rep.first_failure->schedule)
              : std::string())
      << " "
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

}  // namespace
}  // namespace prdma::check
