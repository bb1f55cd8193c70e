// Crash-schedule explorer CLI: sweeps random + phase-boundary crash
// schedules over the durable RPC variants and reports durability-
// oracle verdicts (src/check/). A correct stack prints zero failures;
// --mutant switches on the ack-before-persist RNIC fault to show the
// oracle catching, shrinking and printing a re-runnable reproducer.
//
// --replication=chain|mirror lifts the same sweep to an R-replica
// deployment audited by the cluster oracle (src/check/repl_explorer):
// per-replica, correlated and crash-during-recovery schedules, with
// the mutant becoming ack-before-REPLICA-persist.
//
// Flags: --variant=wflush|sflush|wrflush|srflush (default: all four)
//        --schedules=N (random schedules per variant, default 32)
//        --ops=N --window=N --value=BYTES --seed=N
//        --mutant (ack-before-persist fault; pair with --value=32768)
//        --replication=chain|mirror --replicas=N (cluster-level sweep)
//        --repro="seed=S crash_at=Tns ops=N" (re-run one schedule;
//          replicated lines are "seed=S ops=N crash=R@Tns,R@Tns")
//        --jobs=N (parallel schedules; output is identical at any N)
//        --engine-threads=N (accepted for flag parity with the bench
//          binaries but clamped to 1: Node::crash() requires the
//          serial single-partition engine — DESIGN.md §7.5 coherence rule)

#include <cstdio>
#include <string>

#include "bench_util/flags.hpp"
#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "bench_util/table.hpp"
#include "check/explorer.hpp"
#include "check/repl_explorer.hpp"

using namespace prdma;

namespace {

struct NamedVariant {
  const char* name;
  core::FlushVariant variant;
};

constexpr NamedVariant kVariants[] = {
    {"wflush", core::FlushVariant::kWFlush},
    {"sflush", core::FlushVariant::kSFlush},
    {"wrflush", core::FlushVariant::kWRFlush},
    {"srflush", core::FlushVariant::kSRFlush},
};

check::ExplorerConfig config_from(const bench::Flags& flags,
                                  core::FlushVariant v) {
  check::ExplorerConfig cfg;
  cfg.variant = v;
  cfg.seed = flags.u64("seed", 1);
  cfg.ops = flags.u64("ops", 48);
  cfg.window = static_cast<std::uint32_t>(flags.u64("window", 8));
  cfg.value_size = static_cast<std::uint32_t>(flags.u64("value", 4096));
  cfg.random_schedules =
      static_cast<std::uint32_t>(flags.u64("schedules", 32));
  cfg.ack_before_persist = flags.flag("mutant");
  cfg.restart_delay = 1 * sim::kMillisecond;
  cfg.jobs = bench::jobs_from(flags);
  return cfg;
}

check::ReplExplorerConfig repl_config_from(const bench::Flags& flags,
                                           core::FlushVariant v,
                                           repl::Protocol protocol) {
  check::ReplExplorerConfig cfg;
  cfg.variant = v;
  cfg.protocol = protocol;
  cfg.replicas = static_cast<std::size_t>(flags.u64("replicas", 2));
  cfg.seed = flags.u64("seed", 1);
  cfg.ops = flags.u64("ops", 24);
  cfg.window = static_cast<std::uint32_t>(flags.u64("window", 4));
  cfg.value_size = static_cast<std::uint32_t>(flags.u64("value", 4096));
  cfg.random_schedules =
      static_cast<std::uint32_t>(flags.u64("schedules", 16));
  cfg.ack_before_replica_persist = flags.flag("mutant");
  cfg.jobs = bench::jobs_from(flags);
  return cfg;
}

void print_violations(const std::vector<check::Violation>& violations,
                      const char* prefix) {
  for (const auto& v : violations) {
    std::printf("%s  %s seq=%llu at=%lluns: %s\n", prefix,
                check::violation_name(v.kind),
                static_cast<unsigned long long>(v.seq),
                static_cast<unsigned long long>(v.at), v.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  if (flags.help_requested()) {
    flags.print_help();
    return 0;
  }
  if (bench::engine_threads_from(flags) > 1) {
    std::printf("note: --engine-threads clamped to 1 — crash-schedule "
                "exploration requires the single-partition engine\n\n");
  }
  const std::string chosen = flags.str("variant", "all");
  const std::string repl_name = flags.str("replication", "none");
  const auto protocol = repl::protocol_from_name(repl_name);
  if (!protocol.has_value()) {
    std::printf("unknown --replication=%s (chain|mirror|none)\n",
                repl_name.c_str());
    return 2;
  }

  std::printf("Crash-schedule explorer — durability oracle verdicts\n");
  std::printf("(every persist-ACK must survive a power failure at any\n");
  std::printf(" later nanosecond; §4.2 invariants, all crash schedules)\n\n");

  if (*protocol != repl::Protocol::kNone) {
    // Replicated exploration: per-replica boundary/correlated/random
    // crash schedules audited by the cluster oracle.
    if (const std::string line = flags.str("repro", ""); !line.empty()) {
      const auto sched = check::parse_repl_reproducer(line);
      if (!sched.has_value()) {
        std::printf("unparseable replicated reproducer: %s\n", line.c_str());
        return 2;
      }
      const auto cfg = repl_config_from(flags, kVariants[0].variant,
                                        *protocol);
      const auto r = check::run_repl_schedule(cfg, *sched);
      std::printf("replayed %s\n",
                  check::format_repl_reproducer(*sched).c_str());
      std::printf("  crashes=%llu ops=%llu txn_acks=%llu hop_acks=%llu "
                  "replays=%llu\n",
                  static_cast<unsigned long long>(r.crashes_fired),
                  static_cast<unsigned long long>(r.ops_completed),
                  static_cast<unsigned long long>(r.txn_acks),
                  static_cast<unsigned long long>(r.hop_acks),
                  static_cast<unsigned long long>(r.replays));
      print_violations(r.violations, "");
      if (r.violations.empty()) std::printf("  no violations\n");
      return r.violations.empty() ? 0 : 1;
    }

    bench::TablePrinter table({"Variant", "Protocol", "Schedules",
                               "Boundaries", "Failed", "Verdict"});
    int exit_code = 0;
    for (const auto& nv : kVariants) {
      if (chosen != "all" && chosen != nv.name) continue;
      const auto cfg = repl_config_from(flags, nv.variant, *protocol);
      const auto rep = check::explore_repl(cfg);
      table.add_row({nv.name, std::string(repl::protocol_name(*protocol)),
                     std::to_string(rep.schedules_run),
                     std::to_string(rep.boundary_points.size()),
                     std::to_string(rep.schedules_failed),
                     rep.schedules_failed == 0 ? "durable" : "VIOLATED"});
      if (rep.schedules_failed != 0) {
        exit_code = 1;
        std::printf("[%s] first failing schedule: %s\n", nv.name,
                    check::format_repl_reproducer(rep.first_failure->schedule)
                        .c_str());
        if (rep.minimal.has_value()) {
          std::printf("[%s] shrunken reproducer:    %s\n", nv.name,
                      rep.reproducer.c_str());
          print_violations(rep.minimal->violations,
                           ("[" + std::string(nv.name) + "]").c_str());
        }
      }
    }
    table.print();
    std::printf("\n(re-run any schedule with --replication=%s "
                "--repro=\"seed=S ops=N crash=R@Tns,R@Tns\")\n",
                repl_name.c_str());
    return exit_code;
  }

  if (const std::string line = flags.str("repro", ""); !line.empty()) {
    const auto sched = check::parse_reproducer(line);
    if (!sched.has_value()) {
      std::printf("unparseable reproducer: %s\n", line.c_str());
      return 2;
    }
    const auto cfg = config_from(flags, kVariants[0].variant);
    const auto r = check::run_schedule(cfg, *sched);
    std::printf("replayed %s\n", check::format_reproducer(*sched).c_str());
    std::printf("  crash_fired=%d ops=%llu acks=%llu replays=%llu\n",
                r.crash_fired ? 1 : 0,
                static_cast<unsigned long long>(r.ops_completed),
                static_cast<unsigned long long>(r.acks),
                static_cast<unsigned long long>(r.replays));
    for (const auto& v : r.violations) {
      std::printf("  VIOLATION %s seq=%llu at=%lluns: %s\n",
                  check::violation_name(v.kind),
                  static_cast<unsigned long long>(v.seq),
                  static_cast<unsigned long long>(v.at), v.detail.c_str());
    }
    if (r.violations.empty()) std::printf("  no violations\n");
    return r.violations.empty() ? 0 : 1;
  }

  bench::TablePrinter table(
      {"Variant", "Schedules", "Boundaries", "Failed", "Verdict"});
  int exit_code = 0;
  for (const auto& nv : kVariants) {
    if (chosen != "all" && chosen != nv.name) continue;
    const auto cfg = config_from(flags, nv.variant);
    const auto rep = check::explore(cfg);
    table.add_row({nv.name, std::to_string(rep.schedules_run),
                   std::to_string(rep.boundary_points.size()),
                   std::to_string(rep.schedules_failed),
                   rep.schedules_failed == 0 ? "durable" : "VIOLATED"});
    if (rep.schedules_failed != 0) {
      exit_code = 1;
      std::printf("[%s] first failing schedule: %s\n", nv.name,
                  check::format_reproducer(rep.first_failure->schedule)
                      .c_str());
      if (rep.minimal.has_value()) {
        std::printf("[%s] shrunken reproducer:    %s\n", nv.name,
                    rep.reproducer.c_str());
        for (const auto& v : rep.minimal->violations) {
          std::printf("[%s]   %s seq=%llu at=%lluns: %s\n", nv.name,
                      check::violation_name(v.kind),
                      static_cast<unsigned long long>(v.seq),
                      static_cast<unsigned long long>(v.at),
                      v.detail.c_str());
        }
      }
    }
  }
  table.print();
  std::printf("\n(re-run any schedule with --repro=\"seed=S crash_at=Tns "
              "ops=N\")\n");
  return exit_code;
}
