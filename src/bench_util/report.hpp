#pragma once

#include <cstdint>
#include <string>

#include "bench_util/flags.hpp"
#include "bench_util/json.hpp"
#include "bench_util/micro.hpp"

namespace prdma::bench {

/// Renders one micro-benchmark result as a JSON row: throughput,
/// latency percentiles, span-derived software costs and the full
/// per-component breakdown (name -> {total_ns, samples}).
[[nodiscard]] Json micro_result_json(const std::string& name,
                                     const MicroResult& res);

/// Where and how a bench record was produced, for the committed
/// BENCH_*.json files: `source` (`git:<commit>` of the working
/// directory's checkout, `-dirty` when its tracked files differ from
/// it, else "unknown"), `build_type`, `compiler`, `hardware_concurrency`,
/// `nproc_online` and `mode` ("quick" or "full").
[[nodiscard]] Json provenance(bool quick);

/// The shared --json / --trace output layer of the bench binaries.
///
/// Wire-up per cell:
///   Report report(flags, "fig20_breakdown");
///   report.configure(cfg);            // kFull + per-cell Chrome pid
///   auto res = run_micro(sys, cfg);
///   report.add(cell_name, res);       // row JSON + trace fragment
///   ...
///   report.write();                   // emits the requested files
///
/// Rows and trace fragments are collected in add() call order, so the
/// emitted files inherit the sweep runner's determinism: byte-identical
/// at any --jobs value.
class Report {
 public:
  Report(const Flags& flags, std::string bench_name);

  [[nodiscard]] bool json_enabled() const { return !json_path_.empty(); }
  [[nodiscard]] bool trace_enabled() const { return !trace_path_.empty(); }

  /// Prepares `cfg` for collection: applies --content-mode (shadow by
  /// default) and the --topology flag family, and when --trace is
  /// given the cell is upgraded to full tracing and assigned the next
  /// Chrome pid (one process lane per cell in the Perfetto UI).
  void configure(MicroConfig& cfg);

  /// The parsed --topology flag family (point-to-point when absent).
  [[nodiscard]] const net::TopologyConfig& topology() const {
    return topology_;
  }

  /// Adds a run-level metadata entry (grid knobs, --quick, ...).
  void meta(std::string key, Json value);

  /// Collects one finished cell under `name`.
  void add(const std::string& name, const MicroResult& res);

  /// Writes the requested files; returns false if any write failed.
  /// No-op (true) when neither --json nor --trace was given.
  bool write();

 private:
  std::string bench_name_;
  std::string json_path_;
  std::string trace_path_;
  mem::ContentMode content_mode_;
  net::TopologyConfig topology_;
  std::uint32_t next_pid_ = 1;
  std::string fragments_;
  Json meta_ = Json::object();
  Json rows_ = Json::array();
};

}  // namespace prdma::bench
