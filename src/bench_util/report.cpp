#include "bench_util/report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "trace/export.hpp"

namespace prdma::bench {

namespace {

/// First line of `cmd`'s stdout, or "" when it cannot run or fails.
std::string first_line_of(const char* cmd) {
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return {};
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = ::pclose(pipe);
  if (!got || status != 0) return {};
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

}  // namespace

Json provenance(bool quick) {
  const std::string commit =
      first_line_of("git describe --always --dirty --abbrev=40 2>/dev/null");
  const std::string source = commit.empty() ? "unknown" : "git:" + commit;
  Json prov = Json::object();
  prov.set("source", Json::str(source))
      .set("build_type", Json::str(PRDMA_BUILD_TYPE))
      .set("compiler", Json::str(__VERSION__))
      .set("hardware_concurrency",
           Json::num(static_cast<std::uint64_t>(
               std::thread::hardware_concurrency())))
      .set("nproc_online", Json::num(static_cast<std::uint64_t>(
                               ::sysconf(_SC_NPROCESSORS_ONLN))))
      .set("mode", Json::str(quick ? "quick" : "full"));
  return prov;
}

Json micro_result_json(const std::string& name, const MicroResult& res) {
  Json row = Json::object();
  row.set("name", Json::str(name))
      .set("kops", Json::num(res.kops))
      .set("ops", Json::num(res.ops_completed))
      .set("avg_us", Json::num(res.avg_us()))
      .set("p95_us", Json::num(res.p95_us()))
      .set("p99_us", Json::num(res.p99_us()))
      .set("duration_ns", Json::num(static_cast<std::uint64_t>(res.duration)))
      .set("sim_events", Json::num(res.sim_events))
      .set("sender_sw_ns", Json::num(res.sender_sw_ns))
      .set("receiver_sw_ns", Json::num(res.receiver_sw_ns));
  // Topology keys only when the cell actually crossed a switch, so the
  // point-to-point rows stay byte-identical to the pre-topology JSON.
  if (res.net_switch_hops > 0) {
    row.set("switch_hops", Json::num(res.net_switch_hops))
        .set("max_port_queue_ns",
             Json::num(static_cast<std::uint64_t>(res.net_max_port_queue_ns)))
        .set("pfc_pauses", Json::num(res.net_pfc_pauses));
  }
  // Lossy-fabric keys likewise only on degraded runs: clean cells keep
  // the historical JSON byte for byte.
  if (res.net_drops > 0 || res.rnic_retransmits > 0) {
    row.set("net_drops", Json::num(res.net_drops))
        .set("rnic_retransmits", Json::num(res.rnic_retransmits));
  }

  // Populated components only, keyed by name in alphabetical order.
  std::vector<trace::ComponentId> ids;
  for (trace::ComponentId id = 0; id < trace::kPredefinedComponents; ++id) {
    if (res.breakdown.populated(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [](auto a, auto b) {
    return trace::component_name(a) < trace::component_name(b);
  });
  Json comps = Json::object();
  for (const trace::ComponentId id : ids) {
    Json slot = Json::object();
    slot.set("mean_ns", Json::num(res.breakdown.mean_ns(
                 id, std::max<std::uint64_t>(res.ops_completed, 1))))
        .set("share", Json::num(res.breakdown.share(id)));
    comps.set(std::string(trace::component_name(id)), std::move(slot));
  }
  row.set("breakdown", std::move(comps));
  return row;
}

Report::Report(const Flags& flags, std::string bench_name)
    : bench_name_(std::move(bench_name)),
      json_path_(flags.str("json", "")),
      trace_path_(flags.str("trace", "")),
      content_mode_(content_mode_from(flags)),
      topology_(topology_from(flags)) {
  if (topology_.switched()) {
    meta("topology", Json::str(std::string(
                         net::preset_name(topology_.preset))));
  }
}

void Report::configure(MicroConfig& cfg) {
  cfg.content_mode = content_mode_;
  cfg.topology = topology_;
  if (trace_enabled()) {
    cfg.trace_mode = trace::Mode::kFull;
    cfg.trace_pid = next_pid_++;
  }
}

void Report::meta(std::string key, Json value) {
  meta_.set(std::move(key), std::move(value));
}

void Report::add(const std::string& name, const MicroResult& res) {
  if (json_enabled()) rows_.push(micro_result_json(name, res));
  if (trace_enabled() && !res.trace_json.empty()) {
    if (!fragments_.empty()) fragments_ += ",\n";
    fragments_ += res.trace_json;
  }
}

bool Report::write() {
  bool ok = true;
  if (json_enabled()) {
    Json doc = Json::object();
    doc.set("bench", Json::str(bench_name_));
    if (!meta_.is_null()) doc.set("meta", meta_);
    doc.set("rows", rows_);
    ok = emit_json(json_path_, doc) && ok;
  }
  if (trace_enabled()) {
    std::ofstream os(trace_path_);
    if (!os) {
      std::cerr << "trace: cannot open " << trace_path_ << "\n";
      ok = false;
    } else {
      os << trace::wrap_fragments(fragments_);
      ok = static_cast<bool>(os) && ok;
    }
  }
  return ok;
}

}  // namespace prdma::bench
