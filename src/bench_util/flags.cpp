#include "bench_util/flags.hpp"

#include <iostream>
#include <utility>

namespace prdma::bench {

const std::vector<FlagSpec>& Flags::common_flags() {
  static const std::vector<FlagSpec> common{
      {"ops", "N", "operations per cell (binary-specific default)"},
      {"seed", "N", "base RNG seed (default 1)"},
      {"jobs", "N", "parallel sweep cells; 0 = hardware threads clamped to "
                    "[2, 4], absent = serial. Output is byte-identical at "
                    "any N."},
      {"quick", "", "smaller grid / fewer ops for a fast smoke run"},
      {"content-mode", "full|shadow",
       "payload content fidelity (default shadow: elide payload "
       "copies; full is required for crash injection)"},
      {"topology", "point-to-point|rack|leaf-spine",
       "fabric preset (default point-to-point, byte-identical to the "
       "historical two-server fabric; rack = one ToR switch, "
       "leaf-spine = 2-tier Clos with ECMP)"},
      {"racks", "N", "leaf-spine: rack (ToR) count (default 2; "
                     "ignored when --hosts-per-rack is set)"},
      {"hosts-per-rack", "N",
       "hosts attached per ToR (0 = spread evenly over --racks)"},
      {"spines", "N", "leaf-spine: spine switch count (default 2)"},
      {"pfc", "", "model PFC pauses at congested egress ports"},
      {"json", "PATH", "also write the result table as JSON"},
      {"trace", "PATH", "write a Chrome/Perfetto trace of every cell "
                        "(open at ui.perfetto.dev)"},
      {"help", "", "print this help and exit"},
  };
  return common;
}

Flags::Flags(int argc, char** argv) : Flags(argc, argv, {}, {}) {}

Flags::Flags(int argc, char** argv, std::vector<FlagSpec> extra,
             std::string synopsis)
    : specs_(std::move(extra)), synopsis_(std::move(synopsis)) {
  if (argc > 0) argv0_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg.substr(2)] = "1";
    } else {
      kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

std::uint64_t Flags::u64(const std::string& key, std::uint64_t def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stoull(it->second);
}

double Flags::f64(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stod(it->second);
}

bool Flags::flag(const std::string& key) const { return kv_.contains(key); }

std::string Flags::str(const std::string& key, std::string def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? std::move(def) : it->second;
}

std::vector<std::string> Flags::record_paths(std::string default_out) const {
  std::vector<std::string> paths{str("out", std::move(default_out))};
  std::string json = str("json", "");
  if (!json.empty() && json != paths.front()) paths.push_back(std::move(json));
  return paths;
}

std::string Flags::usage(const std::string& argv0) const {
  const std::string& name = argv0_.empty() ? argv0 : argv0_;
  std::string out = "Usage: " + name + " [flags]\n";
  if (!synopsis_.empty()) out += synopsis_ + "\n";
  const auto render = [&out](const FlagSpec& s) {
    std::string lhs = "  --" + s.name;
    if (!s.value_hint.empty()) lhs += "=" + s.value_hint;
    if (lhs.size() < 24) lhs.resize(24, ' ');
    out += lhs + " " + s.help + "\n";
  };
  if (!specs_.empty()) {
    out += "\nFlags:\n";
    for (const FlagSpec& s : specs_) render(s);
  }
  out += "\nCommon flags:\n";
  for (const FlagSpec& s : common_flags()) render(s);
  return out;
}

void Flags::print_help(std::ostream& os) const { os << usage(); }

void Flags::print_help() const { print_help(std::cout); }

}  // namespace prdma::bench
