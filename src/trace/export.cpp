#include "trace/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace prdma::trace {

namespace {

/// Microseconds with fixed 3-decimal nanosecond remainder — integer
/// math only, no locale or float-formatting variance.
void append_us(std::string& out, sim::SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64,
                static_cast<std::uint64_t>(ns / 1000),
                static_cast<std::uint64_t>(ns % 1000));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string chrome_fragment(const Tracer& tracer, std::uint32_t pid,
                            const std::string& process_name) {
  std::string out;
  out += R"({"name":"process_name","ph":"M","pid":)";
  append_u64(out, pid);
  out += R"(,"args":{"name":")" + process_name + "\"}}";

  for (const TraceEvent& ev : tracer.events()) {
    out += ",\n";
    if (ev.kind == 1) {
      out += R"({"name":")";
      out += component_name(ev.comp);
      out += R"(","cat":")";
      out += component_category(ev.comp);
      out += R"(","ph":"C","ts":)";
      append_us(out, ev.t0);
      out += R"(,"pid":)";
      append_u64(out, pid);
      out += R"(,"args":{"value":)";
      append_u64(out, ev.corr);
      out += "}}";
      continue;
    }
    out += R"({"name":")";
    out += component_name(ev.comp);
    out += R"(","cat":")";
    out += component_category(ev.comp);
    out += R"(","ph":"X","ts":)";
    append_us(out, ev.t0);
    out += R"(,"dur":)";
    append_us(out, ev.t1 - ev.t0);
    out += R"(,"pid":)";
    append_u64(out, pid);
    out += R"(,"tid":)";
    append_u64(out, ev.track);
    out += R"(,"args":{"corr":)";
    append_u64(out, ev.corr);
    out += "}}";
  }
  return out;
}

std::string wrap_fragments(const std::string& fragments) {
  return "{\"traceEvents\":[\n" + fragments + "\n]}\n";
}

void write_chrome_trace(const Tracer& tracer, std::ostream& os,
                        std::uint32_t pid, const std::string& process_name) {
  os << wrap_fragments(chrome_fragment(tracer, pid, process_name));
}

}  // namespace prdma::trace
