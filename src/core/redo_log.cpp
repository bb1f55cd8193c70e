#include "core/redo_log.hpp"

#include <cstring>

#include "core/wire.hpp"

namespace prdma::core {

std::vector<std::byte> deterministic_payload(std::uint64_t seq,
                                             std::uint32_t len) {
  std::vector<std::byte> p(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::byte>((seq * 131 + i * 7) & 0xFF);
  }
  return p;
}

std::vector<std::byte> encode_log_entry(std::uint64_t seq, RpcOp op,
                                        std::uint64_t obj_id,
                                        std::span<const std::byte> payload,
                                        std::uint64_t resp_slot,
                                        std::uint32_t batch,
                                        std::uint32_t req_len) {
  ByteWriter w(LogLayout::kEntryHeaderBytes + payload.size() +
               LogLayout::kCommitBytes);
  w.u32(static_cast<std::uint32_t>(op));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(obj_id);
  w.u64(fnv1a(payload));
  w.u64(resp_slot);
  w.u32(batch);
  w.u32(req_len);
  w.pad_to(LogLayout::kEntryHeaderBytes);
  w.bytes(payload);
  w.u64(seq);  // commit word, after the data (§4.2 ordering)
  return w.take();
}

namespace {

void encode_entry_header(ByteWriter& w, RpcOp op, std::uint32_t payload_len,
                         std::uint64_t obj_id, std::uint64_t checksum,
                         std::uint64_t resp_slot, std::uint32_t batch,
                         std::uint32_t req_len) {
  w.u32(static_cast<std::uint32_t>(op));
  w.u32(payload_len);
  w.u64(obj_id);
  w.u64(checksum);
  w.u64(resp_slot);
  w.u32(batch);
  w.u32(req_len);
  w.pad_to(LogLayout::kEntryHeaderBytes);
}

}  // namespace

mem::PayloadRef encode_log_entry_image(mem::NodeMemory& mem, std::uint64_t seq,
                                       RpcOp op, std::uint64_t obj_id,
                                       std::uint32_t payload_len,
                                       std::uint64_t resp_slot,
                                       std::uint32_t batch,
                                       std::uint32_t req_len) {
  const std::uint64_t image =
      LogLayout::kEntryHeaderBytes + payload_len + LogLayout::kCommitBytes;

  if (mem.content_mode() == mem::ContentMode::kShadow && payload_len > 0) {
    // Header + commit word are real bytes; the payload interior is a
    // shadow extent generated by `seq`.
    mem::PayloadRef r = mem.pool().acquire(LogLayout::kEntryHeaderBytes +
                                           LogLayout::kCommitBytes);
    mem::PayloadBuf* b = r.buf();
    std::byte* hdr = b->append_bytes_uninit(LogLayout::kEntryHeaderBytes);
    ByteWriter w({hdr, LogLayout::kEntryHeaderBytes});
    encode_entry_header(w, op, payload_len, obj_id,
                        mem::shadow_digest(seq, 0, payload_len), resp_slot,
                        batch, req_len);
    b->append_shadow(payload_len, seq, 0);
    std::byte* commit = b->append_bytes_uninit(LogLayout::kCommitBytes);
    std::memcpy(commit, &seq, sizeof seq);
    return r;
  }

  mem::PayloadRef r = mem.pool().acquire(image);
  std::byte* base =
      r.buf()->append_bytes_uninit(static_cast<std::uint32_t>(image));
  std::byte* payload = base + LogLayout::kEntryHeaderBytes;
  for (std::uint32_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::byte>((seq * 131 + i * 7) & 0xFF);
  }
  ByteWriter w({base, LogLayout::kEntryHeaderBytes});
  encode_entry_header(w, op, payload_len, obj_id,
                      fnv1a({payload, payload_len}), resp_slot, batch,
                      req_len);
  std::memcpy(payload + payload_len, &seq, sizeof seq);
  return r;
}

std::optional<LogEntryView> decode_entry_at(const mem::NodeMemory& mem,
                                            std::uint64_t addr,
                                            std::uint64_t payload_cap,
                                            bool persisted_view) {
  const auto load = [&mem, persisted_view](std::uint64_t a,
                                           std::span<std::byte> out) {
    if (persisted_view) {
      mem.persisted_read(a, out);
    } else {
      mem.cpu_read(a, out);
    }
  };
  std::byte header[LogLayout::kEntryHeaderBytes];
  load(addr, header);
  ByteReader r(header);

  LogEntryView e;
  const std::uint32_t op = r.u32();
  e.payload_len = r.u32();
  e.obj_id = r.u64();
  r.u64();  // checksum (validated separately by RedoLog::checksum_ok)
  e.resp_slot = r.u64();
  e.batch = r.u32();
  e.req_len = r.u32();
  e.payload_addr = addr + LogLayout::kEntryHeaderBytes;

  if (op != static_cast<std::uint32_t>(RpcOp::kRead) &&
      op != static_cast<std::uint32_t>(RpcOp::kWrite)) {
    return std::nullopt;
  }
  e.op = static_cast<RpcOp>(op);
  if (e.payload_len > payload_cap) return std::nullopt;
  if (e.batch == 0) return std::nullopt;

  std::byte commit_raw[8];
  load(addr + LogLayout::kEntryHeaderBytes + e.payload_len, commit_raw);
  std::memcpy(&e.seq, commit_raw, 8);
  if (e.seq == 0) return std::nullopt;
  return e;
}

RedoLog::RedoLog(Node& server, LogLayout layout)
    : node_(server), layout_(layout) {
  server.mem().declare_slots(layout.base + LogLayout::kHeaderBytes,
                             layout.slot_bytes(), layout.slots);
}

std::optional<LogEntryView> RedoLog::peek(std::uint64_t seq) const {
  auto e = decode_entry_at(node_.mem(), layout_.slot_addr(seq),
                           layout_.payload_capacity);
  if (!e.has_value() || e->seq != seq) return std::nullopt;
  return e;
}

bool RedoLog::checksum_ok(const LogEntryView& e) const {
  const std::uint64_t slot = layout_.slot_addr(e.seq);
  std::byte sum_raw[8];
  node_.mem().cpu_read(slot + 16, sum_raw);
  std::uint64_t stored = 0;
  std::memcpy(&stored, sum_raw, 8);

  // kShadow: the payload range carries a tracked digest instead of
  // bytes; an untracked range falls back to the byte recompute (which
  // fails closed for elided content).
  if (const auto d =
          node_.mem().shadow_digest_at(e.payload_addr, e.payload_len)) {
    return *d == stored;
  }
  std::vector<std::byte> payload(e.payload_len);
  node_.mem().cpu_read(e.payload_addr, payload);
  return fnv1a(payload) == stored;
}

std::uint64_t RedoLog::consumed() const {
  return load_u64(node_.mem(), layout_.consumed_addr());
}

sim::Task<> RedoLog::mark_consumed(std::uint64_t seq) {
  auto& mem = node_.mem();
  auto& sim = node_.rnic().simulator();
  store_u64(mem, layout_.consumed_addr(), seq);
  const auto done = mem.clflush(sim.now(), layout_.consumed_addr(), 8);
  co_await sim::delay(sim, done - sim.now());
  trace(TracePoint::kMarkConsumed, seq);
}

std::vector<LogEntryView> RedoLog::recover() const {
  std::vector<LogEntryView> out;
  const std::uint64_t from = consumed();
  for (std::uint64_t seq = from + 1; seq <= from + layout_.slots; ++seq) {
    auto e = peek(seq);
    if (!e.has_value()) break;        // first gap terminates the scan
    if (!checksum_ok(*e)) break;      // torn entry: data not fully down
    trace(TracePoint::kRecoverReplay, seq);
    out.push_back(*e);
  }
  return out;
}

// ------------------------------------------------- physical-media views

std::uint64_t RedoLog::consumed_persisted() const {
  std::byte raw[8];
  node_.mem().persisted_read(layout_.consumed_addr(), raw);
  std::uint64_t v = 0;
  std::memcpy(&v, raw, 8);
  return v;
}

std::optional<LogEntryView> RedoLog::peek_persisted(std::uint64_t seq) const {
  auto e = decode_entry_at(node_.mem(), layout_.slot_addr(seq),
                           layout_.payload_capacity, /*persisted_view=*/true);
  if (!e.has_value() || e->seq != seq) return std::nullopt;
  return e;
}

bool RedoLog::checksum_ok_persisted(const LogEntryView& e) const {
  const std::uint64_t slot = layout_.slot_addr(e.seq);
  std::byte sum_raw[8];
  node_.mem().persisted_read(slot + 16, sum_raw);
  std::uint64_t stored = 0;
  std::memcpy(&stored, sum_raw, 8);

  std::vector<std::byte> payload(e.payload_len);
  node_.mem().persisted_read(e.payload_addr, payload);
  return fnv1a(payload) == stored;
}

std::uint64_t RedoLog::durable_watermark() const {
  const std::uint64_t from = consumed_persisted();
  std::uint64_t mark = from;
  for (std::uint64_t seq = from + 1; seq <= from + layout_.slots; ++seq) {
    auto e = peek_persisted(seq);
    if (!e.has_value() || !checksum_ok_persisted(*e)) break;
    mark = seq;
  }
  return mark;
}

}  // namespace prdma::core
