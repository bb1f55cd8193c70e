#include "mem/node_memory.hpp"

#include <algorithm>
#include <cassert>

namespace prdma::mem {

namespace {

/// One planned extent of a payload reconstruction.
struct Piece {
  bool shadow;
  std::uint64_t start;
  std::uint64_t len;
  std::uint64_t seed;
  std::uint64_t off;
};

}  // namespace

void NodeMemory::write_bytes_nofire(std::uint64_t addr,
                                    std::span<const std::byte> data,
                                    WritePath path, bool ddio) {
  if (data.empty()) return;
  if (mode_ == ContentMode::kShadow && !shadow_empty()) {
    // Byte content is now authoritative over this range: drop/trim any
    // shadow extents it overlaps so digest lookups fail closed.
    trim_shadow(addr, data.size());
  }
  // ...and it is no longer pristine (the hull is empty in kFull).
  if (touches_pristine(addr, data.size())) clip_pristine(addr, data.size());
  if (is_pm(addr)) {
    switch (path) {
      case WritePath::kCpu:
        llc_.write(addr, data);
        break;
      case WritePath::kDma:
        if (ddio) {
          llc_.write(addr, data);
        } else {
          pm_.poke(addr, data);
        }
        break;
      case WritePath::kNtStore:
        pm_.poke(addr, data);
        break;
    }
  } else {
    dram_.poke(addr - kDramBase, data);
  }
}

void NodeMemory::write_shadow_seg(std::uint64_t addr, std::uint64_t len,
                                  std::uint64_t seed, std::uint64_t off,
                                  WritePath path, bool ddio) {
  if (len == 0) return;
  if (is_pm(addr)) {
    switch (path) {
      case WritePath::kCpu:
        llc_.write_shadow(addr, len);
        break;
      case WritePath::kDma:
        if (ddio) {
          llc_.write_shadow(addr, len);
        } else {
          pm_.poke_shadow(addr, len);
        }
        break;
      case WritePath::kNtStore:
        pm_.poke_shadow(addr, len);
        break;
    }
  } else {
    dram_.poke_shadow(addr - kDramBase, len);
  }
  // Exact overwrite of a tracked extent: update it in place.
  SlotRing* ring = ring_at(addr);
  std::uint64_t slot = 0;
  std::uint64_t slot_start = 0;
  if (ring != nullptr) {
    slot = (addr - ring->base) / ring->slot_bytes;
    slot_start = ring->base + slot * ring->slot_bytes;
    SlotExtent* e = ring->find(slot);
    if (e != nullptr && e->len == len && slot_start + e->at == addr) {
      e->seed = seed;
      e->off = off;
      return;
    }
  }
  const ShadowRange r{len, seed, off};
  if (!shadow_.empty()) {
    const auto same = shadow_.find(addr);
    if (same != shadow_.end() && same->second.len == len) {
      same->second = r;
      return;
    }
  }
  const auto hint = trim_shadow(addr, len);
  if (ring != nullptr && ring->find(slot) == nullptr &&
      addr + len <= slot_start + ring->slot_bytes) {
    ring->put(slot, SlotExtent{static_cast<std::uint32_t>(addr - slot_start),
                               static_cast<std::uint32_t>(len), seed, off});
    ++inline_extents_;
    return;
  }
  insert_shadow(hint, addr, r);
}

void NodeMemory::trim_slots(std::uint64_t addr, std::uint64_t len) {
  const std::uint64_t end = addr + len;
  for (std::size_t k = first_ring_after(addr);
       k < spans_.size() && spans_[k].base < end; ++k) {
    SlotRing& g = rings_[spans_[k].ring];
    if (g.live == 0) continue;
    const std::uint64_t hi = std::min(end, g.end);
    for (std::uint64_t i = (std::max(addr, g.base) - g.base) / g.slot_bytes;
         g.base + i * g.slot_bytes < hi; ++i) {
      SlotExtent* hit = g.find(i);
      if (hit == nullptr) continue;
      SlotExtent& e = *hit;
      const std::uint64_t slot_start = g.base + i * g.slot_bytes;
      const std::uint64_t e_start = slot_start + e.at;
      const std::uint64_t e_end = e_start + e.len;
      if (e_end <= addr || e_start >= end) continue;
      if (e_end > end) {
        // Keep the untouched tail (stream offset advances accordingly).
        const ShadowRange tail{e_end - end, e.seed, e.off + (end - e_start)};
        if (e_start < addr) {
          // The head stays inline; the tail is the slot's second extent.
          e.len = static_cast<std::uint32_t>(addr - e_start);
          insert_shadow(shadow_.lower_bound(end), end, tail);
        } else {
          e = SlotExtent{static_cast<std::uint32_t>(end - slot_start),
                         static_cast<std::uint32_t>(tail.len), tail.seed,
                         tail.off};
        }
      } else if (e_start < addr) {
        e.len = static_cast<std::uint32_t>(addr - e_start);  // keep the head
      } else {
        g.erase(i);
        --inline_extents_;
      }
    }
  }
}

NodeMemory::ShadowMap::iterator NodeMemory::trim_shadow(std::uint64_t addr,
                                                        std::uint64_t len) {
  if (inline_extents_ != 0) trim_slots(addr, len);
  if (shadow_.empty()) return shadow_.end();
  const std::uint64_t end = addr + len;
  auto it = shadow_.upper_bound(addr);
  if (it != shadow_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > addr) it = prev;
  }
  while (it != shadow_.end() && it->first < end) {
    const std::uint64_t r_start = it->first;
    const ShadowRange r = it->second;
    const std::uint64_t r_end = r_start + r.len;
    const auto next = std::next(it);
    if (r_start < addr) {
      it->second.len = addr - r_start;  // keep the untouched head in place
    } else {
      auto nh = shadow_.extract(it);
      if (spare_shadow_.size() < 4096) spare_shadow_.push_back(std::move(nh));
    }
    if (r_end > end) {
      // Keep the untouched tail (stream offset advances accordingly);
      // nothing past it can overlap.
      return insert_shadow(next, end, ShadowRange{r_end - end, r.seed,
                                                  r.off + (end - r_start)});
    }
    it = next;
  }
  return it;
}

NodeMemory::ShadowMap::iterator NodeMemory::insert_shadow(
    ShadowMap::const_iterator hint, std::uint64_t start, const ShadowRange& r) {
  if (spare_shadow_.empty()) return shadow_.emplace_hint(hint, start, r);
  auto nh = std::move(spare_shadow_.back());
  spare_shadow_.pop_back();
  nh.key() = start;
  nh.mapped() = r;
  return shadow_.insert(hint, std::move(nh));
}

void NodeMemory::declare_slots(std::uint64_t base, std::uint64_t slot_bytes,
                               std::uint64_t slots) {
  if (mode_ == ContentMode::kFull || slots == 0 || slot_bytes == 0 ||
      slot_bytes >= (1ull << 32) || slots >= (1ull << 32)) {
    return;
  }
  const std::uint64_t end = base + slots * slot_bytes;
  const std::size_t k = first_ring_after(base);
  if (k < spans_.size() && spans_[k].base < end) return;  // overlaps
  if (rings_.empty()) {
    // Room for a client's rings in one allocation each, so a node with
    // a few rings does not reallocate them ring by ring.
    rings_.reserve(kFirstRings);
    spans_.reserve(kFirstRings);
  }
  spans_.insert(spans_.begin() + static_cast<std::ptrdiff_t>(k),
                RingSpan{base, end, static_cast<std::uint32_t>(rings_.size())});
  rings_.emplace_back(base, slot_bytes, slots);
}

void NodeMemory::declare_pristine(std::uint64_t addr, std::uint64_t len) {
  if (mode_ == ContentMode::kFull || len == 0) return;
  std::uint64_t start = addr;
  std::uint64_t end = addr + len;
  // Absorb every range that overlaps or touches [start, end).
  auto it = pristine_.lower_bound(start);
  if (it != pristine_.begin() && std::prev(it)->second >= start) --it;
  while (it != pristine_.end() && it->first <= end) {
    start = std::min(start, it->first);
    end = std::max(end, it->second);
    it = pristine_.erase(it);
  }
  pristine_.emplace_hint(it, start, end);
  update_pristine_hull();
}

void NodeMemory::clip_pristine(std::uint64_t addr, std::uint64_t len) {
  const std::uint64_t end = addr + len;
  auto it = pristine_.upper_bound(addr);
  if (it != pristine_.begin() && std::prev(it)->second > addr) --it;
  while (it != pristine_.end() && it->first < end) {
    const std::uint64_t r_end = it->second;
    if (it->first < addr) {
      it->second = addr;  // keep the untouched head in place
      if (r_end > end) {
        pristine_.emplace_hint(std::next(it), end, r_end);
        break;
      }
      ++it;
    } else if (r_end > end) {
      // Keep the untouched tail, re-keying its node.
      auto nh = pristine_.extract(it);
      nh.key() = end;
      pristine_.insert(std::move(nh));
      break;
    } else {
      it = pristine_.erase(it);
    }
  }
  update_pristine_hull();
}

void NodeMemory::update_pristine_hull() {
  pristine_lo_ = pristine_.empty() ? 0 : pristine_.begin()->first;
  pristine_hi_ = pristine_.empty() ? 0 : pristine_.rbegin()->second;
}

std::uint64_t NodeMemory::write_payload_nofire(std::uint64_t addr,
                                               const PayloadRef& p,
                                               std::uint64_t limit,
                                               WritePath path, bool ddio) {
  const PayloadBuf* b = p.buf();
  if (b == nullptr) return 0;
  const std::uint64_t total = std::min<std::uint64_t>(b->total_len, limit);
  std::uint64_t pos = 0;
  for (const PayloadSeg& seg : p.segs()) {
    if (pos >= total) break;
    const std::uint64_t n = std::min<std::uint64_t>(seg.len, total - pos);
    if (seg.kind == PayloadSeg::Kind::kBytes) {
      write_bytes_nofire(addr + pos, b->seg_bytes(seg).first(n), path, ddio);
    } else {
      write_shadow_seg(addr + pos, n, seg.seed, seg.off, path, ddio);
    }
    pos += n;
  }
  return pos;
}

PayloadRef NodeMemory::read_bytes_image(std::uint64_t addr,
                                        std::uint64_t len) {
  PayloadRef r = pool_.acquire(len);
  std::byte* dst =
      r.buf()->append_bytes_uninit(static_cast<std::uint32_t>(len));
  cpu_read(addr, {dst, static_cast<std::size_t>(len)});
  return r;
}

PayloadRef NodeMemory::read_payload(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return {};
  if (mode_ == ContentMode::kFull ||
      (shadow_empty() && !touches_pristine(addr, len))) {
    return read_bytes_image(addr, len);
  }

  // Plan the extents: shadow ranges pass through by reference; the
  // gaps between them pass through as generated content where they
  // are pristine and are byte-copied from the coherent view elsewhere.
  Piece pieces[PayloadBuf::kMaxSegs];
  std::uint32_t np = 0;
  bool overflow = false;
  std::uint64_t gap_bytes = 0;
  const auto add = [&](bool shadow, std::uint64_t start, std::uint64_t n,
                       std::uint64_t seed, std::uint64_t off) {
    if (np == PayloadBuf::kMaxSegs) {
      overflow = true;
      return;
    }
    pieces[np++] = Piece{shadow, start, n, seed, off};
    if (!shadow) gap_bytes += n;
  };
  const auto add_gap = [&](std::uint64_t a, std::uint64_t b) {
    auto p = pristine_.upper_bound(a);
    if (p != pristine_.begin() && std::prev(p)->second > a) --p;
    while (a < b && !overflow) {
      if (p != pristine_.end() && p->first <= a) {
        const std::uint64_t n = std::min(b, p->second) - a;
        add(true, a, n, kPristineSeed, a);
        a += n;
        ++p;
      } else {
        const std::uint64_t next =
            (p == pristine_.end()) ? b : std::min(b, p->first);
        add(false, a, next - a, 0, 0);
        a = next;
      }
    }
  };
  const std::uint64_t end = addr + len;
  std::uint64_t cur = addr;
  Extent e{};
  while (cur < end && !overflow) {
    if (!next_extent(cur, end, e)) {
      add_gap(cur, end);
      break;
    }
    if (e.start > cur) {
      add_gap(cur, e.start);
      cur = e.start;
      if (overflow) break;
    }
    const std::uint64_t n = std::min(end, e.start + e.len) - cur;
    add(true, cur, n, e.seed, e.off + (cur - e.start));
    cur += n;
  }
  if (overflow) {
    // Too fragmented for one block's descriptor array: fall back to a
    // plain byte image (shadow interiors read as garbage, which only a
    // digest lookup could notice — and those fail closed; pristine
    // parts read as their zeros).
    return read_bytes_image(addr, len);
  }

  PayloadRef r = pool_.acquire(gap_bytes);
  PayloadBuf* b = r.buf();
  for (std::uint32_t i = 0; i < np; ++i) {
    const Piece& pc = pieces[i];
    if (pc.shadow) {
      b->append_shadow(static_cast<std::uint32_t>(pc.len), pc.seed, pc.off);
    } else {
      std::byte* dst =
          b->append_bytes_uninit(static_cast<std::uint32_t>(pc.len));
      cpu_read(pc.start, {dst, static_cast<std::size_t>(pc.len)});
    }
  }
  return r;
}

bool NodeMemory::next_extent(std::uint64_t at, std::uint64_t end,
                             Extent& out) const {
  bool found = false;
  std::uint64_t limit = end;  // an inline extent must start before it
  if (!shadow_.empty()) {
    auto it = shadow_.upper_bound(at);
    if (it != shadow_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.len > at) it = prev;
    }
    if (it != shadow_.end() && it->first < end) {
      out = Extent{it->first, it->second.len, it->second.seed,
                   it->second.off};
      found = true;
      limit = it->first;
    }
  }
  if (inline_extents_ == 0) return found;
  for (std::size_t k = first_ring_after(at);
       k < spans_.size() && spans_[k].base < limit; ++k) {
    const SlotRing& g = rings_[spans_[k].ring];
    if (g.live == 0) continue;
    const std::uint64_t hi = std::min(limit, g.end);
    for (std::uint64_t i = (std::max(at, g.base) - g.base) / g.slot_bytes;
         g.base + i * g.slot_bytes < hi; ++i) {
      const SlotExtent* hit = g.find(i);
      if (hit == nullptr) continue;
      const SlotExtent& e = *hit;
      const std::uint64_t e_start = g.base + i * g.slot_bytes + e.at;
      if (e_start + e.len <= at) continue;
      // Extents lie inside their slots: later slots start later still.
      if (e_start >= limit) return found;
      out = Extent{e_start, e.len, e.seed, e.off};
      return true;
    }
  }
  return found;
}

void NodeMemory::dma_torn_write(std::uint64_t addr, const PayloadRef& p,
                                std::uint64_t len,
                                std::uint64_t persisted_bytes) {
  assert(is_pm(addr));
  const PayloadBuf* b = p.buf();
  const std::uint64_t total =
      std::min<std::uint64_t>(b != nullptr ? b->total_len : 0, len);
  const std::uint64_t landed =
      line_down(std::min<std::uint64_t>(persisted_bytes, total));
  if (landed < total) pm_.count_torn_write();
  if (landed == 0 || b == nullptr) return;
  std::uint64_t pos = 0;
  for (const PayloadSeg& seg : p.segs()) {
    if (pos >= landed) break;
    const std::uint64_t n = std::min<std::uint64_t>(seg.len, landed - pos);
    if (seg.kind == PayloadSeg::Kind::kBytes) {
      // Same bookkeeping as any byte store: the landed bytes clip the
      // shadow plane and the pristine set (fail closed).
      write_bytes_nofire(addr + pos, b->seg_bytes(seg).first(n),
                         WritePath::kNtStore, false);
    } else {
      write_shadow_seg(addr + pos, n, seg.seed, seg.off, WritePath::kNtStore,
                       false);
    }
    pos += n;
  }
}

std::optional<std::uint64_t> NodeMemory::shadow_digest_at(
    std::uint64_t addr, std::uint64_t len) const {
  if (mode_ != ContentMode::kShadow || len == 0) return std::nullopt;
  if (const SlotRing* g = ring_at(addr)) {
    const std::uint64_t i = (addr - g->base) / g->slot_bytes;
    const SlotExtent* e = g->find(i);
    if (e != nullptr && g->base + i * g->slot_bytes + e->at == addr) {
      if (e->len < len) return std::nullopt;
      return shadow_digest(e->seed, e->off, len);
    }
  }
  const auto it = shadow_.find(addr);
  if (it == shadow_.end() || it->second.len < len) return std::nullopt;
  return shadow_digest(it->second.seed, it->second.off, len);
}

}  // namespace prdma::mem
