#include "mem/llc.hpp"

#include <algorithm>

namespace prdma::mem {

namespace {

/// Copies the part of the store `src` -> [addr, addr+len) that falls in
/// the line at `la` into that line's bytes.
void put(std::byte* line, std::uint64_t la, std::uint64_t addr,
         std::uint64_t len, const std::byte* src) {
  const std::uint64_t lo = std::max(la, addr);
  const std::uint64_t hi = std::min(la + kCacheLine, addr + len);
  std::copy_n(src + (lo - addr), hi - lo, line + (lo - la));
}

}  // namespace

void Llc::write(std::uint64_t addr, std::span<const std::byte> data) {
  if (!data.empty()) store(addr, data.size(), data.data());
}

void Llc::write_shadow(std::uint64_t addr, std::uint64_t len) {
  store(addr, len, nullptr);
}

void Llc::store(std::uint64_t addr, std::uint64_t len, const std::byte* src) {
  const std::uint64_t last = line_up(addr + len);
  std::uint64_t pos = line_down(addr);
  while (pos < last) {
    auto it = extents_.upper_bound(pos);  // first extent ending past pos
    if (it != extents_.end() && it->second.start <= pos) {
      // Already dirty: the lines keep their place in the FIFO. A byte
      // store turns shadow-only lines into bytes lines without a fill —
      // their content so far reads as zeros.
      const std::uint64_t stop = std::min(it->first, last);
      if (src != nullptr) {
        const bool was_shadow = !it->second.has_bytes;
        if (was_shadow) {
          if (stop < it->first) it = split(it, stop);
          if (pos > it->second.start) split(it, pos);
          it->second.has_bytes = true;
        }
        for (std::uint64_t la = pos; la < stop; la += kCacheLine) {
          LineBytes& line = was_shadow ? new_bytes(la) : bytes_.find(la)->second;
          if (was_shadow) line.fill(std::byte{0});
          put(line.data(), la, addr, len, src);
        }
      }
      pos = stop;
      continue;
    }
    // Clean gap up to the next extent: new lines, dirtied in address
    // order, each faulted in from the backing device when it receives
    // bytes. Evicting once after the whole gap picks the same victims
    // as evicting after every line: each new line is newer than every
    // dirty line, and is filled before it can become a victim.
    const std::uint64_t stop =
        it == extents_.end() ? last : std::min(it->second.start, last);
    if (src != nullptr) {
      for (std::uint64_t la = pos; la < stop; la += kCacheLine) {
        LineBytes& line = new_bytes(la);
        backing_.peek(la, line);
        put(line.data(), la, addr, len, src);
      }
    }
    add_lines(it, pos, stop, src != nullptr);
    evict_if_needed();
    pos = stop;
  }
}

void Llc::read(std::uint64_t addr, std::span<std::byte> out) const {
  backing_.peek(addr, out);  // baseline from PM
  if (out.empty()) return;
  // Overlay the dirty extents (coherent view).
  const std::uint64_t end = addr + out.size();
  for (auto it = extents_.upper_bound(addr);
       it != extents_.end() && it->second.start < end; ++it) {
    const Extent& e = it->second;
    const std::uint64_t lo = std::max(e.start, addr);
    const std::uint64_t hi = std::min(e.end, end);
    if (!e.has_bytes) {
      std::fill(out.data() + (lo - addr), out.data() + (hi - addr),
                std::byte{0});
      continue;
    }
    for (std::uint64_t la = line_down(lo); la < hi; la += kCacheLine) {
      const LineBytes& line = bytes_.find(la)->second;
      const std::uint64_t a = std::max(la, lo);
      const std::uint64_t b = std::min(la + kCacheLine, hi);
      std::copy_n(line.data() + (a - la), b - a, out.data() + (a - addr));
    }
  }
}

bool Llc::is_dirty(std::uint64_t addr, std::uint64_t len) const {
  const std::uint64_t first = line_down(addr);
  const std::uint64_t last = line_up(addr + len);
  if (first == last) return false;
  const auto it = extents_.upper_bound(first);
  return it != extents_.end() && it->second.start < last;
}

sim::SimTime Llc::clflush(sim::SimTime start, std::uint64_t addr,
                          std::uint64_t len) {
  // clwb-style streaming flush: per-line issue cost, with the media
  // writes pipelined — one bandwidth charge for the whole range, the
  // trailing fence waits for the last write-back to land.
  const std::uint64_t first = line_down(addr);
  const std::uint64_t last = line_up(addr + len);
  std::uint64_t flushed = 0;
  auto it = first < last ? extents_.upper_bound(first) : extents_.end();
  while (it != extents_.end() && it->second.start < last) {
    if (it->second.start < first) split(it, first);
    const std::uint64_t to = std::min(it->first, last);
    write_back(it->second, to);
    flushed += lines_in(it->second.start, to);
    it = drop_front(it, to);
  }
  dirty_lines_ -= flushed;
  lines_flushed_ += flushed;
  sim::SimTime t = start + flushed * params_.clflush_per_line;
  if (flushed > 0) {
    t = std::max(t, backing_.write_complete_at(start, flushed * kCacheLine));
  }
  return t + params_.sfence_cost;
}

void Llc::crash() {
  lines_lost_ += dirty_lines_;
  extents_.clear();
  bytes_.clear();
  oldest_ = newest_ = nullptr;
  dirty_lines_ = 0;
}

void Llc::add_lines(ExtentMap::iterator next, std::uint64_t a, std::uint64_t b,
                    bool has_bytes) {
  if (newest_ != nullptr && newest_->end == a &&
      newest_->has_bytes == has_bytes) {
    // The newest extent holds the newest dirty line and ends right
    // here: the gap continues it (re-keying keeps the node and its
    // order links).
    auto nh = extents_.extract(std::prev(next));
    nh.key() = b;
    nh.mapped().end = b;
    extents_.insert(next, std::move(nh));
  } else {
    link(insert_extent(next, Extent{a, b, has_bytes})->second, nullptr);
  }
  dirty_lines_ += lines_in(a, b);
}

Llc::ExtentMap::iterator Llc::split(ExtentMap::iterator it, std::uint64_t at) {
  Extent& tail = it->second;
  const Extent head{tail.start, at, tail.has_bytes};
  tail.start = at;
  const auto h = insert_extent(it, head);
  link(h->second, &tail);
  return h;
}

Llc::ExtentMap::iterator Llc::drop_front(ExtentMap::iterator it,
                                         std::uint64_t to) {
  Extent& e = it->second;
  if (to < e.end) {
    e.start = to;
    return std::next(it);
  }
  unlink(e);
  const auto next = std::next(it);
  auto nh = extents_.extract(it);
  if (spare_extents_.size() < kMaxSpareNodes) {
    spare_extents_.push_back(std::move(nh));
  }
  return next;
}

void Llc::write_back(const Extent& e, std::uint64_t to) {
  if (!e.has_bytes) {
    backing_.poke_shadow(e.start, to - e.start);
    return;
  }
  for (std::uint64_t la = e.start; la < to; la += kCacheLine) {
    const auto it = bytes_.find(la);
    backing_.poke(la, it->second);
    release_bytes(it);
  }
}

void Llc::evict_if_needed() {
  // The oldest line is the front of the oldest extent.
  while (dirty_lines_ > params_.capacity_lines) {
    Extent& e = *oldest_;
    const std::uint64_t n = std::min(lines_in(e.start, e.end),
                                     dirty_lines_ - params_.capacity_lines);
    const std::uint64_t to = e.start + n * kCacheLine;
    write_back(e, to);
    dirty_lines_ -= n;
    evictions_ += n;
    drop_front(extents_.find(e.end), to);
  }
}

Llc::ExtentMap::iterator Llc::insert_extent(ExtentMap::const_iterator hint,
                                            const Extent& e) {
  if (spare_extents_.empty()) return extents_.emplace_hint(hint, e.end, e);
  auto nh = std::move(spare_extents_.back());
  spare_extents_.pop_back();
  nh.key() = e.end;
  nh.mapped() = e;
  return extents_.insert(hint, std::move(nh));
}

void Llc::link(Extent& e, Extent* newer) {
  e.newer = newer;
  e.older = newer != nullptr ? newer->older : newest_;
  (e.older != nullptr ? e.older->newer : oldest_) = &e;
  (newer != nullptr ? newer->older : newest_) = &e;
}

void Llc::unlink(Extent& e) {
  (e.older != nullptr ? e.older->newer : oldest_) = e.newer;
  (e.newer != nullptr ? e.newer->older : newest_) = e.older;
}

Llc::LineBytes& Llc::new_bytes(std::uint64_t la) {
  if (spare_bytes_.empty()) return bytes_.try_emplace(la).first->second;
  auto nh = std::move(spare_bytes_.back());
  spare_bytes_.pop_back();
  nh.key() = la;
  return bytes_.insert(std::move(nh)).position->second;
}

void Llc::release_bytes(BytesMap::iterator it) {
  auto nh = bytes_.extract(it);
  if (spare_bytes_.size() < kMaxSpareNodes) spare_bytes_.push_back(std::move(nh));
}

}  // namespace prdma::mem
