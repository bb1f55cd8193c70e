// Tests for the memory substrate: device content + timing, the DDIO
// cache model, and the node memory map's persistence semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/buffer_pool.hpp"
#include "mem/device.hpp"
#include "mem/llc.hpp"
#include "mem/node_memory.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace prdma::mem {
namespace {

using prdma::sim::SimTime;
using prdma::sim::Simulator;

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  out.reserve(vals.size());
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

std::vector<std::byte> as_vector(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 131 + i) & 0xFF);
  }
  return out;
}

DeviceTiming fast_timing() {
  return DeviceTiming{100, 50, 10e9, 5e9};
}

// ---------------------------------------------------------------- Device

TEST(Device, PokePeekRoundTrip) {
  Simulator sim;
  PmDevice pm(sim, "pm", 4096, fast_timing());
  const auto data = pattern(256);
  pm.poke(100, data);
  std::vector<std::byte> out(256);
  pm.peek(100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.bytes_written(), 256u);
}

TEST(Device, UnstoredBytesReadAsZeros) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, fast_timing());
  pm.poke(300, bytes({1, 2, 3}));
  std::vector<std::byte> out(6);
  pm.peek(298, out);
  EXPECT_EQ(out, bytes({0, 0, 1, 2, 3, 0}));
  pm.peek(600 * 1024, out);  // a line nothing was stored into
  EXPECT_EQ(out, std::vector<std::byte>(6, std::byte{0}));
  EXPECT_EQ(pm.stored_lines(), 1u) << "reads allocate nothing";
}

TEST(Device, WriteTimingIncludesLatencyAndBandwidth) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 100, 1e9, 1e9});
  // 1 GB/s => 1 ns per byte. 1000 bytes at t=0 -> latency 100 + 1000.
  EXPECT_EQ(pm.write_complete_at(0, 1000), 1100u);
}

TEST(Device, BandwidthSerializesBackToBackWrites) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 0, 1e9, 1e9});
  const SimTime t1 = pm.write_complete_at(0, 1000);
  const SimTime t2 = pm.write_complete_at(0, 1000);  // queues behind first
  EXPECT_EQ(t1, 1000u);
  EXPECT_EQ(t2, 2000u);
}

TEST(Device, IdleGapDoesNotCarryOccupancy) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 0, 1e9, 1e9});
  (void)pm.write_complete_at(0, 1000);
  // Device free again by t=5000; a later write starts fresh.
  EXPECT_EQ(pm.write_complete_at(5000, 100), 5100u);
}

TEST(Device, PmSurvivesCrashDramDoesNot) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1024, fast_timing());
  DramDevice dram(sim, "dram", 1024, fast_timing());
  const auto data = pattern(64);
  pm.poke(0, data);
  dram.poke(0, data);
  pm.crash();
  dram.crash();
  std::vector<std::byte> out(64);
  pm.peek(0, out);
  EXPECT_EQ(out, data);
  dram.peek(0, out);
  EXPECT_EQ(out, std::vector<std::byte>(64, std::byte{0}));
  EXPECT_TRUE(pm.persistent());
  EXPECT_FALSE(dram.persistent());
}

// ------------------------------------------------------------------- Llc

struct LlcFixture : ::testing::Test {
  Simulator sim;
  PmDevice pm{sim, "pm", 1 << 20, DeviceTiming{170, 90, 6e9, 2e9}};
  LlcParams params{};
  Llc llc{sim, pm, params};
};

TEST_F(LlcFixture, WriteIsDirtyUntilFlush) {
  const auto data = pattern(128);
  llc.write(256, data);
  EXPECT_TRUE(llc.is_dirty(256, 128));
  EXPECT_EQ(llc.dirty_lines(), 2u);

  // PM content must still be stale.
  std::vector<std::byte> raw(128);
  pm.peek(256, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(128, std::byte{0}));

  // But a coherent read sees the new data (the DDIO trap).
  std::vector<std::byte> coherent(128);
  llc.read(256, coherent);
  EXPECT_EQ(coherent, data);
}

TEST_F(LlcFixture, ClflushPersistsAndCleans) {
  const auto data = pattern(64);
  llc.write(0, data);
  const SimTime done = llc.clflush(1000, 0, 64);
  EXPECT_GT(done, 1000u);
  EXPECT_FALSE(llc.is_dirty(0, 64));
  std::vector<std::byte> raw(64);
  pm.peek(0, raw);
  EXPECT_EQ(raw, data);
  EXPECT_EQ(llc.lines_flushed(), 1u);
}

TEST_F(LlcFixture, ClflushOfCleanRangeOnlyCostsFence) {
  const SimTime done = llc.clflush(500, 4096, 64);
  EXPECT_EQ(done, 500 + params.sfence_cost);
}

TEST_F(LlcFixture, CrashDropsDirtyLines) {
  const auto data = pattern(64);
  llc.write(128, data);
  llc.crash();
  EXPECT_EQ(llc.dirty_lines(), 0u);
  EXPECT_EQ(llc.lines_lost_to_crash(), 1u);
  std::vector<std::byte> raw(64);
  pm.peek(128, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(64, std::byte{0}))
      << "crash must not persist dirty lines";
}

TEST_F(LlcFixture, PartialLineWritePreservesRestOfLine) {
  // Pre-existing persistent data in the middle of a line.
  const auto old_data = pattern(64, 3);
  pm.poke(0, old_data);
  llc.write(10, bytes({0xAA, 0xBB}));
  std::vector<std::byte> out(64);
  llc.read(0, out);
  auto expect = old_data;
  expect[10] = std::byte{0xAA};
  expect[11] = std::byte{0xBB};
  EXPECT_EQ(out, expect) << "line fill must merge with backing contents";
}

TEST_F(LlcFixture, EvictionWritesBackOldestLine) {
  LlcParams small;
  small.capacity_lines = 4;
  Llc tiny(sim, pm, small);
  for (std::uint64_t i = 0; i < 6; ++i) {
    tiny.write(i * kCacheLine, pattern(kCacheLine, static_cast<int>(i)));
  }
  EXPECT_EQ(tiny.evictions(), 2u);
  EXPECT_EQ(tiny.dirty_lines(), 4u);
  // The first (evicted) line is now physically in PM.
  std::vector<std::byte> raw(kCacheLine);
  pm.peek(0, raw);
  EXPECT_EQ(raw, pattern(kCacheLine, 0));
}

TEST_F(LlcFixture, FlushTimingScalesWithLineCount) {
  llc.write(0, pattern(64));
  const SimTime one = llc.clflush(0, 0, 64) ;
  llc.write(1024, pattern(256));
  const SimTime four = llc.clflush(100000, 1024, 256) - 100000;
  EXPECT_GT(four, one);
}

// ------------------------------------------- Llc vs per-line reference

/// The per-64 B-line cache model the extent-based Llc replaced, kept as
/// the reference: one hash entry per dirty line, a FIFO of (line, seq)
/// entries with lazy deletion for eviction order. Its map-node
/// recycling and FIFO compaction are left out; neither changed a result.
class PerLineLlc {
 public:
  PerLineLlc(Device& backing, LlcParams params)
      : backing_(backing), params_(params) {}

  void write(std::uint64_t addr, std::span<const std::byte> data) {
    std::uint64_t pos = addr;
    std::size_t consumed = 0;
    while (consumed < data.size()) {
      const std::uint64_t la = line_down(pos);
      const std::uint64_t off = pos - la;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kCacheLine - off, data.size() - consumed));
      Line& line = dirty_line(la, /*fill=*/true);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(consumed), n,
                  line.data.begin() + static_cast<std::ptrdiff_t>(off));
      pos += n;
      consumed += n;
    }
  }

  void write_shadow(std::uint64_t addr, std::uint64_t len) {
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      (void)dirty_line(la, /*fill=*/false);
    }
  }

  void read(std::uint64_t addr, std::span<std::byte> out) const {
    backing_.peek(addr, out);
    for (std::uint64_t la = line_down(addr); la < line_up(addr + out.size());
         la += kCacheLine) {
      const auto it = lines_.find(la);
      if (it == lines_.end()) continue;
      const std::uint64_t lo = std::max(la, addr);
      const std::uint64_t hi = std::min(la + kCacheLine, addr + out.size());
      std::copy_n(it->second.data.begin() + static_cast<std::ptrdiff_t>(lo - la),
                  hi - lo, out.begin() + static_cast<std::ptrdiff_t>(lo - addr));
    }
  }

  bool is_dirty(std::uint64_t addr, std::uint64_t len) const {
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      if (lines_.contains(la)) return true;
    }
    return false;
  }

  SimTime clflush(SimTime start, std::uint64_t addr, std::uint64_t len) {
    SimTime t = start;
    std::uint64_t flushed = 0;
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      const auto it = lines_.find(la);
      if (it == lines_.end()) continue;
      write_back(la, it->second);
      lines_.erase(it);
      t += params_.clflush_per_line;
      ++flushed;
    }
    lines_flushed_ += flushed;
    if (flushed > 0) {
      t = std::max(t, backing_.write_complete_at(start, flushed * kCacheLine));
    }
    return t + params_.sfence_cost;
  }

  void crash() {
    lines_lost_ += lines_.size();
    lines_.clear();
    fifo_.clear();
  }

  std::size_t dirty_lines() const { return lines_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t lines_flushed() const { return lines_flushed_; }
  std::uint64_t lines_lost_to_crash() const { return lines_lost_; }

 private:
  struct Line {
    std::array<std::byte, kCacheLine> data;
    std::uint64_t fifo_seq = 0;
    bool has_bytes = true;
  };
  struct FifoEntry {
    std::uint64_t addr;
    std::uint64_t seq;
  };

  Line& dirty_line(std::uint64_t la, bool fill) {
    auto it = lines_.find(la);
    if (it == lines_.end()) {
      it = lines_.emplace(la, Line{}).first;
      if (fill) {
        backing_.peek(la, it->second.data);
      } else {
        it->second.has_bytes = false;
      }
      it->second.fifo_seq = next_seq_++;
      fifo_.push_back(FifoEntry{la, it->second.fifo_seq});
      evict_if_needed();
    } else if (fill && !it->second.has_bytes) {
      it->second.has_bytes = true;
    }
    return it->second;
  }

  void write_back(std::uint64_t la, const Line& line) {
    if (line.has_bytes) {
      backing_.poke(la, line.data);
    } else {
      backing_.poke_shadow(la, kCacheLine);
    }
  }

  void evict_if_needed() {
    while (lines_.size() > params_.capacity_lines && !fifo_.empty()) {
      const FifoEntry victim = fifo_.front();
      fifo_.pop_front();
      const auto it = lines_.find(victim.addr);
      if (it == lines_.end() || it->second.fifo_seq != victim.seq) continue;
      write_back(victim.addr, it->second);
      lines_.erase(it);
      ++evictions_;
    }
  }

  Device& backing_;
  LlcParams params_;
  std::unordered_map<std::uint64_t, Line> lines_;
  std::deque<FifoEntry> fifo_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t evictions_ = 0;
  std::uint64_t lines_flushed_ = 0;
  std::uint64_t lines_lost_ = 0;
};

/// The extent model and the per-line reference, each over its own PM
/// device, driven with identical operations.
struct LlcPair {
  static constexpr std::uint64_t kPm = 16 * 1024;  // 256 lines

  explicit LlcPair(std::uint64_t capacity_lines)
      : params{capacity_lines, 10, 250} {}

  Simulator sim;
  PmDevice pm{sim, "pm", kPm, DeviceTiming{170, 90, 6e9, 2e9}};
  PmDevice ref_pm{sim, "ref", kPm, DeviceTiming{170, 90, 6e9, 2e9}};
  LlcParams params;
  Llc llc{sim, pm, params};
  PerLineLlc ref{ref_pm, params};

  void write(std::uint64_t addr, std::span<const std::byte> data) {
    llc.write(addr, data);
    ref.write(addr, data);
  }
  void write_shadow(std::uint64_t addr, std::uint64_t len) {
    llc.write_shadow(addr, len);
    ref.write_shadow(addr, len);
  }
  /// PM content of [addr, addr+len), read from both devices alike.
  std::vector<std::byte> pm_content(std::uint64_t addr, std::uint64_t len) {
    std::vector<std::byte> out(len);
    std::vector<std::byte> ref_out(len);
    pm.peek(addr, out);
    ref_pm.peek(addr, ref_out);
    return out;
  }

  /// Counters, device accounting and PM content agree.
  ::testing::AssertionResult same_state() const {
    const auto differ = [](const char* what, std::uint64_t got,
                           std::uint64_t want) {
      return ::testing::AssertionFailure()
             << what << ": extents " << got << ", per-line " << want;
    };
    if (llc.dirty_lines() != ref.dirty_lines()) {
      return differ("dirty_lines", llc.dirty_lines(), ref.dirty_lines());
    }
    if (llc.evictions() != ref.evictions()) {
      return differ("evictions", llc.evictions(), ref.evictions());
    }
    if (llc.lines_flushed() != ref.lines_flushed()) {
      return differ("lines_flushed", llc.lines_flushed(), ref.lines_flushed());
    }
    if (llc.lines_lost_to_crash() != ref.lines_lost_to_crash()) {
      return differ("lines_lost_to_crash", llc.lines_lost_to_crash(),
                    ref.lines_lost_to_crash());
    }
    if (pm.bytes_written() != ref_pm.bytes_written()) {
      return differ("bytes_written", pm.bytes_written(), ref_pm.bytes_written());
    }
    if (pm.bytes_copied() != ref_pm.bytes_copied()) {
      return differ("bytes_copied", pm.bytes_copied(), ref_pm.bytes_copied());
    }
    // Peeks both devices, so their bytes_copied stay in step.
    std::vector<std::byte> a(kPm);
    std::vector<std::byte> b(kPm);
    pm.peek(0, a);
    ref_pm.peek(0, b);
    if (a != b) {
      return ::testing::AssertionFailure() << "PM content differs";
    }
    return ::testing::AssertionSuccess();
  }

  /// Coherent reads of [addr, addr+len) agree (and stay in step on
  /// bytes_copied, which the read's PM peek feeds).
  ::testing::AssertionResult same_read(std::uint64_t addr, std::uint64_t len) {
    std::vector<std::byte> got(len);
    std::vector<std::byte> want(len);
    llc.read(addr, got);
    ref.read(addr, want);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "read [" << addr << ", +" << len << ") differs";
    }
    return ::testing::AssertionSuccess();
  }
};

/// splitmix64: a fixed, platform-independent stream for the op mix.
struct OpRng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

TEST(LlcModel, MatchesPerLineReference) {
  for (const bool shadow : {false, true}) {
    for (const std::uint64_t capacity : {4u, 7u, 16u, 64u}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << (shadow ? "kShadow" : "kFull") << " capacity="
                     << capacity << " seed=" << seed);
        LlcPair p(capacity);
        OpRng rng{seed * 1000003 + capacity};
        // Short stores, line-scale stores and stores longer than the
        // whole cache (which evict lines ahead of themselves).
        const auto draw_len = [&] {
          switch (rng.below(3)) {
            case 0: return rng.below(17);
            case 1: return rng.below(257);
            default: return rng.below(capacity * kCacheLine * 3 / 2 + 1);
          }
        };
        const auto draw_addr = [&](std::uint64_t len) {
          return rng.below(LlcPair::kPm - len + 1);
        };
        SimTime now = 0;
        for (int op = 0; op < 400; ++op) {
          SCOPED_TRACE(::testing::Message() << "op " << op);
          const std::uint64_t kind = rng.below(100);
          const std::uint64_t len = draw_len();
          const std::uint64_t addr = draw_addr(len);
          if (kind < 35 || (!shadow && kind < 50)) {
            std::vector<std::byte> data(len);
            for (auto& b : data) b = static_cast<std::byte>(rng.next());
            p.write(addr, data);
          } else if (kind < 50) {
            p.write_shadow(addr, len);
          } else if (kind < 65) {
            now += rng.below(2000);
            ASSERT_EQ(p.llc.clflush(now, addr, len),
                      p.ref.clflush(now, addr, len));
          } else if (kind < 80) {
            ASSERT_EQ(p.llc.is_dirty(addr, len), p.ref.is_dirty(addr, len));
          } else if (kind < 98) {
            ASSERT_TRUE(p.same_read(addr, len));
          } else {
            p.llc.crash();
            p.ref.crash();
          }
          ASSERT_TRUE(p.same_state());
        }
        ASSERT_TRUE(p.same_read(0, LlcPair::kPm));
      }
    }
  }
}

TEST(LlcModel, LongWriteEvictsLineAheadThenRefillsIt) {
  LlcPair p(4);
  p.write(5 * kCacheLine, pattern(kCacheLine, 1));  // oldest dirty line
  // Six lines from 0: the fourth new line evicts line 5 (ahead of the
  // walk), later lines evict 0 and 1, and line 5 comes back dirty with
  // a fresh seq and a fresh fill of what its eviction persisted.
  p.write(0, pattern(6 * kCacheLine, 2));
  EXPECT_EQ(p.llc.evictions(), 3u);
  EXPECT_EQ(p.llc.dirty_lines(), 4u);
  // Fills: line 5 twice, lines 0-4 once; write-backs: three evictions.
  EXPECT_EQ(p.pm.bytes_copied(), (7u + 3u) * kCacheLine);
  EXPECT_EQ(p.pm_content(5 * kCacheLine, kCacheLine),
            pattern(kCacheLine, 1))
      << "eviction persisted the old line";
  EXPECT_TRUE(p.same_state());
  EXPECT_TRUE(p.same_read(0, 6 * kCacheLine));
  EXPECT_EQ(p.llc.clflush(0, 0, 6 * kCacheLine),
            p.ref.clflush(0, 0, 6 * kCacheLine));
  EXPECT_TRUE(p.same_state());
}

TEST(LlcModel, ShadowLineTakesBytesWithoutFill) {
  LlcPair p(16);
  p.pm.poke(0, pattern(kCacheLine, 3));
  p.ref_pm.poke(0, pattern(kCacheLine, 3));
  p.write_shadow(0, kCacheLine);
  const std::uint64_t copied = p.pm.bytes_copied();
  p.write(8, bytes({0xAA, 0xBB}));
  EXPECT_EQ(p.pm.bytes_copied(), copied) << "no fill for a shadow line";
  // The rest of the line is zeros, not PM, and writes back as bytes.
  auto expect = std::vector<std::byte>(kCacheLine, std::byte{0});
  expect[8] = std::byte{0xAA};
  expect[9] = std::byte{0xBB};
  std::vector<std::byte> out(kCacheLine);
  p.llc.read(0, out);
  EXPECT_EQ(out, expect);
  p.ref.read(0, out);
  EXPECT_EQ(out, expect);
  p.llc.clflush(0, 0, kCacheLine);
  p.ref.clflush(0, 0, kCacheLine);
  EXPECT_EQ(p.pm_content(0, kCacheLine), expect);
  EXPECT_TRUE(p.same_state());
}

TEST(LlcModel, CoherentReadOfShadowLineIsZeros) {
  LlcPair p(16);
  p.pm.poke(128, pattern(2 * kCacheLine, 4));
  p.ref_pm.poke(128, pattern(2 * kCacheLine, 4));
  p.write_shadow(130, 70);  // dirties lines 128 and 192
  std::vector<std::byte> out(2 * kCacheLine);
  p.llc.read(128, out);
  EXPECT_EQ(out, std::vector<std::byte>(2 * kCacheLine, std::byte{0}));
  p.ref.read(128, out);
  EXPECT_TRUE(p.same_read(100, 200));
  // Content-free write-back: PM keeps its bytes, accounting still moves.
  const std::uint64_t written = p.pm.bytes_written();
  p.llc.clflush(0, 128, 2 * kCacheLine);
  p.ref.clflush(0, 128, 2 * kCacheLine);
  EXPECT_EQ(p.pm.bytes_written(), written + 2 * kCacheLine);
  EXPECT_EQ(p.pm_content(128, 2 * kCacheLine),
            pattern(2 * kCacheLine, 4));
  EXPECT_TRUE(p.same_state());
}

TEST(LlcModel, FillsAndWriteBacksFeedBytesCopied) {
  LlcPair p(16);
  p.write(70, bytes({1, 2}));  // fill of line 64
  EXPECT_EQ(p.pm.bytes_copied(), kCacheLine);
  p.llc.clflush(0, 64, 8);
  p.ref.clflush(0, 64, 8);
  EXPECT_EQ(p.pm.bytes_copied(), 2 * kCacheLine) << "bytes write-back";
  p.write_shadow(4096, 4 * kCacheLine);
  p.llc.clflush(0, 4096, 4 * kCacheLine);
  p.ref.clflush(0, 4096, 4 * kCacheLine);
  EXPECT_EQ(p.pm.bytes_copied(), 2 * kCacheLine) << "shadow lines copy nothing";
  EXPECT_EQ(p.pm.bytes_written(), 5 * kCacheLine);
  EXPECT_TRUE(p.same_state());
}

// ------------------------------------------------------------ NodeMemory

// ------------------------------------------------- sparse byte plane

/// The byte plane as it was before it went sparse: one flat zeroed
/// array per device, with the same accounting.
class FlatDevice {
 public:
  FlatDevice(std::uint64_t capacity, bool persistent)
      : bytes_(capacity), persistent_(persistent) {}

  void poke(std::uint64_t addr, std::span<const std::byte> data) {
    std::copy(data.begin(), data.end(), bytes_.begin() + static_cast<long>(addr));
    written_ += data.size();
    copied_ += data.size();
  }
  void poke_shadow(std::uint64_t len) { written_ += len; }
  void peek(std::uint64_t addr, std::span<std::byte> out) {
    std::copy_n(bytes_.begin() + static_cast<long>(addr), out.size(),
                out.begin());
    copied_ += out.size();
  }
  void torn_write(std::uint64_t addr, std::span<const std::byte> data,
                  std::uint64_t persisted) {
    persisted = line_down(std::min<std::uint64_t>(persisted, data.size()));
    if (persisted < data.size()) ++torn_;
    if (persisted > 0) poke(addr, data.first(persisted));
  }
  void crash() {
    if (!persistent_) std::fill(bytes_.begin(), bytes_.end(), std::byte{0});
  }

  std::uint64_t written_ = 0;
  std::uint64_t copied_ = 0;
  std::uint64_t torn_ = 0;

 private:
  std::vector<std::byte> bytes_;
  bool persistent_;
};

/// An address on a line edge, within a few bytes of one (either
/// side), or anywhere.
std::uint64_t pick_addr(OpRng& rng, std::uint64_t capacity) {
  std::uint64_t a = rng.below(capacity);
  const std::uint64_t edge = rng.below(capacity / kCacheLine + 1) * kCacheLine;
  switch (rng.below(3)) {
    case 0:
      a = edge;
      break;
    case 1:
      a = edge + rng.below(16) - 8;
      break;
    default:
      break;
  }
  return std::min(a, capacity - 1);  // wrapped or past the end: clamp
}

/// Compares `dev` against `ref` over the whole capacity.
void expect_same_content(const Device& dev, FlatDevice& ref,
                         std::uint64_t capacity) {
  std::vector<std::byte> got(capacity);
  std::vector<std::byte> want(capacity);
  dev.peek(0, got);
  ref.peek(0, want);
  EXPECT_EQ(got, want) << "whole-device content";
}

TEST(SparseDevice, MatchesFlatArrayReference) {
  // 768 KiB and a ragged tail, so stores and loads cross line
  // boundaries and the last partial line. kShadow mixes in
  // content-elided stores the way NodeMemory issues them for payload
  // interiors.
  constexpr std::uint64_t kCap = 768 * 1024 + 1000;
  for (const bool persistent : {true, false}) {
    for (const ContentMode mode : {ContentMode::kFull, ContentMode::kShadow}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << (persistent ? "pm" : "dram") << " "
                     << (mode == ContentMode::kShadow ? "kShadow" : "kFull")
                     << " seed=" << seed);
        Simulator sim;
        PmDevice pm(sim, "pm", kCap, fast_timing());
        DramDevice dram(sim, "dram", kCap, fast_timing());
        Device& dev = persistent ? static_cast<Device&>(pm) : dram;
        FlatDevice ref(kCap, persistent);
        OpRng rng{seed};
        for (int op = 0; op < 2'000 && !HasFailure(); ++op) {
          const std::uint64_t addr = pick_addr(rng, kCap);
          std::uint64_t len = rng.below(8) == 0 ? rng.below(300'000)
                                                : rng.below(700);
          len = std::min(len, kCap - addr);
          const std::uint64_t kind = rng.below(100);
          if (kind < 40) {
            if (mode == ContentMode::kShadow && kind < 15) {
              dev.poke_shadow(addr, len);
              ref.poke_shadow(len);
            } else {
              const auto data = pattern(len, static_cast<int>(op));
              dev.poke(addr, data);
              ref.poke(addr, data);
            }
          } else if (kind < 80) {
            std::vector<std::byte> got(len);
            std::vector<std::byte> want(len);
            dev.peek(addr, got);
            ref.peek(addr, want);
            ASSERT_EQ(got, want) << "peek [" << addr << ", +" << len << ")";
          } else if (kind < 95) {
            const auto data = pattern(len, static_cast<int>(op) + 7);
            const std::uint64_t landed = rng.below(len + kCacheLine);
            if (persistent) {
              pm.torn_write(addr, data, landed);
              ref.torn_write(addr, data, landed);
            }
          } else {
            dev.crash();
            ref.crash();
          }
          ASSERT_EQ(dev.bytes_written(), ref.written_);
          ASSERT_EQ(dev.bytes_copied(), ref.copied_);
          ASSERT_EQ(pm.torn_writes(), persistent ? ref.torn_ : 0u);
        }
        expect_same_content(dev, ref, kCap);
        EXPECT_LE(dev.stored_lines(), (kCap + kCacheLine - 1) / kCacheLine);
      }
    }
  }
}

TEST(SparseDevice, TableDoublingsKeepEveryLine) {
  // Small stores into distinct lines, one at a time, so the line table
  // doubles from its first size many times over; crashes in between
  // must keep every line a PM device stored and zero every line of a
  // DRAM device, whichever table size the line was stored under.
  constexpr std::uint64_t kCap = 4ull << 20;
  constexpr std::uint64_t kLines = 5'000;
  for (const bool persistent : {true, false}) {
    SCOPED_TRACE(persistent ? "pm" : "dram");
    Simulator sim;
    PmDevice pm(sim, "pm", kCap, fast_timing());
    DramDevice dram(sim, "dram", kCap, fast_timing());
    Device& dev = persistent ? static_cast<Device&>(pm) : dram;
    FlatDevice ref(kCap, persistent);
    OpRng rng{persistent ? 11u : 12u};
    std::vector<std::uint64_t> lines(kCap / kCacheLine);
    for (std::uint64_t i = 0; i < lines.size(); ++i) lines[i] = i;
    for (std::uint64_t i = 0; i < kLines; ++i) {  // distinct, shuffled
      std::swap(lines[i], lines[i + rng.below(lines.size() - i)]);
    }
    for (std::uint64_t i = 0; i < kLines && !HasFailure(); ++i) {
      const std::uint64_t addr = lines[i] * kCacheLine + rng.below(kCacheLine);
      const std::uint64_t len = std::min<std::uint64_t>(
          1 + rng.below(8), (lines[i] + 1) * kCacheLine - addr);
      const auto data = pattern(len, static_cast<int>(i));
      dev.poke(addr, data);
      ref.poke(addr, data);
      ASSERT_EQ(dev.stored_lines(), i + 1);
      if (i % 997 == 0) {
        dev.crash();
        ref.crash();
      }
      const std::uint64_t back = lines[rng.below(i + 1)] * kCacheLine;
      std::vector<std::byte> got(kCacheLine);
      std::vector<std::byte> want(kCacheLine);
      dev.peek(back, got);
      ref.peek(back, want);
      ASSERT_EQ(got, want) << "line at " << back;
    }
    expect_same_content(dev, ref, kCap);
    EXPECT_EQ(dev.bytes_written(), ref.written_);
    EXPECT_EQ(dev.bytes_copied(), ref.copied_);
  }
}

TEST(SparseDevice, MemoryFollowsStoredBytesNotCapacity) {
  Simulator sim;
  DramDevice dram(sim, "dram", 128ull << 20, fast_timing());
  EXPECT_EQ(dram.stored_lines(), 0u);
  EXPECT_EQ(dram.heap_bytes(), 0u) << "an untouched device holds nothing";
  dram.poke(kCacheLine - 4, pattern(8));  // straddles two lines
  dram.poke(64ull << 20, pattern(16));    // a far line
  EXPECT_EQ(dram.stored_lines(), 3u);
  std::vector<std::byte> out(8);
  dram.peek(100ull << 20, out);  // never stored: zeros, nothing allocated
  EXPECT_EQ(out, std::vector<std::byte>(8, std::byte{0}));
  EXPECT_EQ(dram.stored_lines(), 3u);
  dram.crash();  // clears the stored lines in place
  dram.peek(kCacheLine - 4, out);
  EXPECT_EQ(out, std::vector<std::byte>(8, std::byte{0}));
  EXPECT_EQ(dram.stored_lines(), 3u);
}

TEST(SparseDevice, ScatteredHeaderStoresCostALine) {
  // Headers, commit words and flags: 8 B in each of N lines 4 KiB
  // apart. Each costs one 64 B line plus its share of the table (16 B
  // slots, doubled before it passes half full, so fewer than 4 slots
  // per line once past the 128-slot first table) and the arena's one
  // partly used chunk (at most 64 KiB) — not a block or a leaf per
  // header.
  constexpr std::uint64_t kN = 4'096;
  constexpr std::uint64_t kStride = 4'096;
  Simulator sim;
  PmDevice pm(sim, "pm", 1ull << 30, fast_timing());
  for (std::uint64_t i = 0; i < kN; ++i) {
    pm.poke(i * kStride + 16, pattern(8, static_cast<int>(i)));
  }
  EXPECT_EQ(pm.stored_lines(), kN);
  constexpr std::uint64_t kTableBytes = 4 * kN * 16;
  constexpr std::uint64_t kChunkSlack = 64 * 1024;
  EXPECT_LE(pm.heap_bytes(), kN * kCacheLine + kTableBytes + kChunkSlack);
  std::vector<std::byte> out(8);
  pm.peek((kN - 1) * kStride + 16, out);
  EXPECT_EQ(out, pattern(8, static_cast<int>(kN - 1)));
}

struct NodeMemFixture : ::testing::Test {
  Simulator sim;
  NodeMemoryParams params;
  NodeMemFixture() {
    params.pm_capacity = 1 << 20;
    params.dram_capacity = 1 << 20;
  }
};

TEST_F(NodeMemFixture, AddressMapRoutesPmAndDram) {
  NodeMemory mem(sim, params);
  EXPECT_TRUE(mem.is_pm(0));
  EXPECT_TRUE(mem.is_pm(params.pm_capacity - 1));
  EXPECT_FALSE(mem.is_pm(NodeMemory::kDramBase));

  const auto data = pattern(32);
  mem.cpu_write(NodeMemory::kDramBase + 64, data);
  std::vector<std::byte> out(32);
  mem.cpu_read(NodeMemory::kDramBase + 64, out);
  EXPECT_EQ(out, data);
}

TEST_F(NodeMemFixture, CpuStoreToPmIsVolatileUntilFlush) {
  NodeMemory mem(sim, params);
  const auto data = pattern(64);
  mem.cpu_write(512, data);
  EXPECT_FALSE(mem.range_persistent(512, 64));
  mem.clflush(0, 512, 64);
  EXPECT_TRUE(mem.range_persistent(512, 64));
  std::vector<std::byte> raw(64);
  mem.pm().peek(512, raw);
  EXPECT_EQ(raw, data);
}

TEST_F(NodeMemFixture, DmaWithoutDdioLandsInPersistDomain) {
  NodeMemory mem(sim, params);
  const auto data = pattern(128);
  mem.dma_write(1024, data, /*ddio=*/false);
  EXPECT_TRUE(mem.range_persistent(1024, 128));
  std::vector<std::byte> raw(128);
  mem.pm().peek(1024, raw);
  EXPECT_EQ(raw, data);
}

TEST_F(NodeMemFixture, DmaWithDdioIsVolatileButCoherent) {
  NodeMemory mem(sim, params);
  const auto data = pattern(128);
  mem.dma_write(1024, data, /*ddio=*/true);
  EXPECT_FALSE(mem.range_persistent(1024, 128));

  // A read-after-write check would succeed even though nothing is
  // persistent yet — the paper's §2.4 failure mode.
  std::vector<std::byte> readback(128);
  mem.dma_read(1024, readback);
  EXPECT_EQ(readback, data);

  mem.crash();
  std::vector<std::byte> raw(128);
  mem.pm().peek(1024, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(128, std::byte{0}))
      << "DDIO-buffered data must be lost on crash";
}

TEST_F(NodeMemFixture, CrashWipesDramKeepsPm) {
  NodeMemory mem(sim, params);
  const auto data = pattern(64);
  mem.dma_write(0, data, /*ddio=*/false);
  mem.cpu_write(NodeMemory::kDramBase, data);
  mem.crash();
  std::vector<std::byte> out(64);
  mem.cpu_read(0, out);
  EXPECT_EQ(out, data);
  mem.cpu_read(NodeMemory::kDramBase, out);
  EXPECT_EQ(out, std::vector<std::byte>(64, std::byte{0}));
}

TEST_F(NodeMemFixture, RangePersistentFalseForDram) {
  NodeMemory mem(sim, params);
  EXPECT_FALSE(mem.range_persistent(NodeMemory::kDramBase, 8));
}

TEST_F(NodeMemFixture, DeviceTimingHelpersRouteByAddress) {
  NodeMemory mem(sim, params);
  const SimTime pm_t = mem.device_write_complete_at(0, 0, 4096);
  NodeMemory mem2(sim, params);
  const SimTime dram_t =
      mem2.device_write_complete_at(0, NodeMemory::kDramBase, 4096);
  EXPECT_GT(pm_t, dram_t) << "PM writes are slower than DRAM";
}

// ---------------------------------------------------------- write watches

/// Write watches as NodeMemory kept them before it indexed them by
/// address: one list in registration order, scanned in full on every
/// write, with the matching callbacks copied before any of them runs.
class WatchReference {
 public:
  std::uint64_t add_watch(std::uint64_t addr, std::uint64_t len,
                          std::function<void()> fn) {
    watches_.push_back(W{next_, addr, len, std::move(fn)});
    return next_++;
  }
  void remove_watch(std::uint64_t id) {
    std::erase_if(watches_, [id](const W& w) { return w.id == id; });
  }
  void write(std::uint64_t addr, std::uint64_t len) {
    std::vector<std::function<void()>> cbs;
    for (const W& w : watches_) {
      if (w.addr < addr + len && addr < w.addr + w.len) cbs.push_back(w.fn);
    }
    for (auto& cb : cbs) cb();
  }
  [[nodiscard]] std::size_t watch_count() const { return watches_.size(); }

 private:
  struct W {
    std::uint64_t id;
    std::uint64_t addr;
    std::uint64_t len;
    std::function<void()> fn;
  };
  std::vector<W> watches_;
  std::uint64_t next_ = 1;
};

/// NodeMemory behind the same three calls; writes are CPU stores.
struct WatchedMemory {
  NodeMemory& mem;
  std::uint64_t add_watch(std::uint64_t addr, std::uint64_t len,
                          std::function<void()> fn) {
    return mem.add_watch(addr, len, std::move(fn));
  }
  void remove_watch(std::uint64_t id) { mem.remove_watch(id); }
  void write(std::uint64_t addr, std::uint64_t len) {
    static const std::vector<std::byte> zeros(4096);
    mem.cpu_write(addr, std::span(zeros).first(len));
  }
  [[nodiscard]] std::size_t watch_count() const { return mem.watch_count(); }
};

/// What watch number `tag` does when it fires, fixed up front so both
/// implementations run the same script: log its tag, then maybe remove
/// a watch, add one, or write (firing watches from inside a fire).
struct WatchAction {
  enum Kind { kNone, kRemove, kAdd, kWrite } kind = kNone;
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
  std::uint64_t victim = 0;
};

template <typename Api>
class WatchScript {
 public:
  WatchScript(Api& api, const std::vector<WatchAction>& actions)
      : api_(api), actions_(actions) {}

  void add(std::uint64_t addr, std::uint64_t len) {
    const std::size_t tag = next_tag_++;
    api_.add_watch(addr, len, [this, tag] { run(tag); });
  }
  [[nodiscard]] std::size_t watches_added() const { return next_tag_; }
  std::vector<std::size_t> log;

 private:
  void run(std::size_t tag) {
    log.push_back(tag);
    const WatchAction& a = actions_[tag % actions_.size()];
    switch (a.kind) {
      case WatchAction::kNone: break;
      case WatchAction::kRemove:
        // Ids run 1..next_tag_ on both sides alike.
        api_.remove_watch(1 + a.victim % next_tag_);
        break;
      case WatchAction::kAdd:
        if (api_.watch_count() < 48) add(a.addr, a.len);
        break;
      case WatchAction::kWrite:
        if (depth_ < 2) {
          ++depth_;
          api_.write(a.addr, a.len);
          --depth_;
        }
        break;
    }
  }

  Api& api_;
  const std::vector<WatchAction>& actions_;
  std::size_t next_tag_ = 0;
  int depth_ = 0;
};

TEST_F(NodeMemFixture, WatchesFireLikeTheFullScan) {
  // Overlapping watches of mixed lengths in a 4 KiB window; callbacks
  // remove watches (possibly ones already snapshotted), add watches
  // (never fired by the write that added them) and write again.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    std::vector<WatchAction> actions(97);
    for (WatchAction& a : actions) {
      a.kind = static_cast<WatchAction::Kind>(rng.uniform(0, 3));
      a.addr = rng.uniform(0, 4000);
      a.len = rng.uniform(1, 96);
      a.victim = rng.uniform(0, 1000);
    }
    NodeMemory mem(sim, params);
    WatchedMemory real{mem};
    WatchReference ref;
    WatchScript<WatchedMemory> real_script(real, actions);
    WatchScript<WatchReference> ref_script(ref, actions);
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.uniform(0, 9);
      const std::uint64_t addr = rng.uniform(0, 4000);
      const std::uint64_t len = rng.uniform(1, op < 3 ? 512 : 96);
      if (op < 3) {
        real_script.add(addr, len);
        ref_script.add(addr, len);
      } else if (op == 3) {
        const std::uint64_t id = rng.uniform(
            1, std::max<std::uint64_t>(1, real_script.watches_added()));
        real.remove_watch(id);
        ref.remove_watch(id);
      } else {
        real.write(addr, len);
        ref.write(addr, len);
      }
      ASSERT_EQ(real.watch_count(), ref.watch_count())
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(real_script.log, ref_script.log) << "seed " << seed;
    EXPECT_GT(real_script.log.size(), 100u) << "seed " << seed;
  }
}

TEST_F(NodeMemFixture, WatchRemovedMidFireStillRunsFromTheSnapshot) {
  NodeMemory mem(sim, params);
  std::vector<int> log;
  NodeMemory::WatchId second = 0;
  // Registered at a higher address first, so address order and
  // registration order disagree.
  const auto first = mem.add_watch(64, 64, [&] {
    log.push_back(1);
    mem.remove_watch(second);
    mem.add_watch(0, 256, [&] { log.push_back(3); });
  });
  second = mem.add_watch(0, 128, [&] { log.push_back(2); });
  const std::vector<std::byte> b(8);
  mem.cpu_write(96, b);  // both match: 1 runs first, then 2 regardless
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  log.clear();
  mem.remove_watch(first);
  mem.cpu_write(96, b);  // only the watch added mid-fire is left
  EXPECT_EQ(log, (std::vector<int>{3}));
  EXPECT_EQ(mem.watch_count(), 1u);
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPool, AcquireRecycleReusesBlocks) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef a = pool.acquire(100);
  PayloadBuf* const first = a.buf();
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
  a.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().outstanding, 0u);

  // Same size class -> the freed block comes straight back; no slab
  // growth in steady state.
  const std::uint64_t slab0 = pool.stats().slab_bytes;
  PayloadRef b = pool.acquire(100);
  EXPECT_EQ(b.buf(), first);
  EXPECT_EQ(pool.stats().slab_bytes, slab0);
}

TEST(BufferPool, SlabChunksDoubleFrom32KiBTo256KiB) {
  Simulator sim;
  BufferPool pool(sim);
  const std::uint64_t block = sizeof(PayloadBuf) + 1024;  // 1 KiB class
  const auto carved = [](std::uint64_t chunk, std::uint64_t blk) {
    return std::max<std::uint64_t>(1, chunk / blk) * blk;
  };
  std::vector<PayloadRef> held;  // nothing recycles: every chunk is new
  std::vector<std::uint64_t> chunks;
  std::uint64_t slab = 0;
  while (chunks.size() < 6) {
    held.push_back(pool.acquire(1024));
    if (pool.stats().slab_bytes != slab) {
      chunks.push_back(pool.stats().slab_bytes - slab);
      slab = pool.stats().slab_bytes;
    }
  }
  constexpr std::uint64_t kKiB = 1024;
  EXPECT_EQ(chunks, (std::vector<std::uint64_t>{
                        carved(32 * kKiB, block), carved(64 * kKiB, block),
                        carved(128 * kKiB, block), carved(256 * kKiB, block),
                        carved(256 * kKiB, block), carved(256 * kKiB, block)}));

  // Each class grows on its own schedule, starting over at 32 KiB; a
  // class wider than the chunk still carves one block per chunk.
  held.push_back(pool.acquire(64));
  EXPECT_EQ(pool.stats().slab_bytes - slab,
            carved(32 * kKiB, sizeof(PayloadBuf) + 64));
  slab = pool.stats().slab_bytes;
  held.push_back(pool.acquire(64 * kKiB));
  EXPECT_EQ(pool.stats().slab_bytes - slab, sizeof(PayloadBuf) + 64 * kKiB);
}

TEST(BufferPool, RefcountKeepsBlockAliveUntilLastHandle) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef a = pool.make_bytes(pattern(64));
  PayloadRef b = a;  // shared
  EXPECT_EQ(a.buf(), b.buf());
  EXPECT_EQ(a.buf()->refs, 2u);
  EXPECT_EQ(a.buf()->ref_acquires, 2u);
  a.reset();
  EXPECT_EQ(pool.stats().recycles, 0u) << "b still holds the block";
  EXPECT_EQ(std::vector<std::byte>(b.bytes().begin(), b.bytes().end()),
            pattern(64));
  b.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
}

TEST(BufferPool, AppendMergesTrailingBytesSegment) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(256);
  r.buf()->append_bytes(pattern(100, 1));
  r.buf()->append_bytes(pattern(100, 2));
  EXPECT_EQ(r.seg_count(), 1u);
  EXPECT_TRUE(r.contiguous_bytes());
  EXPECT_EQ(r.size(), 200u);
}

TEST(BufferPool, ShadowSegmentsCarryNoData) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(64);
  r.buf()->append_bytes(pattern(16));
  r.buf()->append_shadow(1000, /*seed=*/7, /*off=*/0);
  EXPECT_EQ(r.size(), 1016u);
  EXPECT_EQ(r.seg_count(), 2u);
  EXPECT_EQ(r.buf()->data_used, 16u) << "shadow extents consume no data area";
  EXPECT_FALSE(r.contiguous_bytes());
}

TEST(BufferPool, OversizeAcquireFallsBackToHeap) {
  Simulator sim;
  BufferPool pool(sim);
  // One byte past the largest class (128 MiB). The data area is never
  // touched, so the allocation stays virtual.
  PayloadRef r = pool.acquire((64ull << 21) + 1);
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  r.buf()->append_bytes(pattern(16));
  r.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().slab_bytes, 0u) << "oversize must not grow a class";
}

TEST(BufferPool, AsanPoisonsRecycledDataAreas) {
  if (!BufferPool::poisoning_enabled()) {
    GTEST_SKIP() << "not an ASan build";
  }
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(64);
  const std::byte* data = r.buf()->data();
  EXPECT_FALSE(BufferPool::address_poisoned(data));
  r.reset();
  EXPECT_TRUE(BufferPool::address_poisoned(data))
      << "freed blocks must be poisoned: stale PayloadRef reads should trap";
  PayloadRef again = pool.acquire(64);
  EXPECT_FALSE(BufferPool::address_poisoned(again.buf()->data()));
}

// --------------------------------------------- content modes (shadow)

NodeMemoryParams small_params(ContentMode mode) {
  NodeMemoryParams p;
  p.pm_capacity = 1 << 20;
  p.dram_capacity = 1 << 20;
  p.content_mode = mode;
  return p;
}

/// Builds the same logical payload in both modes: [16B header][1 KB
/// interior][8B commit] — bytes everywhere in kFull, a shadow extent
/// interior in kShadow, as encode_log_entry_image does.
PayloadRef build_image(NodeMemory& mem, std::uint64_t seed) {
  if (mem.content_mode() == ContentMode::kShadow) {
    PayloadRef r = mem.pool().acquire(24);
    r.buf()->append_bytes(pattern(16, static_cast<int>(seed)));
    r.buf()->append_shadow(1024, seed, 0);
    r.buf()->append_bytes(pattern(8, static_cast<int>(seed) + 1));
    return r;
  }
  PayloadRef r = mem.pool().acquire(16 + 1024 + 8);
  r.buf()->append_bytes(pattern(16, static_cast<int>(seed)));
  r.buf()->append_bytes(pattern(1024, 99));
  r.buf()->append_bytes(pattern(8, static_cast<int>(seed) + 1));
  return r;
}

TEST(ContentModeParity, TimingAndAccountingMatchAcrossModes) {
  Simulator sim_full;
  Simulator sim_shadow;
  NodeMemory full(sim_full, small_params(ContentMode::kFull));
  NodeMemory shadow(sim_shadow, small_params(ContentMode::kShadow));

  for (auto* m : {&full, &shadow}) {
    PayloadRef img = build_image(*m, 3);
    m->cpu_write_payload(4096, img);
    m->dma_write_payload(65536, img, /*ddio=*/false);
  }
  // Identical line presence and dirtiness...
  EXPECT_EQ(full.llc().dirty_lines(), shadow.llc().dirty_lines());
  EXPECT_EQ(full.range_persistent(4096, 1048),
            shadow.range_persistent(4096, 1048));
  // ...identical flush timing...
  const SimTime t_full = full.clflush(0, 4096, 1048);
  const SimTime t_shadow = shadow.clflush(0, 4096, 1048);
  EXPECT_EQ(t_full, t_shadow);
  // ...and identical device write accounting (shadow writes charge the
  // same bytes_written; only bytes_copied diverges).
  EXPECT_EQ(full.pm().bytes_written(), shadow.pm().bytes_written());
  EXPECT_LT(shadow.pm().bytes_copied(), full.pm().bytes_copied());
}

TEST(ContentModeParity, TornWriteCountsMatchAcrossModes) {
  Simulator sim_full;
  Simulator sim_shadow;
  NodeMemory full(sim_full, small_params(ContentMode::kFull));
  NodeMemory shadow(sim_shadow, small_params(ContentMode::kShadow));
  for (auto* m : {&full, &shadow}) {
    PayloadRef img = build_image(*m, 5);
    // Only 100 bytes reached the media: the line-aligned prefix lands,
    // the entry is torn.
    m->dma_torn_write(8192, img, img.size(), /*persisted_bytes=*/100);
    EXPECT_EQ(m->pm().torn_writes(), 1u);
  }
  EXPECT_EQ(full.pm().bytes_written(), shadow.pm().bytes_written());
}

TEST(ShadowPlane, DigestTracksWrittenExtents) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(1024, /*seed=*/42, /*off=*/0);
  mem.cpu_write_payload(4096, r);
  const auto d = mem.shadow_digest_at(4096, 1024);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, shadow_digest(42, 0, 1024));
  // Untracked ranges have no digest — byte content is authoritative.
  EXPECT_FALSE(mem.shadow_digest_at(4096 + 64, 64).has_value());
}

TEST(ShadowPlane, ReplicatedFanOutSharesOnePooledPayload) {
  // Replication pin (DESIGN.md §7.4): forwarding one transaction to R
  // replicas moves ONE pooled payload image by reference — every hop
  // holds its own PayloadRef to the same block, and in shadow mode the
  // per-replica stores land the digest with zero pool traffic and zero
  // payload bytes on any node.
  Simulator sim;
  NodeMemory head(sim, small_params(ContentMode::kShadow));
  NodeMemory tail(sim, small_params(ContentMode::kShadow));

  PayloadRef img = head.pool().acquire(0);
  img.buf()->append_shadow(4096, /*seed=*/9, /*off=*/0);
  EXPECT_EQ(img.buf()->data_used, 0u) << "shadow extents carry no bytes";

  // Each hop takes its own reference to the one block.
  PayloadRef hop_head = img;
  PayloadRef hop_tail = img;
  EXPECT_EQ(img.buf()->refs, 3u);

  head.poke_payload_pm(4096, hop_head);
  tail.poke_payload_pm(4096, hop_tail);

  // Identical content on both replicas, derivable without bytes...
  const auto dh = head.shadow_digest_at(4096, 4096);
  const auto dt = tail.shadow_digest_at(4096, 4096);
  ASSERT_TRUE(dh.has_value());
  ASSERT_TRUE(dt.has_value());
  EXPECT_EQ(*dh, *dt);
  EXPECT_EQ(*dh, shadow_digest(9, 0, 4096));
  // ...full timing-plane accounting but no copies on either device...
  EXPECT_EQ(head.pm().bytes_written(), 4096u);
  EXPECT_EQ(tail.pm().bytes_written(), 4096u);
  EXPECT_EQ(head.pm().bytes_copied(), 0u);
  EXPECT_EQ(tail.pm().bytes_copied(), 0u);
  // ...and the head's acquire was the only pool traffic anywhere.
  EXPECT_EQ(head.pool().stats().acquires, 1u);
  EXPECT_EQ(tail.pool().stats().acquires, 0u);
}

TEST(ShadowPlane, ByteOverwriteTrimsTheExtent) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(1024, /*seed=*/42, /*off=*/0);
  mem.cpu_write_payload(4096, r);
  // A plain byte store into the middle invalidates the tracked range:
  // the digest fails closed rather than report stale content.
  mem.cpu_write(4096 + 512, pattern(8));
  EXPECT_FALSE(mem.shadow_digest_at(4096, 1024).has_value());
}

TEST(ShadowPlane, ReadPayloadRoundTripsExtents) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(2048, /*seed=*/7, /*off=*/0);
  mem.cpu_write_payload(4096, r);

  // Reconstructing the range must come back as a shadow extent (no
  // bytes moved), and copying it elsewhere must preserve the digest.
  const std::uint64_t copied0 = mem.pm().bytes_copied();
  PayloadRef back = mem.read_payload(4096, 2048);
  EXPECT_EQ(mem.pm().bytes_copied(), copied0) << "shadow read moves no bytes";
  ASSERT_EQ(back.seg_count(), 1u);
  EXPECT_EQ(back.segs()[0].kind, PayloadSeg::Kind::kShadow);

  mem.cpu_write_payload(65536, back);
  const auto d = mem.shadow_digest_at(65536, 2048);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, shadow_digest(7, 0, 2048));
}

TEST(ShadowPlane, FullModeNeverTracksDigests) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kFull));
  PayloadRef r = mem.pool().make_bytes(pattern(256));
  mem.cpu_write_payload(4096, r);
  EXPECT_FALSE(mem.shadow_digest_at(4096, 256).has_value());
}


TEST(ShadowPlane, TornWriteBytesTrimTheShadowPlane) {
  // The landed byte prefix of a torn DMA is byte content like any other
  // store: a shadow extent it overlaps must stop vouching for the range.
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(1024, /*seed=*/42, /*off=*/0);
  mem.cpu_write_payload(4096, r);
  (void)mem.clflush(0, 4096, 1024);
  ASSERT_TRUE(mem.shadow_digest_at(4096, 1024).has_value());
  const std::vector<std::byte> data = pattern(256);
  const PayloadRef torn = mem.pool().make_bytes(data);
  mem.dma_torn_write(4096, torn, torn.size(), /*persisted_bytes=*/128);
  EXPECT_FALSE(mem.shadow_digest_at(4096, 1024).has_value());
  std::vector<std::byte> out(128);
  mem.cpu_read(4096, out);
  EXPECT_EQ(out, std::vector<std::byte>(data.begin(), data.begin() + 128));
}

// ------------------------------------------------------ pristine ranges

/// Per-byte reference of what read_payload returns in kShadow: which
/// store owns each byte (a pristine declaration, a byte store or a
/// shadow extent), the generator position of generated bytes and the
/// value of stored ones.
class ContentRef {
 public:
  enum class Owner : std::uint8_t { kPristine, kBytes, kShadow };
  struct Cell {
    Owner owner = Owner::kBytes;
    bool exact = true;  ///< kBytes: `value` is what a read returns
    std::byte value{0};
    std::uint64_t seed = 0;  ///< generated bytes: generator and offset
    std::uint64_t off = 0;
    /// Declared pristine and no byte store since: shadow extents
    /// overlay a pristine range without removing it from the set.
    bool pristine = false;
    /// kShadow: the store segment that landed the byte. A tracked
    /// extent is a maximal run of one id (stores clip, never merge).
    std::uint64_t ext = 0;
  };

  explicit ContentRef(std::size_t n) : cells_(n) {}

  [[nodiscard]] const Cell& at(std::uint64_t a) const { return cells_.at(a); }

  void declare_pristine(std::uint64_t a, std::uint64_t n) {
    for (std::uint64_t i = a; i < a + n; ++i) {
      cells_.at(i) = Cell{Owner::kPristine, true, std::byte{0},
                          NodeMemory::kPristineSeed, i, true};
    }
  }

  /// Lands `cells` at [a, a + cells.size()). Through the LLC
  /// (`cached`) a shadow extent leaves the other bytes of a line it
  /// dirties from clean reading as zeros until write-back — shadow-only
  /// lines hold no content (LlcModel.CoherentReadOfShadowLineIsZeros).
  /// The reference does not track dirtiness, so stored bytes around
  /// such a line become unknown; bytes the same store lands stay exact.
  void store(std::uint64_t a, const std::vector<Cell>& cells, bool cached) {
    const std::uint64_t end = a + cells.size();
    for (std::uint64_t i = 0; i < cells.size(); ++i) {
      Cell& c = cells_.at(a + i);
      const bool keeps_pristine = c.pristine && cells[i].owner == Owner::kShadow;
      c = cells[i];
      c.pristine = keeps_pristine;
    }
    if (!cached) return;
    for (std::uint64_t i = a; i < end; ++i) {
      if (cells_[i].owner != Owner::kShadow) continue;
      for (std::uint64_t j = line_down(i);
           j < std::min<std::uint64_t>(line_down(i) + kCacheLine, cells_.size());
           ++j) {
        if ((j < a || j >= end) && cells_[j].owner == Owner::kBytes) {
          cells_[j].exact = false;
        }
      }
    }
  }

  /// The segments an exact read of [a, a+n) reconstructs: maximal runs
  /// of one owner and, for generated bytes, one contiguous stream of
  /// one extent (pristine bytes: of the pristine set).
  [[nodiscard]] std::vector<PayloadSeg> expected_segs(std::uint64_t a,
                                                      std::uint64_t n) const {
    std::vector<PayloadSeg> out;
    std::uint64_t last_ext = 0;
    for (std::uint64_t i = a; i < a + n; ++i) {
      const Cell& c = cells_.at(i);
      const bool gen = c.owner != Owner::kBytes;
      if (!out.empty()) {
        PayloadSeg& last = out.back();
        const bool last_gen = last.kind == PayloadSeg::Kind::kShadow;
        if (gen == last_gen &&
            (!gen || (last.seed == c.seed && last.off + last.len == c.off &&
                      last_ext == c.ext))) {
          ++last.len;
          continue;
        }
      }
      last_ext = c.ext;
      out.push_back(PayloadSeg{
          gen ? PayloadSeg::Kind::kShadow : PayloadSeg::Kind::kBytes, 1, 0,
          gen ? c.seed : 0, gen ? c.off : 0});
    }
    return out;
  }

  /// What NodeMemory::shadow_digest_at(a, n) returns: the digest of
  /// the first n bytes of the extent starting at a, if there is one
  /// and it is at least n long.
  [[nodiscard]] std::optional<std::uint64_t> digest_at(std::uint64_t a,
                                                       std::uint64_t n) const {
    const Cell& c = cells_.at(a);
    const auto same_extent = [&c](const Cell& o) {
      return o.owner == Owner::kShadow && o.ext == c.ext;
    };
    if (c.owner != Owner::kShadow || (a > 0 && same_extent(cells_[a - 1]))) {
      return std::nullopt;
    }
    std::uint64_t run = 0;
    while (a + run < cells_.size() && same_extent(cells_[a + run])) ++run;
    if (run < n) return std::nullopt;
    return shadow_digest(c.seed, c.off, n);
  }

  /// Maximal pristine runs, as NodeMemory::pristine() reports them.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> pristine() const {
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::uint64_t i = 0; i < cells_.size(); ++i) {
      if (!cells_[i].pristine) continue;
      if (!out.empty() && std::prev(out.end())->second == i) {
        ++std::prev(out.end())->second;
      } else {
        out.emplace(i, i + 1);
      }
    }
    return out;
  }

 private:
  std::vector<Cell> cells_;
};

using Owner = ContentRef::Owner;

/// Reference cells of (a prefix of) a payload image as a store lands
/// it. Every shadow segment lands as an extent of its own.
std::vector<ContentRef::Cell> cells_of(const PayloadRef& p,
                                       std::uint64_t limit = UINT64_MAX) {
  static std::uint64_t next_ext = 1;
  std::vector<ContentRef::Cell> out;
  for (const PayloadSeg& seg : p.segs()) {
    const std::uint64_t ext = next_ext++;
    for (std::uint32_t i = 0; i < seg.len && out.size() < limit; ++i) {
      if (seg.kind == PayloadSeg::Kind::kBytes) {
        out.push_back({Owner::kBytes, true, p.buf()->seg_bytes(seg)[i], 0, 0});
      } else {
        out.push_back({Owner::kShadow, true, std::byte{0}, seg.seed,
                       seg.off + i, false, ext});
      }
    }
  }
  return out;
}

/// Checks a read_payload image of [a, a+n) against the reference:
/// segment for segment when the range fits one block's descriptors,
/// else the byte-image fallback (pristine bytes read as zeros there).
::testing::AssertionResult read_matches(const PayloadRef& got,
                                        const ContentRef& ref,
                                        std::uint64_t a, std::uint64_t n) {
  const std::vector<PayloadSeg> want = ref.expected_segs(a, n);
  if (got.size() != n) {
    return ::testing::AssertionFailure() << "image of " << got.size()
                                         << " bytes, want " << n;
  }
  const auto check_bytes = [&](std::span<const std::byte> bytes,
                               std::uint64_t at) -> ::testing::AssertionResult {
    for (std::uint64_t i = 0; i < bytes.size(); ++i) {
      const ContentRef::Cell& c = ref.at(at + i);
      const bool known = c.owner == Owner::kPristine ||
                         (c.owner == Owner::kBytes && c.exact);
      if (known && bytes[i] != c.value) {
        return ::testing::AssertionFailure()
               << "byte at " << at + i << " reads "
               << static_cast<int>(bytes[i]) << ", want "
               << static_cast<int>(c.value);
      }
    }
    return ::testing::AssertionSuccess();
  };
  if (want.size() > PayloadBuf::kMaxSegs) {
    if (!got.contiguous_bytes()) {
      return ::testing::AssertionFailure()
             << want.size() << " runs must fall back to one byte image";
    }
    return check_bytes(got.bytes(), a);
  }
  if (got.seg_count() != want.size()) {
    return ::testing::AssertionFailure() << got.seg_count() << " segments, want "
                                         << want.size() << " at " << a;
  }
  std::uint64_t at = a;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const PayloadSeg& g = got.segs()[k];
    const PayloadSeg& w = want[k];
    if (g.kind != w.kind || g.len != w.len ||
        (w.kind == PayloadSeg::Kind::kShadow &&
         (g.seed != w.seed || g.off != w.off))) {
      return ::testing::AssertionFailure()
             << "segment " << k << " at " << at << ": kind "
             << static_cast<int>(g.kind) << " len " << g.len << " seed "
             << g.seed << " off " << g.off << ", want kind "
             << static_cast<int>(w.kind) << " len " << w.len << " seed "
             << w.seed << " off " << w.off;
    }
    if (g.kind == PayloadSeg::Kind::kBytes) {
      if (auto r = check_bytes(got.buf()->seg_bytes(g), at); !r) return r;
    }
    at += g.len;
  }
  return ::testing::AssertionSuccess();
}

/// Reference cells of a read_payload image of [src, ...) stored again.
std::vector<ContentRef::Cell> copied_cells(const PayloadRef& img,
                                           const ContentRef& ref,
                                           std::uint64_t src) {
  std::vector<ContentRef::Cell> cells = cells_of(img);
  for (std::uint64_t i = 0; i < cells.size(); ++i) {
    // A byte image carries unknown bytes wherever the source was
    // generated content other than pristine zeros.
    const ContentRef::Cell& c = ref.at(src + i);
    cells[i].exact = cells[i].owner != Owner::kBytes ||
                     c.owner != Owner::kShadow;
    if (cells[i].owner == Owner::kBytes && c.owner == Owner::kBytes) {
      cells[i].exact = c.exact;
    }
  }
  return cells;
}

TEST(NodeMemoryPristine, MatchesPerByteReference) {
  // Seeded mixes of byte, DMA, shadow and torn stores, copies and
  // flushes over a window with pristine declarations; every read must
  // reconstruct exactly what the per-byte reference says, and the
  // pristine set must be the reference's pristine runs after every op.
  constexpr std::uint64_t kWindow = 16 * 1024;
  // How often reads met each shape, so the mix provably covers them.
  std::uint64_t pristine_segs = 0;
  std::uint64_t mixed_reads = 0;
  std::uint64_t fallback_reads = 0;
  const auto tally = [&](const PayloadRef& img) {
    if (img.seg_count() >= 3) ++mixed_reads;
    for (const PayloadSeg& seg : img.segs()) {
      if (seg.kind == PayloadSeg::Kind::kShadow &&
          seg.seed == NodeMemory::kPristineSeed) {
        ++pristine_segs;
      }
    }
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    OpRng rng{seed};
    Simulator sim;
    NodeMemoryParams params = small_params(ContentMode::kShadow);
    params.llc.capacity_lines = 4 + rng.below(28);  // exercise evictions
    NodeMemory mem(sim, params);
    ContentRef ref(kWindow);

    // Ranges that overlap, touch or stand alone.
    for (int d = 0; d < 5; ++d) {
      const std::uint64_t a = rng.below(kWindow - 1);
      const std::uint64_t n = 1 + rng.below(std::min<std::uint64_t>(
                                      kWindow - a, 4096));
      mem.declare_pristine(a, n);
      ref.declare_pristine(a, n);
    }
    mem.declare_pristine(9000, 500);  // touches the next one: merged
    mem.declare_pristine(9500, 300);
    ref.declare_pristine(9000, 800);
    ASSERT_EQ(mem.pristine(), ref.pristine()) << "seed " << seed;

    std::uint64_t next_seed = 1000;
    const auto random_range = [&](std::uint64_t max_len) {
      const std::uint64_t a = rng.below(kWindow - 1);
      const std::uint64_t n =
          1 + rng.below(std::min<std::uint64_t>(kWindow - a, max_len));
      return std::pair{a, n};
    };
    const auto random_image = [&](std::uint64_t n) {
      // Bytes and shadow extents in random order, each its own stream.
      PayloadRef p = mem.pool().acquire(n);
      std::uint64_t left = n;
      for (std::uint32_t k = 0; k < 3 && left > 0; ++k) {
        const std::uint64_t len = k == 2 ? left : 1 + rng.below(left);
        if (rng.below(2) == 0) {
          p.buf()->append_bytes(pattern(len, static_cast<int>(rng.below(200))));
        } else {
          p.buf()->append_shadow(static_cast<std::uint32_t>(len), next_seed++,
                                 rng.below(1 << 20));
        }
        left -= len;
      }
      return p;
    };

    for (int op = 0; op < 600; ++op) {
      const std::uint64_t kind = rng.below(9);
      if (kind == 0) {  // CPU byte store
        const auto [a, n] = random_range(300);
        const auto data = pattern(n, static_cast<int>(rng.below(200)));
        mem.cpu_write(a, data);
        ref.store(a, cells_of(mem.pool().make_bytes(data)), true);
      } else if (kind == 1) {  // DMA byte store, with or without DDIO
        const auto [a, n] = random_range(300);
        const bool ddio = rng.below(2) == 0;
        // A DMA that bypasses the LLC meets no dirty line over its
        // range (the model keeps no coherence between the two).
        if (!ddio) (void)mem.clflush(0, a, n);
        const auto data = pattern(n, static_cast<int>(rng.below(200)));
        mem.dma_write(a, data, ddio);
        ref.store(a, cells_of(mem.pool().make_bytes(data)), ddio);
      } else if (kind <= 3) {  // payload image on one of the three paths
        const auto [a, n] = random_range(2000);
        const PayloadRef img = random_image(n);
        const std::uint64_t path = rng.below(4);
        if (path >= 2) (void)mem.clflush(0, a, n);
        if (path == 0) mem.cpu_write_payload(a, img);
        if (path == 1) mem.dma_write_payload(a, img, /*ddio=*/true);
        if (path == 2) mem.dma_write_payload(a, img, /*ddio=*/false);
        if (path == 3) mem.poke_payload_pm(a, img);
        ref.store(a, cells_of(img), path <= 1);
      } else if (kind == 4) {  // torn landing of an in-flight DMA
        const auto [a, n] = random_range(2000);
        const PayloadRef img = random_image(n);
        const std::uint64_t persisted = rng.below(n + 1);
        (void)mem.clflush(0, a, n);
        mem.dma_torn_write(a, img, n, persisted);
        ref.store(a, cells_of(img, line_down(persisted)), false);
      } else if (kind == 5) {  // read + copy, as ObjectStore::read_into
        const auto [src, n] = random_range(2000);
        const std::uint64_t dst = rng.below(kWindow - n + 1);
        const PayloadRef img = mem.read_payload(src, n);
        ASSERT_TRUE(read_matches(img, ref, src, n))
            << "seed " << seed << " op " << op;
        tally(img);
        mem.cpu_write_payload(dst, img);
        ref.store(dst, copied_cells(img, ref, src), true);
      } else if (kind == 6) {
        const auto [a, n] = random_range(4000);
        (void)mem.clflush(0, a, n);
      } else {
        const auto [a, n] = random_range(4000);
        const PayloadRef img = mem.read_payload(a, n);
        ASSERT_TRUE(read_matches(img, ref, a, n))
            << "seed " << seed << " op " << op;
        tally(img);
        if (ref.expected_segs(a, n).size() > PayloadBuf::kMaxSegs) {
          ++fallback_reads;
        }
      }
      ASSERT_EQ(mem.pristine(), ref.pristine())
          << "seed " << seed << " op " << op;
    }
  }
  EXPECT_GT(pristine_segs, 100u);
  EXPECT_GT(mixed_reads, 100u);
  EXPECT_GT(fallback_reads, 10u);
}

TEST(NodeMemoryPristine, ReadOfDeclaredRangeMovesNoBytes) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(4096, 65536);
  const std::uint64_t copied0 = mem.pm().bytes_copied();
  const PayloadRef r = mem.read_payload(8192, 4096);
  EXPECT_EQ(mem.pm().bytes_copied(), copied0);
  ASSERT_EQ(r.seg_count(), 1u);
  EXPECT_EQ(r.segs()[0].kind, PayloadSeg::Kind::kShadow);
  EXPECT_EQ(r.segs()[0].seed, NodeMemory::kPristineSeed);
  EXPECT_EQ(r.segs()[0].off, 8192u) << "stream offset is the address";
  EXPECT_EQ(r.buf()->data_used, 0u);
  // Copied elsewhere, the slice keeps its generator position: digests
  // of pristine slices compose like any other stream.
  mem.cpu_write_payload(200000, r);
  EXPECT_EQ(mem.shadow_digest_at(200000, 4096),
            shadow_digest(NodeMemory::kPristineSeed, 8192, 4096));
}

TEST(NodeMemoryPristine, PartialOverlapsAtBothEndsClipTheRange) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(1000, 4000);  // [1000, 5000)
  mem.cpu_write(900, pattern(200, 3));   // [900, 1100)
  mem.dma_write(4900, pattern(200, 4), /*ddio=*/true);  // [4900, 5100)
  const std::map<std::uint64_t, std::uint64_t> want{{1100, 4900}};
  EXPECT_EQ(mem.pristine(), want);

  const PayloadRef r = mem.read_payload(900, 4200);
  ASSERT_EQ(r.seg_count(), 3u);
  EXPECT_EQ(r.segs()[0].kind, PayloadSeg::Kind::kBytes);
  EXPECT_EQ(as_vector(r.buf()->seg_bytes(r.segs()[0])), pattern(200, 3));
  EXPECT_EQ(r.segs()[1].kind, PayloadSeg::Kind::kShadow);
  EXPECT_EQ(r.segs()[1].len, 3800u);
  EXPECT_EQ(r.segs()[1].off, 1100u);
  EXPECT_EQ(as_vector(r.buf()->seg_bytes(r.segs()[2])), pattern(200, 4));
}

TEST(NodeMemoryPristine, StoreThatExactlyCoversTheRangeRemovesIt) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(4096, 4096);
  mem.cpu_write(4096, pattern(4096, 7));
  EXPECT_TRUE(mem.pristine().empty());
  const PayloadRef r = mem.read_payload(4096, 4096);
  ASSERT_TRUE(r.contiguous_bytes());
  EXPECT_EQ(as_vector(r.bytes()), pattern(4096, 7));
}

TEST(NodeMemoryPristine, StoreStraddlingTwoRangesClipsBoth) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(0x1000, 0x1000);
  mem.declare_pristine(0x3000, 0x1000);
  mem.cpu_write(0x1800, pattern(0x2000, 5));  // [0x1800, 0x3800)
  const std::map<std::uint64_t, std::uint64_t> want{{0x1000, 0x1800},
                                                    {0x3800, 0x4000}};
  EXPECT_EQ(mem.pristine(), want);
  const PayloadRef r = mem.read_payload(0x1000, 0x3000);
  ASSERT_EQ(r.seg_count(), 3u);
  EXPECT_EQ(r.segs()[0].kind, PayloadSeg::Kind::kShadow);
  EXPECT_EQ(r.segs()[1].kind, PayloadSeg::Kind::kBytes);
  EXPECT_EQ(r.segs()[2].kind, PayloadSeg::Kind::kShadow);
  EXPECT_EQ(r.segs()[2].off, 0x3800u);
}

TEST(NodeMemoryPristine, ShadowStoresWinAndLeaveTheSetAlone) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(0, 8192);
  PayloadRef img = mem.pool().acquire(0);
  img.buf()->append_shadow(1000, /*seed=*/5, /*off=*/0);
  mem.cpu_write_payload(2000, img);
  const std::map<std::uint64_t, std::uint64_t> want{{0, 8192}};
  EXPECT_EQ(mem.pristine(), want);
  const PayloadRef r = mem.read_payload(0, 8192);
  ASSERT_EQ(r.seg_count(), 3u);
  EXPECT_EQ(r.segs()[1].seed, 5u);
  EXPECT_EQ(r.segs()[2].off, 3000u);
}

TEST(NodeMemoryPristine, TornWriteBytesClipTheRange) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_pristine(8192, 4096);
  const PayloadRef torn = mem.pool().make_bytes(pattern(1000, 9));
  mem.dma_torn_write(8192, torn, torn.size(), /*persisted_bytes=*/300);
  // The line-aligned 256-byte prefix landed; the rest stays pristine.
  const std::map<std::uint64_t, std::uint64_t> want{{8192 + 256, 12288}};
  EXPECT_EQ(mem.pristine(), want);
  const PayloadRef r = mem.read_payload(8192, 256);
  ASSERT_TRUE(r.contiguous_bytes());
  const std::vector<std::byte> landed = pattern(1000, 9);
  EXPECT_EQ(as_vector(r.bytes()),
            std::vector<std::byte>(landed.begin(), landed.begin() + 256));
}

TEST(NodeMemoryPristine, FullModeDeclarationIsANoOp) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kFull));
  mem.declare_pristine(4096, 65536);
  EXPECT_TRUE(mem.pristine().empty());
  const std::uint64_t copied0 = mem.pm().bytes_copied();
  const PayloadRef r = mem.read_payload(4096, 4096);
  EXPECT_EQ(mem.pm().bytes_copied(), copied0 + 4096) << "kFull reads copy";
  ASSERT_TRUE(r.contiguous_bytes());
  EXPECT_EQ(as_vector(r.bytes()), std::vector<std::byte>(4096));
}

// ------------------------------------------------------------ slot rings

/// Same segments (kind, length, generator, offset) and same bytes.
::testing::AssertionResult same_image(const PayloadRef& a,
                                      const PayloadRef& b) {
  if (a.size() != b.size() || a.seg_count() != b.seg_count()) {
    return ::testing::AssertionFailure()
           << a.size() << " bytes in " << a.seg_count() << " segments vs "
           << b.size() << " in " << b.seg_count();
  }
  for (std::size_t k = 0; k < a.seg_count(); ++k) {
    const PayloadSeg& x = a.segs()[k];
    const PayloadSeg& y = b.segs()[k];
    if (x.kind != y.kind || x.len != y.len || x.seed != y.seed ||
        x.off != y.off) {
      return ::testing::AssertionFailure()
             << "segment " << k << ": kind " << static_cast<int>(x.kind)
             << " len " << x.len << " seed " << x.seed << " off " << x.off
             << " vs kind " << static_cast<int>(y.kind) << " len " << y.len
             << " seed " << y.seed << " off " << y.off;
    }
    if (x.kind == PayloadSeg::Kind::kBytes &&
        as_vector(a.buf()->seg_bytes(x)) != as_vector(b.buf()->seg_bytes(y))) {
      return ::testing::AssertionFailure() << "bytes of segment " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(NodeMemorySlots, MatchesTheMapAndThePerByteReference) {
  // Twins fed the same seeded stores: `slots` declares two slot rings
  // (one of odd-sized, misaligned slots partly declared pristine, like
  // an object store; one of line-sized slots, like a log ring), `plain`
  // declares none and so keeps every extent in the ordered map. After
  // every step the twins must return the same read_payload image
  // (segments and bytes), the same shadow_digest_at and the same
  // bytes_copied, and both must match the per-byte reference.
  constexpr std::uint64_t kWindow = 16 * 1024;
  std::uint64_t inline_seen = 0;
  std::uint64_t mapped_seen = 0;
  std::uint64_t digests_found = 0;
  std::uint64_t fallback_reads = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    OpRng rng{seed};
    Simulator sim;
    NodeMemoryParams params = small_params(ContentMode::kShadow);
    params.llc.capacity_lines = 4 + rng.below(28);
    NodeMemory slots(sim, params);
    NodeMemory plain(sim, params);
    ContentRef ref(kWindow);

    const std::uint64_t stride = 200 + rng.below(400);
    const std::uint64_t ring = 1000 + rng.below(64);
    constexpr std::uint64_t kRingSlots = 12;
    slots.declare_slots(ring, stride, kRingSlots);
    slots.declare_slots(9000, 256, 16);
    slots.declare_slots(9000, 256, 16);  // re-declared: ignored
    slots.declare_slots(9100, 64, 4);    // overlapping: ignored
    for (NodeMemory* m : {&slots, &plain}) {
      m->declare_pristine(ring, stride * kRingSlots / 2);
      m->declare_pristine(14000, 1500);
    }
    ref.declare_pristine(ring, stride * kRingSlots / 2);
    ref.declare_pristine(14000, 1500);

    const auto slot_addr = [&] {
      return rng.below(2) == 0 ? ring + rng.below(kRingSlots) * stride
                               : 9000 + rng.below(16) * 256;
    };
    std::uint64_t next_seed = 1000;
    // Starts and lengths of recent shadow stores: targets of exact
    // overwrites and of digest probes.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stored;
    const auto note = [&](std::uint64_t a, const PayloadRef& p) {
      std::uint64_t at = a;
      for (const PayloadSeg& seg : p.segs()) {
        if (seg.kind == PayloadSeg::Kind::kShadow && at < kWindow) {
          stored.emplace_back(at, seg.len);
        }
        at += seg.len;
      }
      if (stored.size() > 64) stored.erase(stored.begin());
    };
    const auto random_range = [&](std::uint64_t max_len) {
      const std::uint64_t a = rng.below(kWindow - 1);
      const std::uint64_t n =
          1 + rng.below(std::min<std::uint64_t>(kWindow - a, max_len));
      return std::pair{a, n};
    };
    const auto random_image = [&](std::uint64_t n) {
      PayloadRef p = slots.pool().acquire(n);
      std::uint64_t left = n;
      for (std::uint32_t k = 0; k < 3 && left > 0; ++k) {
        const std::uint64_t len = k == 2 ? left : 1 + rng.below(left);
        if (rng.below(2) == 0) {
          p.buf()->append_bytes(pattern(len, static_cast<int>(rng.below(200))));
        } else {
          p.buf()->append_shadow(static_cast<std::uint32_t>(len), next_seed++,
                                 rng.below(1 << 20));
        }
        left -= len;
      }
      return p;
    };
    // Header bytes, a shadow interior, a commit word: a log entry.
    const auto entry_image = [&](std::uint64_t len) {
      const std::uint64_t hdr = 16 * (1 + rng.below(4));
      PayloadRef p = slots.pool().acquire(hdr + 8);
      p.buf()->append_bytes(pattern(hdr, static_cast<int>(rng.below(200))));
      p.buf()->append_shadow(static_cast<std::uint32_t>(len), next_seed++, 0);
      p.buf()->append_bytes(pattern(8, static_cast<int>(rng.below(200))));
      return p;
    };
    // Lands `img` at `a` on both twins by one of the four paths.
    const auto store = [&](std::uint64_t a, const PayloadRef& img) {
      const std::uint64_t path = rng.below(4);
      for (NodeMemory* m : {&slots, &plain}) {
        if (path >= 2) (void)m->clflush(0, a, img.size());
        if (path == 0) m->cpu_write_payload(a, img);
        if (path == 1) m->dma_write_payload(a, img, /*ddio=*/true);
        if (path == 2) m->dma_write_payload(a, img, /*ddio=*/false);
        if (path == 3) m->poke_payload_pm(a, img);
      }
      ref.store(a, cells_of(img), path <= 1);
      note(a, img);
    };
    const auto read_both = [&](std::uint64_t a, std::uint64_t n,
                               int op) -> PayloadRef {
      const PayloadRef got = slots.read_payload(a, n);
      EXPECT_TRUE(same_image(got, plain.read_payload(a, n)))
          << "seed " << seed << " op " << op << " read " << a << "+" << n;
      EXPECT_TRUE(read_matches(got, ref, a, n))
          << "seed " << seed << " op " << op;
      if (ref.expected_segs(a, n).size() > PayloadBuf::kMaxSegs) {
        ++fallback_reads;
      }
      return got;
    };

    for (int op = 0; op < 500; ++op) {
      const std::uint64_t kind = rng.below(10);
      if (kind <= 1) {  // a log entry into a slot, often the same length
        const std::uint64_t len = kind == 0 ? 96 : 8 + rng.below(150);
        store(slot_addr(), entry_image(len));
      } else if (kind == 2 && !stored.empty()) {  // exact overwrite
        const auto [a, len] = stored[rng.below(stored.size())];
        PayloadRef img = slots.pool().acquire(0);
        img.buf()->append_shadow(static_cast<std::uint32_t>(len), next_seed++,
                                 rng.below(1 << 20));
        store(a, img);
      } else if (kind == 3) {  // anywhere, across slot boundaries
        const auto [a, n] = random_range(1500);
        store(a, random_image(n));
      } else if (kind == 4) {  // byte store, misaligned
        const auto [a, n] = random_range(200);
        const auto data = pattern(n, static_cast<int>(rng.below(200)));
        const bool cpu = rng.below(2) == 0;
        for (NodeMemory* m : {&slots, &plain}) {
          if (cpu) {
            m->cpu_write(a, data);
          } else {
            (void)m->clflush(0, a, n);
            m->dma_write(a, data, /*ddio=*/false);
          }
        }
        ref.store(a, cells_of(slots.pool().make_bytes(data)), cpu);
      } else if (kind == 5) {  // torn landing of an in-flight DMA
        const std::uint64_t a =
            rng.below(2) == 0 ? slot_addr() : rng.below(kWindow - 2000);
        const PayloadRef img = random_image(1 + rng.below(1500));
        const std::uint64_t persisted = rng.below(img.size() + 1);
        for (NodeMemory* m : {&slots, &plain}) {
          (void)m->clflush(0, a, img.size());
          m->dma_torn_write(a, img, img.size(), persisted);
        }
        ref.store(a, cells_of(img, line_down(persisted)), false);
      } else if (kind == 6) {  // slot -> slot copy, as apply_write
        const std::uint64_t src = slot_addr();
        const std::uint64_t dst = slot_addr();
        const std::uint64_t n = 1 + rng.below(std::min<std::uint64_t>(
                                        stride, kWindow - std::max(src, dst)));
        const PayloadRef img = read_both(src, n, op);
        for (NodeMemory* m : {&slots, &plain}) m->cpu_write_payload(dst, img);
        ref.store(dst, copied_cells(img, ref, src), true);
        note(dst, img);
      } else if (kind == 7) {
        const auto [a, n] = random_range(4000);
        for (NodeMemory* m : {&slots, &plain}) (void)m->clflush(0, a, n);
      }

      // Reads over a slot and over anywhere, then digests.
      const std::uint64_t s = slot_addr();
      (void)read_both(s, std::min<std::uint64_t>(stride + 64, kWindow - s),
                      op);
      const auto [a, n] = random_range(3000);
      (void)read_both(a, n, op);
      for (int probe = 0; probe < 4; ++probe) {
        std::uint64_t at = rng.below(kWindow);
        std::uint64_t len = 1 + rng.below(300);
        if (probe < 2 && !stored.empty()) {
          const auto& e = stored[rng.below(stored.size())];
          at = e.first;
          len = probe == 0 ? e.second : 1 + rng.below(e.second + 8);
        }
        const auto want = ref.digest_at(at, len);
        EXPECT_EQ(slots.shadow_digest_at(at, len), want)
            << "seed " << seed << " op " << op << " digest at " << at;
        EXPECT_EQ(plain.shadow_digest_at(at, len), want);
        if (want.has_value()) ++digests_found;
      }
      ASSERT_EQ(slots.pm().bytes_copied(), plain.pm().bytes_copied())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(slots.pristine(), ref.pristine());
      ASSERT_EQ(plain.pristine(), ref.pristine());
      ASSERT_EQ(plain.inline_extent_count(), 0u);
      inline_seen += slots.inline_extent_count();
      mapped_seen += slots.mapped_extent_count();
      if (HasFailure()) return;
    }
  }
  // The mix must reach every representation and every answer.
  EXPECT_GT(inline_seen, 5000u);
  EXPECT_GT(mapped_seen, 5000u);
  EXPECT_GT(digests_found, 1000u);
  EXPECT_GT(fallback_reads, 10u);
}

TEST(NodeMemorySlots, FullModeDeclarationIsANoOp) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kFull));
  mem.declare_slots(0, 4096, 16);
  PayloadRef img = mem.pool().acquire(0);
  img.buf()->append_shadow(1000, /*seed=*/5, /*off=*/0);
  mem.cpu_write_payload(64, img);
  EXPECT_EQ(mem.inline_extent_count(), 0u);
  EXPECT_FALSE(mem.shadow_digest_at(64, 1000).has_value());
}

TEST(NodeMemorySlots, FirstExtentOfASlotIsHeldInline) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  mem.declare_slots(4096, 1024, 8);
  const auto shadow = [&](std::uint64_t a, std::uint32_t len,
                          std::uint64_t seed) {
    PayloadRef img = mem.pool().acquire(0);
    img.buf()->append_shadow(len, seed, 0);
    mem.cpu_write_payload(a, img);
  };
  shadow(4096 + 64, 512, 1);  // first extent of slot 0
  EXPECT_EQ(mem.inline_extent_count(), 1u);
  EXPECT_EQ(mem.mapped_extent_count(), 0u);
  shadow(4096 + 64, 512, 2);  // exact overwrite: in place
  EXPECT_EQ(mem.inline_extent_count(), 1u);
  EXPECT_EQ(mem.shadow_digest_at(4096 + 64, 512), shadow_digest(2, 0, 512));
  shadow(4096 + 700, 100, 3);  // a second extent in slot 0
  EXPECT_EQ(mem.mapped_extent_count(), 1u);
  shadow(4096 + 1000, 100, 4);  // crosses into slot 1
  EXPECT_EQ(mem.mapped_extent_count(), 2u);
  shadow(64, 100, 5);  // outside the ring
  EXPECT_EQ(mem.mapped_extent_count(), 3u);
  // A byte store into the middle of the inline extent keeps its head
  // inline and moves its tail to the map, stream offset advanced.
  mem.cpu_write(4096 + 200, pattern(8));
  EXPECT_EQ(mem.inline_extent_count(), 1u);
  EXPECT_EQ(mem.mapped_extent_count(), 4u);
  EXPECT_EQ(mem.shadow_digest_at(4096 + 64, 136), shadow_digest(2, 0, 136));
  EXPECT_FALSE(mem.shadow_digest_at(4096 + 64, 137).has_value());
  EXPECT_EQ(mem.shadow_digest_at(4096 + 208, 368), shadow_digest(2, 144, 368));
  const PayloadRef r = mem.read_payload(4096, 1024);
  // Bytes, head, the stored bytes, tail, bytes, extent 3, bytes and
  // the part of extent 4 inside slot 0.
  ASSERT_EQ(r.seg_count(), 8u);
  EXPECT_EQ(r.segs()[1].len, 136u);
  EXPECT_EQ(r.segs()[3].off, 144u);
  EXPECT_EQ(r.segs()[5].seed, 3u);
  EXPECT_EQ(r.segs()[7].seed, 4u);
  EXPECT_EQ(r.segs()[7].len, 24u);
}

}  // namespace
}  // namespace prdma::mem
