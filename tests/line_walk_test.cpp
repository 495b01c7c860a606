// Cache-sim line walk equivalence: MemorySystem books each touched L2
// line with one L2Cache::access_line call.  These tests drive random
// request streams through it and compare the whole MemStats — bytes,
// requests, operand attribution, L2 counters, row-buffer hits and the
// floating-point busy_ns sums — against an independent sector-by-sector
// reference written here from scratch (plain sectored LRU, divide-based
// DRAM decode and channel hash), which issues DRAM events in sector
// order: each sector's fill, then that sector's dirty-eviction
// writeback.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "gpusim/memory_system.hpp"

namespace nmdt {
namespace {

class SectorReference {
 public:
  explicit SectorReference(const ArchConfig& arch)
      : arch_(arch),
        sets_(static_cast<u64>(arch.l2_bytes / (static_cast<i64>(arch.l2_ways) *
                                                arch.l2_line_bytes))),
        lines_(sets_ * static_cast<u64>(arch.l2_ways)),
        banks_(static_cast<usize>(arch.pseudo_channels),
               std::vector<u64>(static_cast<usize>(arch.dram_banks_per_channel), ~u64{0})),
        ns_per_byte_(1.0 / arch.bw_per_channel_gbps),
        miss_penalty_ns_(arch.dram_row_miss_penalty_ns / arch.dram_bank_parallelism) {
    stats_.channels.assign(static_cast<usize>(arch.pseudo_channels), ChannelStats{});
  }

  /// Mirror an allocation MemorySystem placed at `base`.
  void add_region(u64 base, i64 bytes, const std::string& name) {
    const u64 g = static_cast<u64>(arch_.interleave_bytes);
    regions_.push_back({base, base + (static_cast<u64>(bytes) + g - 1) / g * g,
                        name.substr(0, name.find('.'))});
  }

  void request(u64 addr, i64 bytes, int kind) {  // 0=load, 1=store, 2=atomic
    const u64 sector = static_cast<u64>(arch_.l2_sector_bytes);
    if (bytes > 0) {
      for (u64 s = addr / sector; s <= (addr + static_cast<u64>(bytes) - 1) / sector; ++s) {
        const u64 a = s * sector;
        stats_.l2_service_bytes += arch_.l2_sector_bytes;
        if (kind == 2) stats_.atomic_rmw_bytes += arch_.l2_sector_bytes;
        const auto [fill, writeback] = l2_access(a, kind != 0);
        if (fill > 0) dram(a, fill, kind == 2 ? 2 : 0, /*addressed=*/true);
        if (writeback > 0) dram(a, writeback, 1, /*addressed=*/true);
      }
    }
    stats_.l2 = l2_;
  }

  void engine_read(u64 addr, i64 bytes) { dram(addr, bytes, 0, /*addressed=*/false); }

  const MemStats& stats() const { return stats_; }

 private:
  struct Line {
    u64 tag = 0;
    u32 valid_sectors = 0;
    u32 dirty_sectors = 0;
    u64 stamp = 0;
    bool valid = false;
  };
  struct Region {
    u64 begin, end;
    std::string tag;
  };

  /// One sector through a sectored LRU set: {fill bytes, writeback bytes}.
  std::pair<i64, i64> l2_access(u64 addr, bool is_write) {
    ++l2_.accesses;
    ++clock_;
    const u64 line_addr = addr / static_cast<u64>(arch_.l2_line_bytes);
    const u32 bit = u32{1} << ((addr % static_cast<u64>(arch_.l2_line_bytes)) /
                               static_cast<u64>(arch_.l2_sector_bytes));
    Line* set = &lines_[(line_addr % sets_) * static_cast<u64>(arch_.l2_ways)];
    const u64 tag = line_addr / sets_;
    for (int w = 0; w < arch_.l2_ways; ++w) {
      Line& l = set[w];
      if (!l.valid || l.tag != tag) continue;
      l.stamp = clock_;
      i64 fill = 0;
      if (l.valid_sectors & bit) {
        ++l2_.sector_hits;
      } else {
        ++l2_.sector_misses;
        l.valid_sectors |= bit;
        fill = arch_.l2_sector_bytes;
      }
      if (is_write) l.dirty_sectors |= bit;
      return {fill, 0};
    }
    ++l2_.sector_misses;
    Line* victim = nullptr;
    for (int w = 0; w < arch_.l2_ways && victim == nullptr; ++w) {
      if (!set[w].valid) victim = &set[w];
    }
    if (victim == nullptr) {
      victim = set;
      for (int w = 1; w < arch_.l2_ways; ++w) {
        if (set[w].stamp < victim->stamp) victim = &set[w];
      }
    }
    i64 writeback = 0;
    if (victim->valid) {
      ++l2_.evictions;
      if (victim->dirty_sectors != 0) {
        ++l2_.writebacks;
        writeback = std::popcount(victim->dirty_sectors) * arch_.l2_sector_bytes;
      }
    }
    *victim = Line{tag, bit, is_write ? bit : 0, clock_, true};
    return {arch_.l2_sector_bytes, writeback};
  }

  /// One DRAM event (kind 0=read, 1=write, 2=atomic); `addressed` events
  /// go through the row buffer, engine streams are pure transfer.
  void dram(u64 addr, i64 bytes, int kind, bool addressed) {
    u64 g = addr / static_cast<u64>(arch_.interleave_bytes);
    g *= 0x9e3779b97f4a7c15ULL;
    const usize c = static_cast<usize>((g >> 40) % static_cast<u64>(arch_.pseudo_channels));
    ChannelStats& ch = stats_.channels[c];
    ++ch.requests;
    const i64 effective =
        kind == 2 ? static_cast<i64>(static_cast<double>(bytes) * arch_.atomic_cost_multiplier)
                  : bytes;
    (kind == 0 ? ch.read_bytes : kind == 1 ? ch.write_bytes : ch.atomic_bytes) += effective;
    stats_.operand_bytes[tag_of(addr)] += effective;
    ch.busy_ns += static_cast<double>(effective) * ns_per_byte_;
    if (!addressed) {
      ++ch.row_hits;
      return;
    }
    const u64 global_row = addr / static_cast<u64>(arch_.dram_row_bytes);
    const u64 bank = global_row % static_cast<u64>(arch_.dram_banks_per_channel);
    const u64 row = global_row / static_cast<u64>(arch_.dram_banks_per_channel);
    if (banks_[c][bank] == row) {
      ++ch.row_hits;
    } else {
      ++ch.row_misses;
      banks_[c][bank] = row;
      ch.busy_ns += miss_penalty_ns_;
    }
  }

  std::string tag_of(u64 addr) const {
    for (const Region& r : regions_) {
      if (addr >= r.begin && addr < r.end) return r.tag;
    }
    return "?";
  }

  ArchConfig arch_;
  u64 sets_;
  std::vector<Line> lines_;
  std::vector<std::vector<u64>> banks_;  ///< open row per channel, bank
  double ns_per_byte_;
  double miss_penalty_ns_;
  u64 clock_ = 0;
  CacheStats l2_;
  std::vector<Region> regions_;
  MemStats stats_;
};

/// Drive one random request stream through MemorySystem (cache-sim) and
/// the reference; returns the stream's L2 counters.
CacheStats run_stream(const ArchConfig& arch, u64 seed, bool high_addresses) {
  MemorySystem mem(arch, MemMode::kCacheSim);
  SectorReference ref(arch);
  std::mt19937_64 rng(seed);
  // A spacer pushes the operands above 2^40: line addresses no longer
  // fit 32 bits, so the set index takes its wide-remainder path.
  if (high_addresses) mem.allocate(i64{1} << 40, "spacer");
  struct Alloc {
    u64 base;
    i64 bytes;
  };
  std::vector<Alloc> allocs;
  const char* names[] = {"A.vals", "A.col_idx", "B", "C", "meta"};
  for (const char* name : names) {
    const i64 bytes = std::uniform_int_distribution<i64>(300, 6000)(rng) * 41;
    const u64 base = mem.allocate(bytes, name);
    ref.add_region(base, bytes, name);
    allocs.push_back({base, bytes});
  }
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<i64> size_dist(1, 600);
  auto pick_addr = [&] {
    const Alloc& a = allocs[rng() % allocs.size()];
    // Unaligned; a request may run past its allocation into the padding
    // or the guard granule (attributed to "?").
    return a.base + rng() % static_cast<u64>(a.bytes);
  };
  for (int i = 0; i < 20000; ++i) {
    const int op = op_dist(rng);
    const i64 bytes = size_dist(rng);
    if (op < 30) {
      const u64 a = pick_addr();
      mem.warp_load(a, bytes);
      ref.request(a, bytes, 0);
    } else if (op < 50) {
      const u64 a = pick_addr();
      mem.warp_store(a, bytes);
      ref.request(a, bytes, 1);
    } else if (op < 70) {
      const u64 a = pick_addr();
      mem.warp_atomic(a, bytes);
      ref.request(a, bytes, 2);
    } else if (op < 95) {
      std::vector<u64> run(rng() % 6);
      for (u64& a : run) a = pick_addr();
      const bool atomic = op >= 85;
      if (atomic) {
        mem.warp_atomic_run(run, bytes);
      } else {
        mem.warp_load_run(run, bytes);
      }
      for (u64 a : run) ref.request(a, bytes, atomic ? 2 : 0);
    } else {
      const u64 a = pick_addr();
      mem.engine_read(a, bytes);
      ref.engine_read(a, bytes);
    }
  }
  EXPECT_EQ(mem.stats(), ref.stats())
      << arch.name << " seed " << seed << (high_addresses ? " (high addresses)" : "");
  // Spell out the fields a failure most likely touches.
  for (usize c = 0; c < mem.stats().channels.size(); ++c) {
    EXPECT_EQ(mem.stats().channels[c].busy_ns, ref.stats().channels[c].busy_ns)
        << arch.name << " seed " << seed << " channel " << c;
  }
  EXPECT_EQ(mem.stats().l2, ref.stats().l2) << arch.name << " seed " << seed;
  return mem.stats().l2;
}

/// Four streams, half of them above 2^40; returns the summed evictions.
u64 check_arch(const ArchConfig& arch) {
  u64 evictions = 0;
  for (u64 seed = 1; seed <= 4; ++seed) {
    evictions += run_stream(arch, seed, /*high_addresses=*/seed % 2 == 0).evictions;
  }
  return evictions;
}

TEST(LineWalk, MatchesSectorReferenceOnGv100) { check_arch(ArchConfig::gv100()); }

TEST(LineWalk, MatchesSectorReferenceOnTu116) {
  const ArchConfig arch = ArchConfig::tu116();
  ASSERT_EQ(arch.pseudo_channels, 24);
  check_arch(arch);
}

TEST(LineWalk, MatchesSectorReferenceOnA100) {
  const ArchConfig arch = ArchConfig::a100();
  ASSERT_EQ(arch.pseudo_channels, 80);
  check_arch(arch);
}

TEST(LineWalk, MatchesSectorReferenceWithNonPowerOfTwoSets) {
  // The evaluation L2 shape: 284 sets of 16 ways, smaller than the
  // streams' footprint, so the reciprocal set index and LRU eviction run.
  ArchConfig arch = ArchConfig::gv100();
  arch.l2_bytes = 284 * 16 * 128;
  EXPECT_GT(check_arch(arch), 0u) << "streams must outgrow the L2";
}

TEST(LineWalk, MatchesSectorReferenceUnderDirtyEvictions) {
  // 2 ways x 4 sets: nearly every allocation evicts, most evictions
  // write back, so writeback-vs-fill event order is exercised.
  ArchConfig arch = ArchConfig::gv100();
  arch.name = "tiny-l2";
  arch.l2_ways = 2;
  arch.l2_bytes = 2 * 4 * 128;
  for (u64 seed = 1; seed <= 4; ++seed) {
    EXPECT_GT(run_stream(arch, seed, seed % 2 == 0).writebacks, 1000u)
        << "stream must force writebacks";
  }
}

}  // namespace
}  // namespace nmdt
