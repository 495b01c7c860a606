// Sectored set-associative L2 cache model.
//
// NVIDIA L2s tag 128 B lines but fill 32 B sectors on demand; a miss on
// a resident line's missing sector costs a sector fill, not a line fill.
// Replacement is LRU per set.  This is the cache that gives C-stationary
// its "B strips can hit in LLC" advantage (Sec. 3.1.1) and that the
// paper's bandwidth simulation loads CSC metadata through (Sec. 5.1).
#pragma once

#include <vector>

#include "gpusim/arch.hpp"

namespace nmdt {

struct CacheStats {
  u64 accesses = 0;
  u64 sector_hits = 0;
  u64 sector_misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;

  bool operator==(const CacheStats&) const = default;

  double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(sector_hits) / accesses;
  }
};

class L2Cache {
 public:
  explicit L2Cache(const ArchConfig& arch);

  struct AccessResult {
    bool hit = false;
    i64 dram_read_bytes = 0;   ///< sector fill on miss
    i64 dram_write_bytes = 0;  ///< dirty eviction writeback
  };

  struct LineResult {
    u32 miss_sectors = 0;      ///< sectors to fill from DRAM, one fill each
    i64 writeback_bytes = 0;   ///< dirty eviction writeback (at most one)
  };

  /// Access the sectors `sector_mask` (bit i = sector i) of line
  /// `line_addr` (= address / l2_line_bytes) with one set lookup.
  /// Exactly equivalent to access() on each set bit in ascending order:
  /// the clock and `accesses` advance by popcount(mask), the line's LRU
  /// stamp is the final clock, a resident line hits popcount(mask &
  /// valid), and an allocated line misses every sector with at most one
  /// eviction.  `sector_mask` must be non-empty.
  LineResult access_line(u64 line_addr, u32 sector_mask, bool is_write);

  /// Access one sector-aligned address.
  AccessResult access(u64 addr, bool is_write) {
    const LineResult r = access_line(addr >> line_shift_,
                                     u32{1} << ((addr & line_mask_) >> sector_shift_), is_write);
    return {r.miss_sectors == 0, r.miss_sectors != 0 ? sector_bytes_ : 0, r.writeback_bytes};
  }

  const CacheStats& stats() const { return stats_; }

  void reset();

  int num_sets() const { return num_sets_; }
  int sectors_per_line() const { return sectors_per_line_; }

 private:
  u32 set_of(u64 line_addr) const;

  int ways_;
  int num_sets_;
  i64 sector_bytes_;
  int sectors_per_line_;
  int line_shift_;
  int sector_shift_;
  u64 line_mask_;
  u64 set_reciprocal_;  ///< fastmod constant: 2^64 / num_sets_ rounded up
  u64 access_clock_ = 0;
  // Struct-of-arrays, num_sets_ * ways_ each.  Tag = line_addr + 1, so 0
  // marks an invalid way; invalid ways keep stamp 0, below every valid
  // line's stamp, which makes the LRU victim the first minimum stamp.
  std::vector<u64> tags_;
  std::vector<u64> stamps_;
  std::vector<u32> valid_sectors_;
  std::vector<u32> dirty_sectors_;
  CacheStats stats_;
};

}  // namespace nmdt
