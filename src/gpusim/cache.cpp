#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

#include "gpusim/fastmod.hpp"
#include "util/error.hpp"

namespace nmdt {

L2Cache::L2Cache(const ArchConfig& arch)
    : ways_(arch.l2_ways),
      sector_bytes_(arch.l2_sector_bytes),
      sectors_per_line_(arch.l2_line_bytes / arch.l2_sector_bytes),
      line_shift_(std::countr_zero(static_cast<u32>(arch.l2_line_bytes))),
      sector_shift_(std::countr_zero(static_cast<u32>(arch.l2_sector_bytes))),
      line_mask_(static_cast<u64>(arch.l2_line_bytes) - 1) {
  arch.validate();
  num_sets_ = static_cast<int>(arch.l2_bytes / (static_cast<i64>(ways_) * arch.l2_line_bytes));
  NMDT_CHECK_CONFIG(num_sets_ > 0, "L2 must have at least one set");
  NMDT_CHECK_CONFIG(sectors_per_line_ <= 32, "sector bitmap limited to 32 sectors");
  set_reciprocal_ = fastmod_constant(static_cast<u32>(num_sets_));
  const usize n = static_cast<usize>(num_sets_) * ways_;
  tags_.assign(n, 0);
  stamps_.assign(n, 0);
  valid_sectors_.assign(n, 0);
  dirty_sectors_.assign(n, 0);
}

void L2Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(valid_sectors_.begin(), valid_sectors_.end(), 0);
  std::fill(dirty_sectors_.begin(), dirty_sectors_.end(), 0);
  stats_ = CacheStats{};
  access_clock_ = 0;
}

u32 L2Cache::set_of(u64 line_addr) const {
  const u32 sets = static_cast<u32>(num_sets_);
  if (line_addr >> 32 == 0) {
    return fastmod_u32(static_cast<u32>(line_addr), set_reciprocal_, sets);
  }
  return static_cast<u32>(line_addr % sets);
}

L2Cache::LineResult L2Cache::access_line(u64 line_addr, u32 sector_mask, bool is_write) {
  const int n = std::popcount(sector_mask);
  stats_.accesses += static_cast<u64>(n);
  access_clock_ += static_cast<u64>(n);
  LineResult res;

  const usize base = static_cast<usize>(set_of(line_addr)) * static_cast<usize>(ways_);
  const u64 tag = line_addr + 1;
  const u64* tags = &tags_[base];

  // Lookup.
  for (int w = 0; w < ways_; ++w) {
    if (tags[w] == tag) {
      const usize i = base + static_cast<usize>(w);
      stamps_[i] = access_clock_;
      res.miss_sectors = sector_mask & ~valid_sectors_[i];
      const int misses = std::popcount(res.miss_sectors);
      stats_.sector_hits += static_cast<u64>(n - misses);
      stats_.sector_misses += static_cast<u64>(misses);
      valid_sectors_[i] |= sector_mask;
      if (is_write) dirty_sectors_[i] |= sector_mask;
      return res;
    }
  }

  // Miss: the first sector allocates the line (evicting the LRU way), so
  // every later sector of the mask finds it resident but unfilled.
  stats_.sector_misses += static_cast<u64>(n);
  const u64* stamps = &stamps_[base];
  int victim = 0;
  for (int w = 1; w < ways_; ++w) {
    if (stamps[w] < stamps[victim]) victim = w;
  }
  const usize i = base + static_cast<usize>(victim);
  if (tags_[i] != 0) {
    ++stats_.evictions;
    if (dirty_sectors_[i] != 0) {
      ++stats_.writebacks;
      res.writeback_bytes = static_cast<i64>(std::popcount(dirty_sectors_[i])) * sector_bytes_;
    }
  }
  tags_[i] = tag;
  stamps_[i] = access_clock_;
  valid_sectors_[i] = sector_mask;
  dirty_sectors_[i] = is_write ? sector_mask : 0;
  res.miss_sectors = sector_mask;
  return res;
}

}  // namespace nmdt
