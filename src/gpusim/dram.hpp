// Per-pseudo-channel DRAM bank/row-buffer timing.
//
// A flat bytes/bandwidth model treats all access patterns alike; real
// HBM2 serves row-buffer hits at the pin rate but pays
// precharge+activate on row misses, partially hidden by bank-level
// parallelism.  This is exactly the axis the paper's formats sit on:
// the engine's CSC column walks are sequential (row-buffer friendly)
// while an SM chasing scattered B rows misses often.  The model keeps
// one open row per bank and accumulates channel busy time:
//
//   busy += bytes / pin_bandwidth  (+ row_miss_penalty / bank_parallelism on miss)
#pragma once

#include <vector>

#include "gpusim/arch.hpp"

namespace nmdt {

class DramChannelSim {
 public:
  explicit DramChannelSim(const ArchConfig& arch);

  /// Addressed access (row tracking at `dram_row_bytes` granularity).
  void access(u64 addr, i64 bytes);

  /// Sequential stream with guaranteed row locality (the engine's
  /// prefetch-buffered column bursts): pure transfer time.
  void stream(i64 bytes);

  double busy_ns() const { return busy_ns_; }
  u64 row_hits() const { return row_hits_; }
  u64 row_misses() const { return row_misses_; }
  double row_hit_rate() const {
    const u64 total = row_hits_ + row_misses_;
    return total == 0 ? 1.0 : static_cast<double>(row_hits_) / static_cast<double>(total);
  }

  void reset();

 private:
  int row_shift_;   ///< log2(dram_row_bytes)
  int bank_shift_;  ///< log2(dram_banks_per_channel)
  u64 bank_mask_;
  double ns_per_byte_;
  double miss_penalty_ns_;  ///< already divided by bank parallelism
  double busy_ns_ = 0.0;
  u64 row_hits_ = 0;
  u64 row_misses_ = 0;
  std::vector<u64> open_row_;  ///< per bank; sentinel ~0 = closed
};

}  // namespace nmdt
