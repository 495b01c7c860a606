#include "gpusim/dram.hpp"

#include <bit>

#include "util/error.hpp"

namespace nmdt {

DramChannelSim::DramChannelSim(const ArchConfig& arch)
    : row_shift_(std::countr_zero(static_cast<u64>(arch.dram_row_bytes))),
      bank_shift_(std::countr_zero(static_cast<u32>(arch.dram_banks_per_channel))),
      bank_mask_(static_cast<u64>(arch.dram_banks_per_channel) - 1),
      ns_per_byte_(1.0 / arch.bw_per_channel_gbps),
      miss_penalty_ns_(arch.dram_row_miss_penalty_ns / arch.dram_bank_parallelism) {
  arch.validate();  // power-of-two rows and banks: decode by shift and mask
  open_row_.assign(static_cast<usize>(arch.dram_banks_per_channel), ~u64{0});
}

void DramChannelSim::access(u64 addr, i64 bytes) {
  if (bytes <= 0) return;
  busy_ns_ += static_cast<double>(bytes) * ns_per_byte_;
  const u64 global_row = addr >> row_shift_;
  const usize bank = static_cast<usize>(global_row & bank_mask_);
  const u64 row = global_row >> bank_shift_;
  if (open_row_[bank] == row) {
    ++row_hits_;
  } else {
    ++row_misses_;
    open_row_[bank] = row;
    busy_ns_ += miss_penalty_ns_;
  }
}

void DramChannelSim::stream(i64 bytes) {
  if (bytes <= 0) return;
  busy_ns_ += static_cast<double>(bytes) * ns_per_byte_;
  ++row_hits_;
}

void DramChannelSim::reset() {
  busy_ns_ = 0.0;
  row_hits_ = 0;
  row_misses_ = 0;
  open_row_.assign(open_row_.size(), ~u64{0});
}

}  // namespace nmdt
