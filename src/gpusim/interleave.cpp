#include "gpusim/interleave.hpp"

#include <bit>

namespace nmdt {

Interleaver::Interleaver(const ArchConfig& arch)
    : channels_(arch.pseudo_channels),
      partitions_(arch.fb_partitions),
      channels_per_partition_(arch.pseudo_channels / arch.fb_partitions) {
  arch.validate();  // interleave_bytes is a power of two
  granule_shift_ = std::countr_zero(static_cast<u64>(arch.interleave_bytes));
  channel_reciprocal_ = fastmod_constant(static_cast<u32>(channels_));
}

}  // namespace nmdt
