// Division-free remainder by a divisor fixed at construction time
// (Lemire, Kaser & Kurz, "Faster remainder by direct computation",
// 2019).  The L2 set index and the channel hash take a remainder by a
// geometry constant on every simulated access; evaluation L2s have a
// non-power-of-two set count and channel counts are 24, 64 or 80, so a
// mask does not do, and a 64-bit `div` dominates the lookup.
#pragma once

#include "util/types.hpp"

namespace nmdt {

/// Constant for fastmod_u32 by `d` (1 <= d < 2^32): ceil(2^64 / d).
inline u64 fastmod_constant(u32 d) { return ~u64{0} / d + 1; }

/// `a % d` for every 32-bit `a`, given `c = fastmod_constant(d)`.
inline u32 fastmod_u32(u32 a, u64 c, u32 d) {
  const u64 low = c * a;
  return static_cast<u32>((static_cast<unsigned __int128>(low) * d) >> 64);
}

}  // namespace nmdt
