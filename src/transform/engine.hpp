// The near-memory CSC→DCSR conversion engine (paper Sec. 4.2).
//
// Functional model of the walk-through in Fig. 13 / datapath in Fig. 14:
//  (1) per-lane frontier_ptr initialized from CSC col_ptr (boundary_ptr
//      holds col_ptr of the next column),
//  (2) the comparator tree finds the minimum row coordinate across lane
//      frontiers and the bitvector of lanes holding it,
//  (3) those lanes' elements are emitted as one DCSR row (row_idx = min
//      coordinate, row_ptr incremented by popcount, col_idx = lane ids),
//      and their frontiers advance,
//  (4) repeat until every lane passes the tile's row range.
//
// One engine step ⇔ one emitted DCSR row ⇔ one pipeline beat of
// cycle_ns (0.588 ns single precision, Sec. 5.3), which is the paper's
// worst-case throughput anchor (one 8-byte element per beat = the
// 13.6 GB/s a pseudo channel can deliver).
//
// The engine reads DRAM directly (it sits beside the memory controller)
// and streams its output to the requesting SM across the crossbar; both
// are accounted in the supplied MemorySystem.
#pragma once

#include <algorithm>
#include <span>

#include "formats/csc.hpp"
#include "formats/dcsc.hpp"
#include "formats/tiling.hpp"
#include "gpusim/memory_system.hpp"
#include "transform/hw_model.hpp"

namespace nmdt {

/// Device placement of the CSC arrays (for DRAM traffic attribution).
struct CscDeviceLayout {
  u64 col_ptr_base = 0;
  u64 row_idx_base = 0;
  u64 val_base = 0;

  /// Allocate the three arrays in `mem` for matrix `csc` (value array
  /// sized at the stored element width sizeof(V)).
  template <class V>
  static CscDeviceLayout allocate(const CscT<V>& csc, MemorySystem& mem);
};

struct EngineStats {
  u64 requests = 0;         ///< GetDCSRTile invocations
  u64 steps = 0;            ///< comparator beats = DCSR rows emitted
  u64 elements = 0;         ///< non-zeros converted
  u64 comparator_ops = 0;
  i64 dram_bytes_in = 0;    ///< CSC data pulled from DRAM
  i64 xbar_bytes_out = 0;   ///< DCSR tiles delivered to SMs

  bool operator==(const EngineStats&) const = default;

  EngineStats& operator+=(const EngineStats& o);

  /// Engine busy time under the Sec. 5.3 pipeline model.
  double busy_ns(const EngineHwModel& hw) const;
};

/// Per-strip conversion cursor: the col_frontier of Fig. 11/13, absolute
/// indices into the CSC row_idx/val arrays, one per lane.  Sequential
/// tile requests down a strip resume from where the previous request
/// stopped — the stateful-but-cheap design the CSC baseline enables.
class StripCursor {
 public:
  /// Open strip `strip_id` of `csc`: frontier[l] = col_ptr[c0 + l].
  /// The cursor holds indices only, so one cursor type serves every
  /// value precision.
  template <class V>
  StripCursor(const CscT<V>& csc, index_t strip_id, const TilingSpec& spec);

  index_t strip_id() const { return strip_id_; }
  index_t col_begin() const { return col_begin_; }
  int lanes() const { return static_cast<int>(frontier_.size()); }

  std::span<index_t> frontier() { return frontier_; }
  std::span<const index_t> boundary() const { return boundary_; }

  /// First row the next tile request may start at (tile requests must
  /// walk down the strip monotonically — the stateful-conversion
  /// contract of Sec. 4.1).
  index_t watermark() const { return watermark_; }
  void advance_watermark(index_t row_end) { watermark_ = std::max(watermark_, row_end); }

  /// Resumable cursor state (boundary_ is immutable, so frontier and
  /// watermark are the whole story).  Recovery paths snapshot before a
  /// tile conversion and restore to re-run it after an integrity
  /// failure.  The frontier copy lives in caller-provided storage of
  /// lanes() entries (arena scratch on the conversion path), so taking
  /// a snapshot allocates nothing.
  struct Snapshot {
    index_t watermark = 0;
    std::span<const index_t> frontier;
  };
  Snapshot save(std::span<index_t> storage) const {
    std::copy(frontier_.begin(), frontier_.end(), storage.begin());
    return {watermark_, storage.first(frontier_.size())};
  }
  void restore(const Snapshot& s) {
    watermark_ = s.watermark;
    std::copy(s.frontier.begin(), s.frontier.end(), frontier_.begin());
  }

 private:
  index_t strip_id_;
  index_t col_begin_;
  index_t watermark_ = 0;
  std::vector<index_t> frontier_;  ///< next unconsumed element per lane
  std::vector<index_t> boundary_;  ///< col_ptr of the following column
};

/// One conversion engine instance (there is one per pseudo channel in
/// the full system; EngineStats aggregates whatever work the caller
/// routes to this instance).
class ConversionEngine {
 public:
  explicit ConversionEngine(EngineHwModel hw = EngineHwModel{});

  const EngineHwModel& hw() const { return hw_; }
  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

  /// Convert rows [row_start, row_start + spec.tile_height) of the
  /// cursor's strip into a DCSR tile with tile-local coordinates
  /// (GetDCSRTile of Fig. 11).  Advances the cursor.  `mem` (optional)
  /// receives DRAM/crossbar traffic using `layout` addresses; when
  /// `pinned_channel >= 0` the engine's DRAM reads are charged to that
  /// pseudo channel instead (strip data placed by a sched layout
  /// policy rather than globally interleaved — Sec. 6.1).
  /// `fault_attempt` keys the deterministic corruption injection (see
  /// fault/fault.hpp): retries of the same tile redraw the fault with a
  /// fresh attempt index.  Templated on the stored value type: the
  /// datapath moves indices and opaque value words, so the identical
  /// comparator walk serves every precision — only the element width
  /// (and hence DRAM/crossbar byte counts) changes.
  template <class V>
  DcsrTileT<V> convert_tile(const CscT<V>& csc, StripCursor& cursor, index_t row_start,
                            const TilingSpec& spec, MemorySystem* mem = nullptr,
                            const CscDeviceLayout* layout = nullptr,
                            int pinned_channel = -1, int fault_attempt = 0);

  /// convert_tile into a caller-owned tile: `out` is cleared and
  /// refilled, retaining its vectors' capacity, and all transient
  /// scratch comes from the thread-local ConversionArena — so a caller
  /// that reuses one tile across a strip (the online kernel) performs
  /// zero steady-state heap allocations per tile.  Identical output and
  /// simulated accounting to convert_tile (which is now a thin wrapper
  /// over this).
  template <class V>
  void convert_tile_into(DcsrTileT<V>& out, const CscT<V>& csc, StripCursor& cursor,
                         index_t row_start, const TilingSpec& spec,
                         MemorySystem* mem = nullptr,
                         const CscDeviceLayout* layout = nullptr,
                         int pinned_channel = -1, int fault_attempt = 0);

  /// convert_tile plus the consumption-point integrity check (CRC32 +
  /// structural validate) and bounded recovery: on a mismatch the strip
  /// cursor is rewound and the tile reconverted, up to
  /// fault::kMaxRetries times, with the engine's simulated counters and
  /// DRAM/crossbar traffic pinned to the first attempt so a recovered
  /// run is bit-identical to a fault-free one.  Throws FaultError when
  /// the retry budget is exhausted.
  template <class V>
  DcsrTileT<V> convert_tile_checked(const CscT<V>& csc, StripCursor& cursor,
                                    index_t row_start, const TilingSpec& spec,
                                    MemorySystem* mem = nullptr,
                                    const CscDeviceLayout* layout = nullptr,
                                    int pinned_channel = -1);

  /// convert_tile_checked into a caller-owned tile (see
  /// convert_tile_into).  The cursor-snapshot recovery path is
  /// preserved: each retry rewinds the cursor AND refills `out` from a
  /// fresh arena scope, with engine stats pinned to attempt 0, so a
  /// recovered tile is bit-identical to a fault-free conversion.
  template <class V>
  void convert_tile_checked_into(DcsrTileT<V>& out, const CscT<V>& csc,
                                 StripCursor& cursor, index_t row_start,
                                 const TilingSpec& spec, MemorySystem* mem = nullptr,
                                 const CscDeviceLayout* layout = nullptr,
                                 int pinned_channel = -1);

  /// Convert an entire strip tile-by-tile (convenience for offline
  /// comparisons and tests).
  template <class V>
  std::vector<DcsrTileT<V>> convert_strip(const CscT<V>& csc, index_t strip_id,
                                          const TilingSpec& spec,
                                          MemorySystem* mem = nullptr,
                                          const CscDeviceLayout* layout = nullptr);

  /// Sec. 4.1 wide-matrix path: convert one *horizontal* strip of a CSR
  /// matrix into DCSC tiles.  The CSR matrix is the CSC of its
  /// transpose, so the identical datapath serves both directions; only
  /// the output labelling differs.
  template <class V>
  std::vector<DcscTileT<V>> convert_strip_dcsc(const CsrT<V>& csr, index_t strip_id,
                                               const TilingSpec& spec);

 private:
  EngineHwModel hw_;
  EngineStats stats_;
};

}  // namespace nmdt
