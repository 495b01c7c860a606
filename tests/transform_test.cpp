// Conversion-engine tests: the comparator tree must match a linear
// scan exactly (including tie bitvectors), and the engine's online
// tiles must be bit-identical to offline tiled DCSR, with the paper's
// throughput/area/energy accounting reproduced.
#include <gtest/gtest.h>

#include <limits>

#include "formats/convert.hpp"
#include "formats/footprint.hpp"
#include "matgen/generators.hpp"
#include "transform/comparator.hpp"
#include "transform/engine.hpp"
#include "transform/hw_model.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

// ---------------------------------------------------------------------
// Comparator tree (Fig. 15).
// ---------------------------------------------------------------------

TEST(Comparator, PaperExampleTie) {
  // Fig. 15(b): COOR0 == COOR2 minimum → min[3:0] = 0101b.
  const std::vector<index_t> coords{5, 9, 5, 7};
  const std::vector<u8> valid{1, 1, 1, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_TRUE(r.any_valid);
  EXPECT_EQ(r.min_coord, 5);
  EXPECT_EQ(r.lane_mask, 0b0101u);
}

TEST(Comparator, SingleMinimumAtLastLane) {
  // Fig. 15(b): COOR3 smallest → min[3:0] = 1000b.
  const std::vector<index_t> coords{5, 9, 6, 2};
  const std::vector<u8> valid{1, 1, 1, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.min_coord, 2);
  EXPECT_EQ(r.lane_mask, 0b1000u);
}

TEST(Comparator, InvalidLanesNeverWin) {
  const std::vector<index_t> coords{1, 2, 3, 4};
  const std::vector<u8> valid{0, 1, 0, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.min_coord, 2);
  EXPECT_EQ(r.lane_mask, 0b0010u);
}

TEST(Comparator, AllInvalid) {
  const std::vector<index_t> coords{1, 2};
  const std::vector<u8> valid{0, 0};
  EXPECT_FALSE(comparator_tree_min(coords, valid).any_valid);
}

TEST(Comparator, EmptyInput) {
  EXPECT_FALSE(comparator_tree_min({}, {}).any_valid);
}

TEST(Comparator, SixtyFourLanesAllTied) {
  std::vector<index_t> coords(64, 7);
  std::vector<u8> valid(64, 1);
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.lane_mask, ~u64{0});
  EXPECT_EQ(r.comparator_ops, 63u);
}

TEST(Comparator, RejectsTooManyLanes) {
  std::vector<index_t> coords(65, 0);
  std::vector<u8> valid(65, 1);
  EXPECT_THROW(comparator_tree_min(coords, valid), FormatError);
}

TEST(Comparator, StagesAreLog2) {
  EXPECT_EQ(comparator_stages(1), 0);
  EXPECT_EQ(comparator_stages(2), 1);
  EXPECT_EQ(comparator_stages(4), 2);
  EXPECT_EQ(comparator_stages(64), 6);
  EXPECT_EQ(comparator_stages(33), 6);
}

TEST(Comparator, OpsAreLanesMinusOneWhateverTheValidBits) {
  // Every unit of an n-leaf tree fires once: n - 1 combines, for all
  // valid, all invalid or mixed lanes alike.
  Rng rng(99);
  for (int lanes = 1; lanes <= 64; ++lanes) {
    std::vector<index_t> coords(static_cast<usize>(lanes));
    for (auto& c : coords) c = static_cast<index_t>(rng.below(16));
    for (const double p_valid : {0.0, 0.5, 1.0}) {
      std::vector<u8> valid(static_cast<usize>(lanes));
      for (auto& v : valid) v = rng.chance(p_valid) ? 1 : 0;
      EXPECT_EQ(comparator_tree_min(coords, valid).comparator_ops,
                static_cast<u64>(lanes - 1))
          << lanes << " lanes, p_valid " << p_valid;
    }
  }
  EXPECT_EQ(comparator_tree_min({}, {}).comparator_ops, 0u);
}

TEST(Comparator, ExtremeCoordinatesNeverTieWithInvalidLanes) {
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  const std::vector<index_t> coords{kMax, 0, kMax, 3};
  const std::vector<u8> valid{1, 0, 1, 0};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_TRUE(r.any_valid);
  EXPECT_EQ(r.min_coord, kMax);
  EXPECT_EQ(r.lane_mask, 0b0101u);
}

class ComparatorProperty : public testing::TestWithParam<int> {};

TEST_P(ComparatorProperty, TreeMatchesLinearScanOnRandomInputs) {
  const int lanes = GetParam();
  Rng rng(1234 + lanes);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<index_t> coords(static_cast<usize>(lanes));
    std::vector<u8> valid(static_cast<usize>(lanes));
    // Every tenth trial has no valid lane; the rest mostly valid ones.
    const double p_valid = trial % 10 == 0 ? 0.0 : 0.8;
    for (int i = 0; i < lanes; ++i) {
      coords[i] = static_cast<index_t>(rng.below(8));  // small range forces ties
      valid[i] = rng.chance(p_valid) ? 1 : 0;
    }
    const MinReduceResult tree = comparator_tree_min(coords, valid);
    const MinReduceResult ref = linear_scan_min(coords, valid);
    EXPECT_EQ(tree.any_valid, ref.any_valid);
    EXPECT_EQ(tree.min_coord, ref.min_coord);
    EXPECT_EQ(tree.lane_mask, ref.lane_mask);
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, ComparatorProperty,
                         testing::Values(1, 2, 3, 4, 7, 8, 16, 31, 32, 33, 63, 64));

// ---------------------------------------------------------------------
// Conversion engine vs offline tiling.
// ---------------------------------------------------------------------

class EngineEquivalence
    : public testing::TestWithParam<std::tuple<int, int, double, int, int>> {};

TEST_P(EngineEquivalence, OnlineTilesBitIdenticalToOfflineTiledDcsr) {
  const auto [rows, cols, density, width, height] = GetParam();
  const Csr csr = gen_uniform(rows, cols, density, 500 + rows + cols);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
  const TiledDcsr offline = tiled_dcsr_from_csr(csr, spec);

  ConversionEngine engine;
  for (index_t s = 0; s < offline.num_strips(); ++s) {
    const std::vector<DcsrTile> online = engine.convert_strip(csc, s, spec);
    ASSERT_EQ(online.size(), offline.strips[s].size());
    for (usize t = 0; t < online.size(); ++t) {
      const Dcsr& a = online[t].body;
      const Dcsr& b = offline.strips[s][t].body;
      EXPECT_EQ(a.row_idx, b.row_idx) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.row_ptr, b.row_ptr) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.col_idx, b.col_idx) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.val, b.val) << "strip " << s << " tile " << t;
      EXPECT_EQ(online[t].row_begin, offline.strips[s][t].row_begin);
      EXPECT_EQ(online[t].col_begin, offline.strips[s][t].col_begin);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalence,
    testing::Values(std::make_tuple(64, 64, 0.05, 64, 64),
                    std::make_tuple(200, 130, 0.03, 64, 64),
                    std::make_tuple(128, 128, 0.2, 32, 16),
                    std::make_tuple(100, 100, 0.01, 16, 100),
                    std::make_tuple(333, 77, 0.05, 64, 64),
                    std::make_tuple(64, 64, 0.0, 64, 64)));

TEST(Engine, WalkThroughExampleFig13) {
  // Fig. 13: a 5-row, 3-column strip with columns
  //   col0: a0@r0, a2@r2, a4@r4 ; col1: b0@r0, b1@r1, b4@r4 ; col2: c0@r0, c2@r2.
  Coo coo;
  coo.rows = 5;
  coo.cols = 3;
  coo.push(0, 0, 10);  // a0
  coo.push(2, 0, 12);  // a2
  coo.push(4, 0, 14);  // a4
  coo.push(0, 1, 20);  // b0
  coo.push(1, 1, 21);  // b1
  coo.push(4, 1, 24);  // b4
  coo.push(0, 2, 30);  // c0
  coo.push(2, 2, 32);  // c2
  const Csc csc = csc_from_coo(coo);

  ConversionEngine engine;
  const TilingSpec spec{3, 5};
  const std::vector<DcsrTile> tiles = engine.convert_strip(csc, 0, spec);
  ASSERT_EQ(tiles.size(), 1u);
  const Dcsr& d = tiles[0].body;
  // Paper's resulting DCSR: rows {0,1,2,4}; row 0 = a0,b0,c0; row 1 = b1;
  // row 2 = a2,c2; row 4 = a4,b4.
  EXPECT_EQ(d.row_idx, (std::vector<index_t>{0, 1, 2, 4}));
  EXPECT_EQ(d.row_ptr, (std::vector<index_t>{0, 3, 4, 6, 8}));
  EXPECT_EQ(d.col_idx, (std::vector<index_t>{0, 1, 2, 1, 0, 2, 0, 1}));
  EXPECT_EQ(d.val, (std::vector<value_t>{10, 20, 30, 21, 12, 32, 14, 24}));
  // 4 emitted DCSR rows = 4 comparator beats; 8 elements consumed.
  EXPECT_EQ(engine.stats().steps, 4u);
  EXPECT_EQ(engine.stats().elements, 8u);
}

TEST(Engine, SequentialCursorSpansTiles) {
  const Csr csr = gen_uniform(300, 64, 0.05, 42);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  StripCursor cursor(csc, 0, spec);
  i64 total = 0;
  for (index_t r0 = 0; r0 < csr.rows; r0 += spec.tile_height) {
    total += engine.convert_tile(csc, cursor, r0, spec).nnz();
  }
  EXPECT_EQ(total, csr.nnz());
}

TEST(Engine, StatsBytesMatchElementCounts) {
  const Csr csr = gen_uniform(128, 64, 0.05, 43);
  const Csc csc = csc_from_csr(csr);
  ConversionEngine engine;
  const TilingSpec spec{64, 64};
  engine.convert_strip(csc, 0, spec);
  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.elements, static_cast<u64>(csc.nnz()));
  // Input = 8 B per element + col_ptr of the strip (65 entries).
  EXPECT_EQ(s.dram_bytes_in, csc.nnz() * 8 + 65 * 4);
  EXPECT_GT(s.xbar_bytes_out, csc.nnz() * 8);  // payload + DCSR metadata
}

TEST(Engine, TrafficAccountedInMemorySystem) {
  const Csr csr = gen_uniform(128, 128, 0.05, 44);
  const Csc csc = csc_from_csr(csr);
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const CscDeviceLayout layout = CscDeviceLayout::allocate(csc, mem);
  ConversionEngine engine;
  const TilingSpec spec{64, 64};
  for (index_t s = 0; s < spec.num_strips(csc.cols); ++s) {
    engine.convert_strip(csc, s, spec, &mem, &layout);
  }
  EXPECT_EQ(mem.stats().total_dram_bytes(), engine.stats().dram_bytes_in);
  EXPECT_EQ(mem.stats().xbar_bytes, engine.stats().xbar_bytes_out);
}

TEST(Engine, OutOfOrderCursorThrows) {
  const Csr csr = gen_uniform(256, 64, 0.1, 45);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  StripCursor cursor(csc, 0, spec);
  engine.convert_tile(csc, cursor, 0, spec);
  engine.convert_tile(csc, cursor, 64, spec);
  // Rewinding to an earlier tile with an advanced cursor is a misuse.
  EXPECT_THROW(engine.convert_tile(csc, cursor, 0, spec), FormatError);
}

TEST(Engine, InvalidStripThrows) {
  const Csr csr = gen_uniform(64, 64, 0.1, 46);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  EXPECT_THROW(StripCursor(csc, 5, spec), FormatError);
}

// ---------------------------------------------------------------------
// Section 5.3 hardware model.
// ---------------------------------------------------------------------

TEST(HwModel, PipelineMeetsHbm2Delivery) {
  const EngineHwModel hw;
  // 13.6 GB/s delivers 8 B every 0.588 ns; worst stage 0.339 ns fits.
  EXPECT_TRUE(hw.pipeline_meets_throughput(false));
  EXPECT_TRUE(hw.pipeline_meets_throughput(true));
  EXPECT_NEAR(8.0 / hw.cycle_ns_sp, 13.6, 0.01);   // GB/s equivalent
  EXPECT_NEAR(12.0 / hw.cycle_ns_dp, 13.6, 0.01);
}

TEST(HwModel, BufferHidesSupplyLatency) {
  const EngineHwModel hw;
  // 256 B/lane must cover the 3.3 + 15 ns supply latency (paper: hides
  // 18.8 ns) in both precisions.
  EXPECT_GE(hw.buffer_coverage_ns(false), hw.latency_to_hide_ns());
  EXPECT_GE(hw.buffer_coverage_ns(true), hw.latency_to_hide_ns());
  EXPECT_EQ(hw.buffer_bytes_total(), 16 * 1024);  // 16 KiB per engine
}

TEST(HwModel, Gv100AreaAndPowerMatchPaper) {
  const EngineSystemCosts c = engine_system_costs(EngineHwModel{}, ArchConfig::gv100());
  EXPECT_EQ(c.engines, 64);
  EXPECT_NEAR(c.total_area_mm2, 4.9, 0.05);           // 64 × 0.077
  EXPECT_NEAR(c.area_fraction_of_die, 0.006, 0.0005); // 0.6% of 815 mm²
  EXPECT_NEAR(c.peak_power_w_sp, 0.68, 0.01);
  EXPECT_NEAR(c.peak_power_w_dp, 0.51, 0.01);
  EXPECT_NEAR(c.power_fraction_of_tdp, 0.0027, 0.0002);  // 0.27% of TDP
  EXPECT_NEAR(c.power_fraction_of_idle, 0.0296, 0.003);  // 2.96% of idle
}

TEST(HwModel, Tu116ScalingMatchesPaper) {
  const EngineSystemCosts c = engine_system_costs(EngineHwModel{}, ArchConfig::tu116());
  EXPECT_EQ(c.engines, 24);
  EXPECT_NEAR(c.total_area_mm2, 1.85, 0.01);          // 24 × 0.077
  EXPECT_NEAR(c.area_fraction_of_die, 0.0065, 0.0003);  // 0.65% of 284 mm²
}

TEST(HwModel, BusyTimeScalesWithSteps) {
  EngineStats s;
  s.steps = 1000;
  EXPECT_NEAR(s.busy_ns(EngineHwModel{}), 588.0, 1e-9);
}

}  // namespace
}  // namespace nmdt
