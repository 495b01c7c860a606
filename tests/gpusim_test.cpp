// GPU-model tests: architecture presets, interleaver bijectivity,
// sectored-L2 behaviour (hits, sector fills, LRU eviction, writeback),
// memory-system accounting, warp-issue helpers, and the timing model.
#include <gtest/gtest.h>

#include <map>

#include "gpusim/cache.hpp"
#include "gpusim/interleave.hpp"
#include "gpusim/memory_system.hpp"
#include "gpusim/timing.hpp"
#include "gpusim/warp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

TEST(Arch, Gv100PresetMatchesPaperNumbers) {
  const ArchConfig c = ArchConfig::gv100();
  EXPECT_EQ(c.num_sms, 80);
  EXPECT_EQ(c.pseudo_channels, 64);
  EXPECT_NEAR(c.total_bandwidth_gbps(), 870.4, 0.1);  // 64 × 13.6
  EXPECT_EQ(c.l2_bytes, 6144 * 1024);
  EXPECT_EQ(c.shared_mem_per_sm, 96 * 1024);
  EXPECT_NEAR(c.die_area_mm2, 815.0, 1e-9);
  EXPECT_NEAR(c.tdp_watts, 250.0, 1e-9);
}

TEST(Arch, Tu116PresetMatchesPaperNumbers) {
  const ArchConfig c = ArchConfig::tu116();
  EXPECT_EQ(c.pseudo_channels, 24);
  EXPECT_NEAR(c.total_bandwidth_gbps(), 288.0, 0.1);  // 24 × 12
  EXPECT_NEAR(c.die_area_mm2, 284.0, 1e-9);
}

TEST(Arch, ValidateRejectsBadGeometry) {
  ArchConfig c = ArchConfig::gv100();
  c.l2_line_bytes = 100;  // not a multiple of sector
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.interleave_bytes = 100;  // not a power of two
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.fb_partitions = 7;  // does not divide 64 channels
  EXPECT_THROW(c.validate(), ConfigError);
}

// The cache-sim line walk decodes by shift and mask and books a whole
// line against one channel and one DRAM row; validate() enforces the
// geometry that makes that exact.
TEST(Arch, ValidateRequiresPowerOfTwoLineSectorRowAndBanks) {
  ArchConfig c = ArchConfig::gv100();
  c.l2_line_bytes = 96;  // a multiple of the 32 B sector, not a power of two
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.l2_line_bytes = 96;
  c.l2_sector_bytes = 24;
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.dram_row_bytes = 3072;
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.dram_banks_per_channel = 12;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Arch, ValidateRequiresLineWithinInterleaveGranule) {
  ArchConfig c = ArchConfig::gv100();
  c.interleave_bytes = 64;  // a power of two, but smaller than a 128 B line
  EXPECT_THROW(c.validate(), ConfigError);
  c.interleave_bytes = 128;
  EXPECT_NO_THROW(c.validate());
}

TEST(Arch, ValidateRequiresLineWithinDramRow) {
  ArchConfig c = ArchConfig::gv100();
  c.dram_row_bytes = 64;  // a power of two, but smaller than a 128 B line
  EXPECT_THROW(c.validate(), ConfigError);
  c.dram_row_bytes = 128;
  EXPECT_NO_THROW(c.validate());
}

TEST(Interleaver, StableWithinGranuleAndDeterministic) {
  const Interleaver il(ArchConfig::gv100());
  EXPECT_EQ(il.granule_bytes(), 256);
  // All addresses within one granule map to one channel, and the
  // mapping is a pure function of the address.
  EXPECT_EQ(il.channel_of(0), il.channel_of(255));
  EXPECT_EQ(il.channel_of(4096), il.channel_of(4096 + 100));
  EXPECT_EQ(il.channel_of(12345), il.channel_of(12345));
}

TEST(Interleaver, HashSpreadsSequentialStream) {
  const Interleaver il(ArchConfig::gv100());
  std::map<int, i64> hits;
  const i64 granules = 64 * 256;
  for (u64 a = 0; a < static_cast<u64>(granules) * 256; a += 256) {
    ++hits[il.channel_of(a)];
  }
  ASSERT_EQ(hits.size(), 64u);
  for (const auto& [ch, n] : hits) {
    EXPECT_GT(n, 256 / 2) << "channel " << ch;
    EXPECT_LT(n, 256 * 2) << "channel " << ch;
  }
}

TEST(Interleaver, HashSpreadsPowerOfTwoStrides) {
  // The motivating case for hashing: a 2^k stride must not camp on a
  // subset of channels.
  const Interleaver il(ArchConfig::gv100());
  std::map<int, i64> hits;
  for (u64 i = 0; i < 4096; ++i) ++hits[il.channel_of(i * 64 * 256)];
  EXPECT_GT(hits.size(), 48u);
}

TEST(Interleaver, PartitionGroupsConsecutiveChannels) {
  const Interleaver il(ArchConfig::gv100());
  // 64 channels / 8 partitions = 8 channels per partition.
  EXPECT_EQ(il.partition_of_channel(0), 0);
  EXPECT_EQ(il.partition_of_channel(7), 0);
  EXPECT_EQ(il.partition_of_channel(8), 1);
  EXPECT_EQ(il.partition_of_channel(63), 7);
}

TEST(L2Cache, SectorFillOnFirstTouchThenHit) {
  L2Cache l2(ArchConfig::gv100());
  const auto miss = l2.access(0x1000, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.dram_read_bytes, 32);
  const auto hit = l2.access(0x1000, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.dram_read_bytes, 0);
}

TEST(L2Cache, ResidentLineMissingSectorCostsOnlySectorFill) {
  L2Cache l2(ArchConfig::gv100());
  l2.access(0x1000, false);            // sector 0 of the line
  const auto r = l2.access(0x1020, false);  // sector 1, same 128B line
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.dram_read_bytes, 32);
  EXPECT_EQ(l2.stats().evictions, 0u);  // no new line allocated
}

TEST(L2Cache, LruEvictionWithinSet) {
  ArchConfig small = ArchConfig::gv100();
  small.l2_bytes = 2 * 128 * 4;  // 2 ways, 4 sets
  small.l2_ways = 2;
  L2Cache l2(small);
  ASSERT_EQ(l2.num_sets(), 4);
  const u64 set_stride = 4 * 128;  // same set every 512 bytes
  l2.access(0 * set_stride, false);   // way 0
  l2.access(1 * set_stride, false);   // way 1
  l2.access(0 * set_stride, false);   // refresh line A
  l2.access(2 * set_stride, false);   // evicts line B (LRU)
  const auto a = l2.access(0 * set_stride, false);
  EXPECT_TRUE(a.hit) << "most recently used line must survive";
  const auto b = l2.access(1 * set_stride, false);
  EXPECT_FALSE(b.hit) << "LRU victim must have been evicted";
}

TEST(L2Cache, DirtyEvictionWritesBack) {
  ArchConfig small = ArchConfig::gv100();
  small.l2_bytes = 1 * 128 * 2;  // 1 way, 2 sets
  small.l2_ways = 1;
  L2Cache l2(small);
  const u64 set_stride = 2 * 128;
  l2.access(0, true);  // dirty
  const auto evict = l2.access(set_stride, false);  // same set, evicts
  EXPECT_EQ(evict.dram_write_bytes, 32);
  EXPECT_EQ(l2.stats().writebacks, 1u);
}

TEST(L2Cache, AccessLineBooksEverySectorOfTheMask) {
  L2Cache l2(ArchConfig::gv100());
  // Allocating a line misses every masked sector.
  auto r = l2.access_line(0x40, 0b1011, /*is_write=*/true);
  EXPECT_EQ(r.miss_sectors, 0b1011u);
  EXPECT_EQ(r.writeback_bytes, 0);
  EXPECT_EQ(l2.stats().accesses, 3u);
  EXPECT_EQ(l2.stats().sector_misses, 3u);
  // On a resident line only the unfilled sectors miss.
  r = l2.access_line(0x40, 0b0110, /*is_write=*/false);
  EXPECT_EQ(r.miss_sectors, 0b0100u);
  EXPECT_EQ(l2.stats().accesses, 5u);
  EXPECT_EQ(l2.stats().sector_hits, 1u);
  EXPECT_EQ(l2.stats().sector_misses, 4u);
  EXPECT_EQ(l2.stats().evictions, 0u);
}

TEST(L2Cache, AccessLineEvictsOnceAndWritesBackDirtySectors) {
  ArchConfig small = ArchConfig::gv100();
  small.l2_bytes = 1 * 128 * 2;  // 1 way, 2 sets
  small.l2_ways = 1;
  L2Cache l2(small);
  l2.access_line(0, 0b0011, /*is_write=*/true);  // two dirty sectors
  const auto r = l2.access_line(2, 0b1111, /*is_write=*/false);  // same set
  EXPECT_EQ(r.miss_sectors, 0b1111u);
  EXPECT_EQ(r.writeback_bytes, 64);
  EXPECT_EQ(l2.stats().evictions, 1u);
  EXPECT_EQ(l2.stats().writebacks, 1u);
}

TEST(L2Cache, ResetClearsState) {
  L2Cache l2(ArchConfig::gv100());
  l2.access(0x1000, false);
  l2.reset();
  EXPECT_EQ(l2.stats().accesses, 0u);
  EXPECT_FALSE(l2.access(0x1000, false).hit);
}

TEST(MemorySystem, AllocationsDoNotShareGranules) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 a = mem.allocate(100, "a");
  const u64 b = mem.allocate(100, "b");
  EXPECT_GE(b - a, 256u);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
}

TEST(MemorySystem, CountingModeChargesSectorGranularity) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 base = mem.allocate(4096, "x");
  mem.warp_load(base, 4);  // 4 bytes still occupy one 32 B sector
  EXPECT_EQ(mem.stats().total_dram_bytes(), 32);
  mem.warp_load(base + 32, 64);  // spans exactly two sectors
  EXPECT_EQ(mem.stats().total_dram_bytes(), 32 + 64);
}

TEST(MemorySystem, AtomicsChargedDouble) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 base = mem.allocate(4096, "c");
  mem.warp_atomic(base, 32);
  i64 atomic_bytes = 0;
  for (const auto& ch : mem.stats().channels) atomic_bytes += ch.atomic_bytes;
  EXPECT_EQ(atomic_bytes, 64);  // 32 bytes × 2 (Table 1 atomic model)
}

TEST(MemorySystem, CacheModeFiltersRepeatedLoads) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCacheSim);
  const u64 base = mem.allocate(4096, "b");
  mem.warp_load(base, 128);
  const i64 first = mem.stats().total_dram_bytes();
  mem.warp_load(base, 128);  // all hits
  EXPECT_EQ(mem.stats().total_dram_bytes(), first);
  EXPECT_GT(mem.stats().l2.sector_hits, 0u);
}

TEST(MemorySystem, EngineReadsExactBytesOnAddressedChannel) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const int ch = mem.interleaver().channel_of(256);
  mem.engine_read(256, 8);  // exact bytes, no sector inflation
  EXPECT_EQ(mem.stats().channels[ch].read_bytes, 8);
  const int other = ch == 5 ? 6 : 5;
  mem.engine_read_channel(other, 100);
  EXPECT_EQ(mem.stats().channels[other].read_bytes, 100);
  EXPECT_THROW(mem.engine_read_channel(64, 1), FormatError);
}

TEST(MemorySystem, MaxPartitionBytesGroupsChannels) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.engine_read_channel(0, 100);
  mem.engine_read_channel(7, 100);   // same partition as channel 0
  mem.engine_read_channel(8, 50);    // partition 1
  EXPECT_EQ(mem.stats().max_partition_bytes(8), 200);
  EXPECT_EQ(mem.stats().max_channel_bytes(), 100);
}

TEST(MemorySystem, ResetStats) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.warp_load(mem.allocate(64, "x"), 64);
  mem.xbar_transfer(10);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().total_dram_bytes(), 0);
  EXPECT_EQ(mem.stats().xbar_bytes, 0);
}

TEST(Warp, IssueClampsAndCountsLaneSlots) {
  KernelCounters c;
  const ArchConfig arch = ArchConfig::gv100();
  issue(c, arch, InstrClass::kFp, 20);
  EXPECT_EQ(c.fp_instr, 1u);
  EXPECT_EQ(c.lane_slots_active, 20u);
  EXPECT_EQ(c.lane_slots_inactive, 12u);
  issue(c, arch, InstrClass::kControl, 100);  // clamped to warp size
  EXPECT_EQ(c.lane_slots_active, 52u);
}

TEST(Warp, IssueWavesSplitsRemainder) {
  KernelCounters c;
  const ArchConfig arch = ArchConfig::gv100();
  issue_waves(c, arch, InstrClass::kMemory, 70);  // 2 full waves + 6 lanes
  EXPECT_EQ(c.memory_instr, 3u);
  EXPECT_EQ(c.lane_slots_active, 70u);
  EXPECT_EQ(c.lane_slots_inactive, 3u * 32 - 70u);
}

TEST(Warp, IssueWavesZeroElementsNoOp) {
  KernelCounters c;
  issue_waves(c, ArchConfig::gv100(), InstrClass::kMemory, 0);
  EXPECT_EQ(c.total_instr(), 0u);
}

TEST(Counters, AccumulateAndInactiveFraction) {
  KernelCounters a, b;
  const ArchConfig arch = ArchConfig::gv100();
  issue(a, arch, InstrClass::kFp, 16);
  issue(b, arch, InstrClass::kInt, 32);
  a += b;
  EXPECT_EQ(a.total_instr(), 2u);
  EXPECT_NEAR(a.inactive_fraction(), 16.0 / 64.0, 1e-12);
}

TEST(Timing, MemoryBoundKernelAttributesStallsToMemory) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  c.kernel_launches = 1;
  issue(c, arch, InstrClass::kFp, 32, 1000);  // tiny compute
  MemStats mem;
  mem.channels.assign(64, {});
  mem.channels[0].read_bytes = 10'000'000;  // one hot channel
  const TimingBreakdown t = compute_timing(arch, c, mem);
  EXPECT_GT(t.memory_ns, t.compute_ns);
  EXPECT_NEAR(t.memory_ns, 10'000'000 / 13.6, 1.0);
  EXPECT_GT(t.frac_memory, 0.9);
  EXPECT_NEAR(t.frac_memory + t.frac_sm + t.frac_other, 1.0, 1e-12);
}

TEST(Timing, ComputeBoundKernelHasNoMemoryStall) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  issue(c, arch, InstrClass::kFp, 32, 100'000'000);
  MemStats mem;
  mem.channels.assign(64, {});
  mem.channels[0].read_bytes = 100;
  const TimingBreakdown t = compute_timing(arch, c, mem);
  EXPECT_DOUBLE_EQ(t.frac_memory, 0.0);
  EXPECT_GT(t.frac_sm, 0.99);
}

TEST(Timing, InflationStretchesComputeOnly) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  issue(c, arch, InstrClass::kFp, 32, 1000);
  MemStats mem;
  mem.channels.assign(64, {});
  const TimingBreakdown t1 = compute_timing(arch, c, mem, 1.0);
  const TimingBreakdown t2 = compute_timing(arch, c, mem, 2.0);
  EXPECT_NEAR(t2.compute_ns, 2.0 * t1.compute_ns, 1e-9);
  EXPECT_THROW(compute_timing(arch, c, mem, 0.5), ConfigError);
}

TEST(MemorySystem, OperandAttributionFollowsAllocations) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 a = mem.allocate(4096, "A.row_ptr");
  const u64 b = mem.allocate(4096, "B");
  const u64 c = mem.allocate(4096, "C");
  mem.warp_load(a, 64);
  mem.warp_load(b, 128);
  mem.warp_store(c, 32);
  mem.warp_atomic(c, 32);  // 2x
  const auto& ops = mem.stats().operand_bytes;
  EXPECT_EQ(ops.at("A"), 64);
  EXPECT_EQ(ops.at("B"), 128);
  EXPECT_EQ(ops.at("C"), 32 + 64);
  // Unmapped addresses attribute to "?" rather than a neighbour.
  mem.warp_load(c + (u64{1} << 40), 32);
  EXPECT_EQ(mem.stats().operand_bytes.at("?"), 32);
}

TEST(MemorySystem, EngineChannelReadsTagAsSparseInput) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.engine_read_channel(3, 100);
  EXPECT_EQ(mem.stats().operand_bytes.at("A"), 100);
}

TEST(MemStats, MergeAccumulatesEverything) {
  MemStats a, b;
  a.channels.assign(4, {});
  b.channels.assign(4, {});
  a.channels[1].read_bytes = 10;
  b.channels[1].read_bytes = 5;
  b.channels[2].atomic_bytes = 7;
  b.channels[2].busy_ns = 3.5;
  b.channels[2].row_misses = 2;
  a.xbar_bytes = 1;
  b.xbar_bytes = 2;
  b.l2.sector_hits = 9;
  b.l2_service_bytes = 64;
  a += b;
  EXPECT_EQ(a.channels[1].read_bytes, 15);
  EXPECT_EQ(a.channels[2].atomic_bytes, 7);
  EXPECT_DOUBLE_EQ(a.channels[2].busy_ns, 3.5);
  EXPECT_EQ(a.channels[2].row_misses, 2u);
  EXPECT_EQ(a.xbar_bytes, 3);
  EXPECT_EQ(a.l2.sector_hits, 9u);
  EXPECT_EQ(a.l2_service_bytes, 64);
}

TEST(MemorySystem, MergeFoldsPeerStatsIntoThis) {
  // The shard merge: two instances that replayed the same allocation
  // sequence, merged, must equal the elementwise sum of their stats.
  MemorySystem a(ArchConfig::gv100(), MemMode::kCounting);
  MemorySystem b(ArchConfig::gv100(), MemMode::kCounting);
  const u64 pa = a.allocate(4096, "X");
  const u64 pb = b.allocate(4096, "X");
  ASSERT_EQ(pa, pb);
  a.warp_load(pa, 128);
  b.warp_load(pb + 256, 64);
  b.warp_atomic(pb, 32);
  b.xbar_transfer(10);
  MemStats expected = a.stats();
  expected += b.stats();
  a.merge(b);
  EXPECT_EQ(a.stats(), expected);
}

TEST(MemorySystem, MergeRejectsModeMismatch) {
  MemorySystem a(ArchConfig::gv100(), MemMode::kCounting);
  MemorySystem b(ArchConfig::gv100(), MemMode::kCacheSim);
  EXPECT_THROW(a.merge(b), FormatError);
}

TEST(MemorySystem, WarpLoadRunMatchesPerEntryLoads) {
  // The batched API must be a pure event-coalescing change: same
  // addresses, same bytes, identical stats in both memory modes.
  for (MemMode mode : {MemMode::kCounting, MemMode::kCacheSim}) {
    MemorySystem per_entry(ArchConfig::gv100(), mode);
    MemorySystem batched(ArchConfig::gv100(), mode);
    const u64 base1 = per_entry.allocate(1 << 20, "B");
    const u64 base2 = batched.allocate(1 << 20, "B");
    ASSERT_EQ(base1, base2);
    std::vector<u64> addrs;
    for (u64 i = 0; i < 64; ++i) addrs.push_back(base1 + (i * 7919) % (1 << 19));
    addrs.push_back(addrs.front());  // repeat (cache-mode hit path)
    for (u64 addr : addrs) per_entry.warp_load(addr, 96);
    batched.warp_load_run(addrs, 96);
    EXPECT_EQ(per_entry.stats(), batched.stats()) << "mode " << static_cast<int>(mode);
  }
}

TEST(MemorySystem, WarpAtomicRunMatchesPerEntryAtomics) {
  for (MemMode mode : {MemMode::kCounting, MemMode::kCacheSim}) {
    MemorySystem per_entry(ArchConfig::gv100(), mode);
    MemorySystem batched(ArchConfig::gv100(), mode);
    const u64 base1 = per_entry.allocate(1 << 18, "C");
    const u64 base2 = batched.allocate(1 << 18, "C");
    ASSERT_EQ(base1, base2);
    std::vector<u64> addrs;
    for (u64 i = 0; i < 48; ++i) addrs.push_back(base1 + i * 1024 + (i % 3) * 8);
    for (u64 addr : addrs) per_entry.warp_atomic(addr, 256);
    batched.warp_atomic_run(addrs, 256);
    EXPECT_EQ(per_entry.stats(), batched.stats()) << "mode " << static_cast<int>(mode);
  }
}

TEST(MemorySystem, RunApisTolerateEmptyRuns) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.warp_load_run({}, 32);
  mem.warp_atomic_run({}, 32);
  EXPECT_EQ(mem.stats().total_dram_bytes(), 0);
}

TEST(MemStats, ServiceTimeTakesMaxOfTransferAndBusy) {
  MemStats s;
  s.channels.assign(2, {});
  s.channels[0].read_bytes = 1360;  // 100 ns at 13.6 B/ns
  s.channels[1].read_bytes = 136;   // 10 ns transfer...
  s.channels[1].busy_ns = 500.0;    // ...but bank model says 500 ns
  EXPECT_NEAR(s.max_channel_service_ns(13.6), 500.0, 1e-9);
  s.channels[1].busy_ns = 0.0;
  EXPECT_NEAR(s.max_channel_service_ns(13.6), 100.0, 1e-9);
}

TEST(Timing, LlcAtomicBandwidthTerm) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  MemStats mem;
  mem.channels.assign(64, {});
  mem.l2_service_bytes = 2'000'000'000;  // 2 GB through a 2000 GB/s LLC
  mem.atomic_rmw_bytes = 1'000'000'000;  // +1 GB of RMW at 2x
  const TimingBreakdown t = compute_timing(arch, c, mem);
  // (2e9 + 1e9 * (2-1)) / 2000 GB/s = 1.5e6 ns
  EXPECT_NEAR(t.llc_ns, 1.5e6, 1.0);
  EXPECT_NEAR(t.total_ns, 1.5e6, 1.0);
}

TEST(Timing, EngineBoundKernel) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  MemStats mem;
  mem.channels.assign(64, {});
  const TimingBreakdown t = compute_timing(arch, c, mem, 1.0, /*engine_ns=*/5000.0);
  EXPECT_NEAR(t.total_ns, 5000.0, 1e-9);
}

}  // namespace
}  // namespace nmdt
