// Steady-state allocation contract of the conversion engine: once a
// strip has warmed the thread-local ConversionArena and the caller's
// reused tile, converting a strip through convert_tile_checked_into
// performs zero heap allocations — the per-step comparator, the tile
// scratch and the recovery snapshot all avoid operator new.
//
// This binary replaces the global operator new to count calls, so the
// test lives alone rather than beside the other transform tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "formats/convert.hpp"
#include "matgen/generators.hpp"
#include "transform/arena.hpp"
#include "transform/engine.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<unsigned long> g_news{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) g_news.fetch_add(1);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line, so GCC does not pair an inlined free() with a new
// expression and warn about a mismatch these replacements rule out.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nmdt {
namespace {

TEST(ConversionAlloc, WarmStripConvertsWithoutHeapAllocation) {
  const Csr A = gen_powerlaw_rows(1024, 256, 0.05, 1.2, 3);
  const Csc csc = csc_from_csr(A);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  DcsrTile tile;
  u64 elements = 0;
  const auto convert_strip = [&](StripCursor& cursor) {
    for (index_t row_start = 0; row_start < csc.rows; row_start += spec.tile_height) {
      engine.convert_tile_checked_into(tile, csc, cursor, row_start, spec);
      elements += static_cast<u64>(tile.nnz());
    }
  };
  // Warm-up: the arena grows its chunks and the tile its capacity.
  ConversionArena::local().reset();
  StripCursor warm(csc, 0, spec);
  convert_strip(warm);
  const u64 warm_elements = elements;

  // The cursor owns its lane vectors, so it is built before counting.
  ConversionArena::local().reset();
  StripCursor cursor(csc, 0, spec);
  g_news = 0;
  g_counting = true;
  convert_strip(cursor);
  g_counting = false;
  EXPECT_EQ(g_news.load(), 0u);
  EXPECT_GT(warm_elements, 0u);
  EXPECT_EQ(elements, 2 * warm_elements);  // the strip really converted twice
}

}  // namespace
}  // namespace nmdt
