// Intra-kernel sharding support: shard-set choreography and the
// deterministic merge (see detail.hpp for the decomposition contract).
#include <algorithm>

#include "fault/fault.hpp"
#include "kernels/detail.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace nmdt::detail {

int shard_count(i64 items, i64 grain) {
  if (items <= 0) return 1;
  return static_cast<int>(std::clamp<i64>(items / grain, 1, kMaxKernelShards));
}

ShardRange shard_range(i64 items, int shards, int shard) {
  const i64 n = static_cast<i64>(shards);
  const i64 s = static_cast<i64>(shard);
  return {items * s / n, items * (s + 1) / n};
}

ShardSet::ShardSet(const SpmmConfig& cfg, i64 items, i64 grain) : items_(items) {
  const int n = shard_count(items, grain);
  ctxs_.reserve(static_cast<usize>(n));
  for (int s = 0; s < n; ++s) ctxs_.emplace_back(cfg);
}

void ShardSet::run(const std::function<void(int, ShardRange, Ctx&)>& body) {
  // jobs caps threads only; the shard set itself is already fixed.
  const int jobs = size() == 1 ? 1 : ctxs_.front().cfg.jobs;
  obs::TraceSpan span("shard_set");
  span.arg("shards", size()).arg("jobs", jobs).arg("items", items_);
  // Shard spans live on logical tracks derived from the *caller's*
  // track and the shard index — never from the executing OS thread —
  // so the merged trace is identical run-to-run at any job count.
  // run_indexed re-installs the caller's CancelToken on its workers and
  // polls before every shard claim, so a cancelled kernel unwinds at
  // shard granularity; per-tile polling inside the conversion engine
  // tightens that further for the online kernel.
  const u64 parent_track = obs::TraceTrack::current();
  run_indexed(jobs, size(), [&](i64 s) {
    const int shard = static_cast<int>(s);
    // Transient-failure injection point, before the shard touches its
    // Ctx: a recovered retry re-enters a completely clean shard.
    fault::transient_point(fault::FaultSite::kShardExec,
                           fault::mix(static_cast<u64>(s), static_cast<u64>(items_)));
    const ShardRange r = range(shard);
    obs::TraceTrack track(parent_track, "shard", static_cast<u64>(s));
    obs::TraceSpan sp("shard");
    Ctx& ctx = ctxs_[static_cast<usize>(s)];
    body(shard, r, ctx);
    // Arg values are computed at the call site even when no trace
    // session is installed, and total_dram_bytes() walks every channel
    // — skip the whole emission when nobody is listening (the
    // counting-mode fast path runs with tracing off).
    if (sp.enabled()) {
      sp.arg("shard", shard)
          .arg("begin", r.begin)
          .arg("end", r.end)
          .arg("instr", ctx.counters.total_instr())
          .arg("dram_bytes", ctx.mem.stats().total_dram_bytes());
    }
  });
}

Ctx& ShardSet::merge() {
  NMDT_TRACE_SCOPE("shard_merge");
  for (usize s = 1; s < ctxs_.size(); ++s) {
    ctxs_[0].counters += ctxs_[s].counters;
    ctxs_[0].mem.merge(ctxs_[s].mem);
  }
  return ctxs_[0];
}

template <class T>
void accumulate_dense(DenseMatrixT<T>& dst, const DenseMatrixT<T>& src) {
  const auto s = src.data();
  auto d = dst.data();
  for (usize i = 0; i < d.size(); ++i) d[i] += s[i];
}

template <class T>
PartialCT<T>::PartialCT(std::span<const index_t> row_ptr, std::span<const index_t> col_idx,
                        index_t cols, index_t strip_width, const ShardSet& shards)
    : rows_(static_cast<index_t>(row_ptr.size()) - 1),
      cols_(cols),
      touched_(static_cast<usize>(rows_), 0),
      shards_(static_cast<usize>(shards.size())) {
  static_assert(kMaxKernelShards < 32, "touched-row masks are 32 bits wide");
  NMDT_TRACE_SCOPE("partial_c_rows");
  // Column → shard through the strip each column belongs to.
  std::vector<u8> strip_shard;
  for (int s = 0; s < shards.size(); ++s) {
    const ShardRange r = shards.range(s);
    strip_shard.resize(static_cast<usize>(r.end), static_cast<u8>(s));
  }
  for (index_t r = 0; r < rows_; ++r) {
    u32 mask = 0;
    for (index_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
      mask |= u32{1} << strip_shard[static_cast<usize>(col_idx[j] / strip_width)];
    }
    touched_[static_cast<usize>(r)] = mask;
    for (; mask != 0; mask &= mask - 1) ++lowest(mask).slots_;
  }
}

template <class T>
typename PartialCT<T>::Shard& PartialCT<T>::open(int s) {
  Shard& sh = shards_[static_cast<usize>(s)];
  sh.cols_ = static_cast<usize>(cols_);
  sh.slot_.resize(static_cast<usize>(rows_));
  index_t next = 0;
  for (index_t r = 0; r < rows_; ++r) {
    const bool touched = touched_[static_cast<usize>(r)] >> s & 1;
    sh.slot_[static_cast<usize>(r)] = touched ? next++ : sh.slots_;
  }
  sh.data_.assign(static_cast<usize>(sh.slots_) * sh.cols_, T{});
  return sh;
}

template <class T>
DenseMatrixT<T> PartialCT<T>::take(int jobs) {
  NMDT_TRACE_SCOPE("partial_c_reduce");
  // Rows no shard touches keep this +0.0 fill, which is what the sum
  // of all-zero partials gives.
  DenseMatrixT<T> out(rows_, cols_, T{});
  const u32 all = (u32{1} << shards_.size()) - 1;
  const usize k = static_cast<usize>(cols_);
  constexpr i64 kRowBlock = 128;
  const i64 blocks = (static_cast<i64>(rows_) + kRowBlock - 1) / kRowBlock;
  run_indexed(jobs, blocks, [&](i64 b) {
    const index_t end = static_cast<index_t>(std::min<i64>((b + 1) * kRowBlock, rows_));
    for (index_t r = static_cast<index_t>(b * kRowBlock); r < end; ++r) {
      u32 mask = touched_[static_cast<usize>(r)];
      if (mask == 0) continue;
      T* NMDT_RESTRICT dst = out.row(r).data();
      const T* NMDT_RESTRICT first = lowest(mask).row(r);
      // A skipped shard's +0.0, added once (see the class comment).
      if (mask != all) {
        for (usize i = 0; i < k; ++i) dst[i] = first[i] + T{0};
      } else {
        std::copy(first, first + k, dst);
      }
      for (mask &= mask - 1; mask != 0; mask &= mask - 1) {
        const T* NMDT_RESTRICT src = lowest(mask).row(r);
        for (usize i = 0; i < k; ++i) dst[i] += src[i];
      }
    }
  });
  shards_.clear();
  return out;
}

// Compute precisions only: bf16 accumulates in f32, so the partial-C
// machinery never holds bf16 elements.
template void accumulate_dense(DenseMatrixT<float>&, const DenseMatrixT<float>&);
template void accumulate_dense(DenseMatrixT<double>&, const DenseMatrixT<double>&);
template class PartialCT<float>;
template class PartialCT<double>;

}  // namespace nmdt::detail
