#include "transform/comparator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace nmdt {

MinReduceResult comparator_tree_min(std::span<const index_t> coords,
                                    std::span<const u8> valid) {
  NMDT_REQUIRE(coords.size() == valid.size(), "coords/valid length mismatch");
  NMDT_REQUIRE(coords.size() <= 64, "comparator tree limited to 64 lanes");
  MinReduceResult res;
  const usize n = coords.size();
  if (n == 0) return res;
  // Each lane becomes one order-preserving key: the coordinate biased
  // into [0, 2^32) when valid, 2^32 when exhausted, so an invalid lane
  // loses to every valid one and never ties with it.  Minimum and tie
  // mask are associative, so two branch-free passes give the tree's
  // result without materializing its levels.
  constexpr u32 kBias = u32{1} << 31;
  constexpr u64 kInvalid = u64{1} << 32;
  const auto key = [&](usize i) -> u64 {
    return valid[i] != 0 ? u64{static_cast<u32>(coords[i]) ^ kBias} : kInvalid;
  };
  u64 min_key = kInvalid;
  for (usize i = 0; i < n; ++i) min_key = std::min(min_key, key(i));
  u64 mask = 0;
  for (usize i = 0; i < n; ++i) mask |= u64{key(i) == min_key} << i;
  res.any_valid = min_key != kInvalid;
  if (res.any_valid) {
    res.min_coord = static_cast<index_t>(static_cast<u32>(min_key) ^ kBias);
    res.lane_mask = mask;
  }
  // The Fig. 15b tree combines n leaves pairwise: n - 1 units fire
  // whatever the valid bits.
  res.comparator_ops = n - 1;
  return res;
}

MinReduceResult linear_scan_min(std::span<const index_t> coords,
                                std::span<const u8> valid) {
  NMDT_REQUIRE(coords.size() == valid.size(), "coords/valid length mismatch");
  NMDT_REQUIRE(coords.size() <= 64, "linear scan limited to 64 lanes");
  MinReduceResult res;
  index_t best = std::numeric_limits<index_t>::max();
  for (usize i = 0; i < coords.size(); ++i) {
    if (!valid[i]) continue;
    ++res.comparator_ops;
    if (!res.any_valid || coords[i] < best) {
      best = coords[i];
      res.lane_mask = u64{1} << i;
      res.any_valid = true;
    } else if (coords[i] == best) {
      res.lane_mask |= u64{1} << i;
    }
  }
  if (res.any_valid) res.min_coord = best;
  return res;
}

int comparator_stages(int lanes) {
  int stages = 0;
  int width = 1;
  while (width < lanes) {
    width *= 2;
    ++stages;
  }
  return stages;
}

namespace {

/// One element under the verdict semantics of ToleranceComparator::compare.
bool element_passes(double e, double a, double bound) {
  if (std::isnan(e)) return std::isnan(a);
  if (std::isinf(e)) return std::isinf(a) && std::signbit(a) == std::signbit(e);
  if (!std::isfinite(a)) return false;
  if (bound <= 0.0) {
    // No accumulation headroom: exact match (±0 conflate via ==, but a
    // bit-compare keeps -0 vs +0 from slipping through differently
    // signed non-zero patterns; == is the agreed semantics here).
    return e == a;
  }
  return std::abs(e - a) <= bound;
}

}  // namespace

template <class V>
std::vector<double> ToleranceComparator::row_scales(const CsrT<V>& A,
                                                    const DenseMatrixT<V>& B) {
  double max_b = 0.0;
  for (const V& v : B.data()) {
    const double b = std::abs(VTraits<V>::to_f64(v));
    if (b > max_b) max_b = b;
  }
  std::vector<double> scales(static_cast<usize>(A.rows), 0.0);
  for (index_t r = 0; r < A.rows; ++r) {
    const i64 nnz = A.row_ptr[r + 1] - A.row_ptr[r];
    double max_a = 0.0;
    for (index_t k = A.row_ptr[r]; k < A.row_ptr[r + 1]; ++k) {
      const double a = std::abs(VTraits<V>::to_f64(A.val[k]));
      if (a > max_a) max_a = a;
    }
    scales[static_cast<usize>(r)] = static_cast<double>(nnz) * max_a * max_b;
  }
  return scales;
}

ToleranceVerdict ToleranceComparator::compare(const DenseMatrixT<double>& expected,
                                              const DenseMatrixT<double>& actual,
                                              std::span<const double> row_scale) const {
  NMDT_REQUIRE(expected.rows() == actual.rows() && expected.cols() == actual.cols(),
               "tolerance compare: shape mismatch");
  NMDT_REQUIRE(static_cast<usize>(expected.rows()) == row_scale.size(),
               "tolerance compare: row_scale length mismatch");
  ToleranceVerdict v;
  const index_t K = expected.cols();
  for (index_t r = 0; r < expected.rows(); ++r) {
    const double max_val = row_scale[static_cast<usize>(r)];
    const double bound = eps_ > 0.0 ? eps_ * max_val : 0.0;
    const std::span<const double> e_row = expected.row(r);
    const std::span<const double> a_row = actual.row(r);
    for (index_t c = 0; c < K; ++c) {
      const double e = e_row[static_cast<usize>(c)];
      const double a = a_row[static_cast<usize>(c)];
      ++v.compared;
      if (max_val > 0.0 && std::isfinite(e) && std::isfinite(a)) {
        const double rel = std::abs(e - a) / max_val;
        if (rel > v.max_rel_error) v.max_rel_error = rel;
      }
      if (!element_passes(e, a, bound)) {
        if (v.mismatched == 0) {
          v.first_row = r;
          v.first_col = c;
          v.first_expected = e;
          v.first_actual = a;
        }
        ++v.mismatched;
      }
    }
  }
  v.pass = v.mismatched == 0;
  return v;
}

template std::vector<double> ToleranceComparator::row_scales(const CsrT<float>&,
                                                             const DenseMatrixT<float>&);
template std::vector<double> ToleranceComparator::row_scales(const CsrT<double>&,
                                                             const DenseMatrixT<double>&);
template std::vector<double> ToleranceComparator::row_scales(const CsrT<bf16_t>&,
                                                             const DenseMatrixT<bf16_t>&);

}  // namespace nmdt
