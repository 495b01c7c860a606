// Operand bundles consumed by the SpMM kernels.
//
// A kernel never converts its sparse operand: the bundle must already
// carry the format it consumes, or the kernel fails NMDT_REQUIRE (as it
// does for a tiled artifact built under another TilingSpec than the
// run's).  Complete bundles come from an SpmmPlan (core/plan.hpp), which
// converts every format once, or from operands_for (kernels/spmm.hpp),
// which builds what one kernel needs — the legacy run_spmm entries and
// the Hong hybrid's heavy phase use it.  Bundle pointers are non-owning;
// the plan (or the KernelOperandsT and its CSR) outlives the call.
//
// The bundle is typed on the stored value precision V: every format in
// one bundle carries the same scalar type, so a kernel can never mix
// operands rounded at different precisions.
#pragma once

#include <optional>

#include "formats/csc.hpp"
#include "formats/csr.hpp"
#include "formats/dcsr.hpp"
#include "formats/tiling.hpp"

namespace nmdt {

template <class V>
struct SpmmOperandsT {
  const CsrT<V>* csr = nullptr;                ///< required
  const CscT<V>* csc = nullptr;                ///< online tiled-DCSR kernel
  const DcsrT<V>* dcsr = nullptr;              ///< untiled DCSR kernels
  const TiledDcsrT<V>* tiled_dcsr = nullptr;   ///< offline B-stationary arm
  const TiledCsrT<V>* tiled_csr = nullptr;     ///< tiled-CSR strawman, A-stationary
  const StripNnz* strip_nnz = nullptr;         ///< B-stationary strip-skip table

  /// CSR-only bundle: complete for the CSR kernels and the Hong hybrid.
  static SpmmOperandsT from_csr(const CsrT<V>& a) {
    SpmmOperandsT ops;
    ops.csr = &a;
    return ops;
  }
};

/// Default-precision alias; existing f32 call sites use this name.
using SpmmOperands = SpmmOperandsT<value_t>;

/// Owning storage for the formats one kernel consumes beyond CSR (built
/// by operands_for); the CSR operand itself stays the caller's.
template <class V>
struct KernelOperandsT {
  const CsrT<V>* csr = nullptr;
  std::optional<CscT<V>> csc;
  std::optional<DcsrT<V>> dcsr;
  std::optional<TiledDcsrT<V>> tiled_dcsr;
  std::optional<TiledCsrT<V>> tiled_csr;
  std::optional<StripNnz> strip_nnz;

  /// View over the built formats (valid while this object lives).
  SpmmOperandsT<V> bundle() const {
    SpmmOperandsT<V> ops;
    ops.csr = csr;
    ops.csc = csc ? &*csc : nullptr;
    ops.dcsr = dcsr ? &*dcsr : nullptr;
    ops.tiled_dcsr = tiled_dcsr ? &*tiled_dcsr : nullptr;
    ops.tiled_csr = tiled_csr ? &*tiled_csr : nullptr;
    ops.strip_nnz = strip_nnz ? &*strip_nnz : nullptr;
    return ops;
  }
};

}  // namespace nmdt
