#pragma once

/// \file simd.h
/// Portable 4-lane double vectors for the batched mechanism kernels.
///
/// The hot reductions of one mechanism round — S = sum 1/b_j, the actual and
/// reported latencies sum e_j x_j^2 / sum b_j x_j^2, and the leave-one-out
/// plane R^2 / (S - 1/b_i) — are all elementwise arithmetic plus ordered
/// sums over contiguous planes (DESIGN.md §12).  This header gives those
/// kernels one vector type with two interchangeable backends:
///
///   * AVX2 (`LBMV_SIMD=1`, selected at configure time via the LBMV_SIMD
///     CMake option, which also adds -mavx2): DVec wraps __m256d;
///   * scalar fallback (`LBMV_SIMD=0`): DVec is a plain double[4] with the
///     same per-lane operations.
///
/// The two backends are *bit-identical*, not merely close: every operation
/// here is a lane-wise IEEE-754 add/sub/mul/div or compare, which AVX2
/// defines to be exactly the scalar operation applied per lane, and the
/// horizontal sum fixes one association, (l0 + l1) + (l2 + l3).  No FMA is
/// used anywhere (contraction would make results depend on the backend and
/// on compiler flags).  Kernels built on these primitives therefore produce
/// the same bits under LBMV_SIMD=ON and =OFF; only throughput differs.
/// Differential tests exploit this: the ulp contract of the vectorized round
/// engine is stated against the scalar *kernels* (a different association),
/// not against the fallback backend.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#ifndef LBMV_SIMD
#define LBMV_SIMD 0
#endif

#if LBMV_SIMD
#include <immintrin.h>
#endif

namespace lbmv::util::simd {

/// Lane count is fixed at 4 for both backends so blocking, tail handling and
/// reduction trees — and therefore results — do not depend on the backend.
inline constexpr std::size_t kLanes = 4;

/// Whether the AVX2 backend was compiled in (LBMV_SIMD CMake option).
inline constexpr bool kAvx2 = static_cast<bool>(LBMV_SIMD);

/// Human-readable backend tag for obs / bench output.
[[nodiscard]] inline const char* backend_name() {
  return kAvx2 ? "avx2" : "scalar-4lane";
}

#if LBMV_SIMD

struct DVec {
  __m256d v;
};

[[nodiscard]] inline DVec load(const double* p) {
  return {_mm256_loadu_pd(p)};
}
inline void store(double* p, DVec a) { _mm256_storeu_pd(p, a.v); }
[[nodiscard]] inline DVec set1(double x) { return {_mm256_set1_pd(x)}; }
[[nodiscard]] inline DVec zero() { return {_mm256_setzero_pd()}; }
[[nodiscard]] inline DVec add(DVec a, DVec b) {
  return {_mm256_add_pd(a.v, b.v)};
}
[[nodiscard]] inline DVec sub(DVec a, DVec b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
[[nodiscard]] inline DVec mul(DVec a, DVec b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
[[nodiscard]] inline DVec div(DVec a, DVec b) {
  return {_mm256_div_pd(a.v, b.v)};
}

/// Lane-wise IEEE negation (a sign flip: -x, which differs from 0.0 - x at
/// signed zeros, and the generic path uses the former).
[[nodiscard]] inline DVec neg(DVec a) {
  return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
}

/// Lane-wise square root.  VSQRTPD and std::sqrt are both IEEE-754 correctly
/// rounded, so the backends stay bit-identical.
[[nodiscard]] inline DVec sqrt(DVec a) { return {_mm256_sqrt_pd(a.v)}; }

/// True when every lane satisfies a > b (ordered: NaN lanes fail).
[[nodiscard]] inline bool all_greater(DVec a, DVec b) {
  const __m256d m = _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  return _mm256_movemask_pd(m) == 0xF;
}

/// Lane mask: all-ones where a > b holds (ordered — NaN lanes come back
/// clear), zero elsewhere.  Hot loops AND-accumulate these and test once
/// per block (mask_all_true) instead of branching per step, which keeps
/// validity tracking to one uop per check per iteration.
[[nodiscard]] inline DVec mask_greater(DVec a, DVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}

/// Bitwise AND of two lane masks.
[[nodiscard]] inline DVec mask_and(DVec a, DVec b) {
  return {_mm256_and_pd(a.v, b.v)};
}

/// The identity for mask_and: every lane all-ones.
[[nodiscard]] inline DVec mask_all() {
  return {_mm256_castsi256_pd(_mm256_set1_epi64x(-1))};
}

/// True when every lane's sign bit survives — for AND-accumulated compare
/// masks, "every compare held" (movemask semantics: sign bits only).
[[nodiscard]] inline bool mask_all_true(DVec m) {
  return _mm256_movemask_pd(m.v) == 0xF;
}
/// The lane masks' sign bits as a 4-bit integer, lane i in bit i.
[[nodiscard]] inline unsigned mask_bits(DVec m) {
  return static_cast<unsigned>(_mm256_movemask_pd(m.v));
}

/// Lane-wise maximum with the scalar rule `a > b ? a : b` (matches
/// _mm256_max_pd: on a NaN lane the second operand is returned, and
/// max(+0, -0) follows the operand order, not IEEE maxNum).
[[nodiscard]] inline DVec max(DVec a, DVec b) {
  // MAXPD returns the second operand on NaN lanes and on ties (including
  // +0/-0), which is exactly the ternary above lane-wise.
  return {_mm256_max_pd(a.v, b.v)};
}

/// Lane-wise blend by mask sign bit: lane i of the result is a[i] where
/// m[i]'s sign bit is set (compare held), b[i] elsewhere.  With masks from
/// mask_greater this is the vector form of `m ? a : b`.
[[nodiscard]] inline DVec select(DVec m, DVec a, DVec b) {
  return {_mm256_blendv_pd(b.v, a.v, m.v)};
}

[[nodiscard]] inline double lane(DVec a, std::size_t i) {
  alignas(32) double tmp[kLanes];
  _mm256_store_pd(tmp, a.v);
  return tmp[i];
}

/// Interleaving scatter store: six field vectors become four consecutive
/// 6-double records, dst[6*j + k] = lane j of field k.  This is the
/// transpose an AoS publish needs — four 6-field rows are 24 contiguous
/// doubles — expressed as four unaligned 4-wide stores (fields 0..3 of each
/// row, via a 4x4 transpose) plus four 2-wide stores (fields 4..5) instead
/// of 24 scalar ones.  Pure data movement, so both backends place identical
/// bits.
inline void store_records6(double* dst, DVec f0, DVec f1, DVec f2, DVec f3,
                           DVec f4, DVec f5) {
  const __m256d t0 = _mm256_unpacklo_pd(f0.v, f1.v);  // f0[0] f1[0] f0[2] f1[2]
  const __m256d t1 = _mm256_unpackhi_pd(f0.v, f1.v);  // f0[1] f1[1] f0[3] f1[3]
  const __m256d t2 = _mm256_unpacklo_pd(f2.v, f3.v);
  const __m256d t3 = _mm256_unpackhi_pd(f2.v, f3.v);
  _mm256_storeu_pd(dst + 0, _mm256_permute2f128_pd(t0, t2, 0x20));
  _mm256_storeu_pd(dst + 6, _mm256_permute2f128_pd(t1, t3, 0x20));
  _mm256_storeu_pd(dst + 12, _mm256_permute2f128_pd(t0, t2, 0x31));
  _mm256_storeu_pd(dst + 18, _mm256_permute2f128_pd(t1, t3, 0x31));
  const __m256d u0 = _mm256_unpacklo_pd(f4.v, f5.v);  // f4[0] f5[0] f4[2] f5[2]
  const __m256d u1 = _mm256_unpackhi_pd(f4.v, f5.v);  // f4[1] f5[1] f4[3] f5[3]
  _mm_storeu_pd(dst + 4, _mm256_castpd256_pd128(u0));
  _mm_storeu_pd(dst + 10, _mm256_castpd256_pd128(u1));
  _mm_storeu_pd(dst + 16, _mm256_extractf128_pd(u0, 1));
  _mm_storeu_pd(dst + 22, _mm256_extractf128_pd(u1, 1));
}

#else  // scalar fallback: identical per-lane IEEE arithmetic

struct DVec {
  double v[kLanes];
};

[[nodiscard]] inline DVec load(const double* p) {
  return {{p[0], p[1], p[2], p[3]}};
}
inline void store(double* p, DVec a) {
  for (std::size_t i = 0; i < kLanes; ++i) p[i] = a.v[i];
}
[[nodiscard]] inline DVec set1(double x) { return {{x, x, x, x}}; }
[[nodiscard]] inline DVec zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
[[nodiscard]] inline DVec add(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
[[nodiscard]] inline DVec sub(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
[[nodiscard]] inline DVec mul(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
[[nodiscard]] inline DVec div(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}

/// Lane-wise IEEE negation (a sign flip: -x, which differs from 0.0 - x at
/// signed zeros, and the generic path uses the former).
[[nodiscard]] inline DVec neg(DVec a) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = -a.v[i];
  return r;
}

/// Lane-wise square root.  VSQRTPD and std::sqrt are both IEEE-754 correctly
/// rounded, so the backends stay bit-identical.
[[nodiscard]] inline DVec sqrt(DVec a) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}

[[nodiscard]] inline bool all_greater(DVec a, DVec b) {
  bool ok = true;
  for (std::size_t i = 0; i < kLanes; ++i) ok = ok && (a.v[i] > b.v[i]);
  return ok;
}

/// Lane mask: all-ones where a > b holds (ordered — NaN lanes come back
/// clear), zero elsewhere.  Bit patterns, not values: lanes are reinterpreted
/// as uint64 so the emulation matches AVX2's compare-mask bits exactly.
[[nodiscard]] inline DVec mask_greater(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = std::bit_cast<double>(a.v[i] > b.v[i] ? ~std::uint64_t{0}
                                                   : std::uint64_t{0});
  }
  return r;
}

/// Bitwise AND of two lane masks.
[[nodiscard]] inline DVec mask_and(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[i]) &
                                   std::bit_cast<std::uint64_t>(b.v[i]));
  }
  return r;
}

/// The identity for mask_and: every lane all-ones.
[[nodiscard]] inline DVec mask_all() {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = std::bit_cast<double>(~std::uint64_t{0});
  }
  return r;
}

/// True when every lane's sign bit survives — for AND-accumulated compare
/// masks, "every compare held" (movemask semantics: sign bits only).
[[nodiscard]] inline bool mask_all_true(DVec m) {
  bool ok = true;
  for (std::size_t i = 0; i < kLanes; ++i) {
    ok = ok && (std::bit_cast<std::uint64_t>(m.v[i]) >> 63) != 0;
  }
  return ok;
}
/// The lane masks' sign bits as a 4-bit integer, lane i in bit i.
[[nodiscard]] inline unsigned mask_bits(DVec m) {
  unsigned bits = 0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    bits |= static_cast<unsigned>(std::bit_cast<std::uint64_t>(m.v[i]) >> 63)
            << i;
  }
  return bits;
}

/// Lane-wise maximum with the scalar rule `a > b ? a : b` (matches
/// _mm256_max_pd: on a NaN lane the second operand is returned, and
/// max(+0, -0) follows the operand order, not IEEE maxNum).
[[nodiscard]] inline DVec max(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  }
  return r;
}

/// Lane-wise blend by mask sign bit: lane i of the result is a[i] where
/// m[i]'s sign bit is set (compare held), b[i] elsewhere.  With masks from
/// mask_greater this is the vector form of `m ? a : b`.
[[nodiscard]] inline DVec select(DVec m, DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] =
        (std::bit_cast<std::uint64_t>(m.v[i]) >> 63) != 0 ? a.v[i] : b.v[i];
  }
  return r;
}

[[nodiscard]] inline double lane(DVec a, std::size_t i) { return a.v[i]; }

/// Interleaving scatter store: six field vectors become four consecutive
/// 6-double records, dst[6*j + k] = lane j of field k.  Pure data movement,
/// same bits as the AVX2 backend's transposed stores.
inline void store_records6(double* dst, DVec f0, DVec f1, DVec f2, DVec f3,
                           DVec f4, DVec f5) {
  const DVec* f[6] = {&f0, &f1, &f2, &f3, &f4, &f5};
  for (std::size_t j = 0; j < kLanes; ++j) {
    for (std::size_t k = 0; k < 6; ++k) dst[6 * j + k] = f[k]->v[j];
  }
}

#endif

/// Horizontal sum with one fixed association, (l0 + l1) + (l2 + l3), so the
/// reduction tree is part of the kernel contract rather than backend whim.
[[nodiscard]] inline double hsum(DVec a) {
  return (lane(a, 0) + lane(a, 1)) + (lane(a, 2) + lane(a, 3));
}

// ---- one-lane forms -------------------------------------------------------
//
// The same ops on a plain double, so a kernel written once as a template
// over its lane type T compiles for T = DVec (four agents or candidates per
// instruction) and T = double (one — the scalar tails and the scalar
// oracles).  Each is the identical IEEE operation, so both instantiations
// of one template produce the same bits per lane.  A one-lane mask is a
// bool.

[[nodiscard]] inline double add(double a, double b) { return a + b; }
[[nodiscard]] inline double sub(double a, double b) { return a - b; }
[[nodiscard]] inline double mul(double a, double b) { return a * b; }
[[nodiscard]] inline double div(double a, double b) { return a / b; }
[[nodiscard]] inline double neg(double a) { return -a; }
[[nodiscard]] inline double sqrt(double a) { return std::sqrt(a); }
[[nodiscard]] inline bool mask_greater(double a, double b) { return a > b; }
[[nodiscard]] inline bool mask_and(bool a, bool b) { return a && b; }
[[nodiscard]] inline bool mask_all_true(bool m) { return m; }
inline void store(double* p, double a) { *p = a; }

/// The lane mask type of T: DVec for DVec, bool for double.
template <typename T>
using Mask = decltype(mask_greater(T{}, T{}));

/// \p x in every lane of a T.
template <typename T>
[[nodiscard]] inline T splat(double x) {
  if constexpr (std::is_same_v<T, double>) {
    return x;
  } else {
    return set1(x);
  }
}

/// The T starting at \p p (one double, or four contiguous ones).
template <typename T>
[[nodiscard]] inline T load_as(const double* p) {
  if constexpr (std::is_same_v<T, double>) {
    return *p;
  } else {
    return load(p);
  }
}

/// A mask of T with every lane set: the identity for mask_and.
template <typename T>
[[nodiscard]] inline Mask<T> all_lanes() {
  if constexpr (std::is_same_v<T, double>) {
    return true;
  } else {
    return mask_all();
  }
}

/// Lanes with 0 < a < inf: the input-validity test of every round, context
/// and grid sweep.  NaN fails both ordered compares.
template <typename T>
[[nodiscard]] inline Mask<T> mask_positive_finite(T a) {
  return mask_and(
      mask_greater(a, splat<T>(0.0)),
      mask_greater(splat<T>(std::numeric_limits<double>::infinity()), a));
}

/// Lanes whose value is finite (neither infinity nor NaN).
template <typename T>
[[nodiscard]] inline Mask<T> mask_finite(T a) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return mask_and(mask_greater(splat<T>(kInf), a),
                  mask_greater(a, splat<T>(-kInf)));
}

}  // namespace lbmv::util::simd
