// Portable SIMD kernels for the count-engine hot loops.
//
// The collapsed super-step engine spends its per-super-step O(|Q|^2) budget
// in three scalar loops: applying the aggregate count delta, re-deriving the
// effective-pair total W (a masked dot product per state row), and the
// log-factorial sums behind every hypergeometric/binomial inverse-CDF draw.
// This header wraps those loops over GCC/Clang vector extensions (2 x 64-bit
// lanes — the baseline register width on x86-64 and AArch64, so no ABI or
// -m flags are needed; the compiler widens to AVX where -march allows), with
// a scalar fallback that compiles everywhere.  The CMake option
// POPPROTO_SIMD (default ON) selects between them via the
// POPPROTO_SIMD_ENABLED define, so `-DPOPPROTO_SIMD=OFF` is the escape hatch
// for compilers without the extension.
//
// Every kernel is exact, not approximate: unsigned lanes wrap modulo 2^64
// exactly like the scalar code (intermediate a - b - c may "underflow", the
// final sum is the same), and the double kernel keeps the same association
// as its scalar fallback, so both integer and double kernels are
// bit-identical to the fallback path.

#ifndef POPPROTO_CORE_SIMD_H
#define POPPROTO_CORE_SIMD_H

#include <cstddef>
#include <cstdint>

#if defined(POPPROTO_SIMD_ENABLED) && (defined(__GNUC__) || defined(__clang__))
#define POPPROTO_SIMD_VECTOR_EXT 1
#endif

namespace popproto::simd {

#if POPPROTO_SIMD_VECTOR_EXT
using u64x2 = std::uint64_t __attribute__((vector_size(16), aligned(8)));
using f64x2 = double __attribute__((vector_size(16), aligned(8)));

inline u64x2 load_u64x2(const std::uint64_t* p) noexcept {
    return u64x2{p[0], p[1]};
}

inline void store_u64x2(std::uint64_t* p, u64x2 v) noexcept {
    p[0] = v[0];
    p[1] = v[1];
}
#endif

/// dst[i] += add[i] - sub1[i] - sub2[i] for i in [0, n).  The collapsed
/// engine's count-delta application: new counts = old + touched -
/// initiators - responders (unsigned wraparound in the intermediates is
/// fine; the final value is the exact non-negative count).
inline void add_sub_sub(std::uint64_t* dst, const std::uint64_t* add,
                        const std::uint64_t* sub1, const std::uint64_t* sub2,
                        std::size_t n) noexcept {
    std::size_t i = 0;
#if POPPROTO_SIMD_VECTOR_EXT
    for (; i + 2 <= n; i += 2) {
        store_u64x2(dst + i, load_u64x2(dst + i) + load_u64x2(add + i) -
                                 load_u64x2(sub1 + i) - load_u64x2(sub2 + i));
    }
#endif
    for (; i < n; ++i) dst[i] += add[i] - sub1[i] - sub2[i];
}

/// Sum of values[i] over the i with mask[i] != 0 — one row of the
/// effective-pair total W = sum_p c_p * (sum_q eff[p][q] c_q - eff[p][p]).
/// Exact: 64-bit integer addition is associative, so the lane-split
/// accumulation equals the scalar loop bit for bit.
inline std::uint64_t masked_sum(const std::uint8_t* mask, const std::uint64_t* values,
                                std::size_t n) noexcept {
    std::size_t i = 0;
    std::uint64_t total = 0;
#if POPPROTO_SIMD_VECTOR_EXT
    u64x2 acc = {0, 0};
    for (; i + 2 <= n; i += 2) {
        // Lane-wise select: all-ones masks keep exactly the flagged entries.
        const u64x2 m = {mask[i] ? ~std::uint64_t{0} : 0,
                         mask[i + 1] ? ~std::uint64_t{0} : 0};
        acc += m & load_u64x2(values + i);
    }
    total = acc[0] + acc[1];
#endif
    for (; i < n; ++i)
        if (mask[i]) total += values[i];
    return total;
}

/// sum(plus[0..3]) - sum(minus[0..3]) of doubles — the vectorizable core of
/// a hypergeometric log-pmf evaluation, which is a signed sum of nine
/// log-factorials (four positive table loads, four negative, and one
/// trailing scalar term handled by the caller).  Both paths use the
/// association ((p0-m0)+(p1-m1)) + ((p2-m2)+(p3-m3)), so they agree bit
/// for bit.
inline double sum4_minus_sum4(const double* plus, const double* minus) noexcept {
#if POPPROTO_SIMD_VECTOR_EXT
    const f64x2 lo = f64x2{plus[0], plus[1]} - f64x2{minus[0], minus[1]};
    const f64x2 hi = f64x2{plus[2], plus[3]} - f64x2{minus[2], minus[3]};
    return (lo[0] + lo[1]) + (hi[0] + hi[1]);
#else
    return ((plus[0] - minus[0]) + (plus[1] - minus[1])) +
           ((plus[2] - minus[2]) + (plus[3] - minus[3]));
#endif
}

/// Whether this build compiled the vector-extension paths (for logs/tests).
inline constexpr bool enabled() noexcept {
#if POPPROTO_SIMD_VECTOR_EXT
    return true;
#else
    return false;
#endif
}

}  // namespace popproto::simd

#endif  // POPPROTO_CORE_SIMD_H
