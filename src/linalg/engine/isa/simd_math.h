/**
 * @file
 * Vectorized transcendentals for the per-ISA kernel TUs. Each
 * function is guarded by the target macro its instructions need, so
 * this header is safe to include from any TU — only the TUs built
 * with `-mavx2 -mfma` / `-mavx512f` instantiate the wide versions.
 *
 * expApprox*_ps: Cephes-style expf — range-reduce x = n*ln2 + r,
 * evaluate a degree-5 polynomial in r, scale by 2^n through the
 * exponent bits. Max error ~2 ulp against libm expf over the clamped
 * domain, far inside the engine's differential ulp budget; inputs
 * outside [-87.34, 88.38] clamp (the fused softmax only ever feeds
 * x - max(x) <= 0, so the upper clamp is never hit in practice).
 */

#ifndef VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H
#define VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace vitcod::linalg::engine::isa {

// Cephes expf constants, shared by every width.
#define VITCOD_EXP_HI 88.3762626647949f
#define VITCOD_EXP_LO -87.3365478515625f
#define VITCOD_LOG2E 1.44269504088896341f
#define VITCOD_EXP_C1 0.693359375f
#define VITCOD_EXP_C2 -2.12194440e-4f
#define VITCOD_EXP_P0 1.9875691500e-4f
#define VITCOD_EXP_P1 1.3981999507e-3f
#define VITCOD_EXP_P2 8.3334519073e-3f
#define VITCOD_EXP_P3 4.1665795894e-2f
#define VITCOD_EXP_P4 1.6666665459e-1f
#define VITCOD_EXP_P5 5.0000001201e-1f

#if defined(__AVX2__) && defined(__FMA__)

/** 8-lane expf approximation (AVX2 + FMA). */
inline __m256
expApprox256_ps(__m256 x)
{
    x = _mm256_min_ps(x, _mm256_set1_ps(VITCOD_EXP_HI));
    x = _mm256_max_ps(x, _mm256_set1_ps(VITCOD_EXP_LO));

    // n = round-to-nearest(x / ln2); r = x - n*ln2 in two steps for
    // extra bits of ln2.
    __m256 n = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(VITCOD_LOG2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r =
        _mm256_fnmadd_ps(n, _mm256_set1_ps(VITCOD_EXP_C1), x);
    r = _mm256_fnmadd_ps(n, _mm256_set1_ps(VITCOD_EXP_C2), r);

    __m256 p = _mm256_set1_ps(VITCOD_EXP_P0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P5));
    const __m256 r2 = _mm256_mul_ps(r, r);
    p = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r),
                      _mm256_set1_ps(1.0f));

    // 2^n via exponent-bit construction (n in [-127, 128] after the
    // domain clamp).
    const __m256i bits = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n),
                         _mm256_set1_epi32(0x7f)),
        23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

#endif // __AVX2__ && __FMA__

#if defined(__AVX512F__)

/**
 * Every lane of a 16-lane op. GCC 12 implements the unmasked
 * AVX-512 intrinsics (_mm512_max_ps, _mm512_roundscale_ps, ...) as
 * their masked builtins with an *undefined* pass-through vector,
 * which trips a false -Wmaybe-uninitialized once inlined. The
 * zero-masking forms with every lane selected compute the same
 * lanes with a defined pass-through, so AVX-512 code calls those.
 */
inline constexpr __mmask16 kAllLanes = 0xFFFF;

/** 16-lane expf approximation (AVX-512F). */
inline __m512
expApprox512_ps(__m512 x)
{
    x = _mm512_maskz_min_ps(kAllLanes, x, _mm512_set1_ps(VITCOD_EXP_HI));
    x = _mm512_maskz_max_ps(kAllLanes, x, _mm512_set1_ps(VITCOD_EXP_LO));

    __m512 n = _mm512_maskz_roundscale_ps(
        kAllLanes, _mm512_mul_ps(x, _mm512_set1_ps(VITCOD_LOG2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m512 r =
        _mm512_fnmadd_ps(n, _mm512_set1_ps(VITCOD_EXP_C1), x);
    r = _mm512_fnmadd_ps(n, _mm512_set1_ps(VITCOD_EXP_C2), r);

    __m512 p = _mm512_set1_ps(VITCOD_EXP_P0);
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P1));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P2));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P3));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P4));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P5));
    const __m512 r2 = _mm512_mul_ps(r, r);
    p = _mm512_add_ps(_mm512_fmadd_ps(p, r2, r),
                      _mm512_set1_ps(1.0f));

    const __m512i bits = _mm512_maskz_slli_epi32(
        kAllLanes,
        _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAllLanes, n),
                         _mm512_set1_epi32(0x7f)),
        23);
    return _mm512_mul_ps(p, _mm512_castsi512_ps(bits));
}

#endif // __AVX512F__

} // namespace vitcod::linalg::engine::isa

#endif // VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H
