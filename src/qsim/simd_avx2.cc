/**
 * @file
 * AVX2 ISA table.  Two interleaved complex<double> amplitudes per ymm
 * register for the pair rotations; 256-bit integer compares drive the
 * diagonal block's control-mask scan, four indices at a time.
 *
 * Determinism: every lane reproduces the scalar reference arithmetic of
 * simd_generic.h -- same multiplies, same adds, same per-element
 * association.  _mm256_addsub_pd computes exactly the scalar
 * (ar*br - ai*bi, ai*br + ar*bi) complex product, no FMA is emitted
 * (this TU is compiled with -mavx2 only, not -mfma, and with
 * -ffp-contract=off), and sub-width tails fall through to the generic
 * bodies, which are the same IEEE op sequence.
 *
 * The whole implementation is gated on __AVX2__ so non-x86 builds (or
 * toolchains without -mavx2) compile this TU down to a null table.
 */

#include "qsim/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "qsim/simd_generic.h"

namespace rasengan::qsim::detail {
namespace {

using Complex = SimdKernels::Complex;
using Mat2 = SimdKernels::Mat2;

/**
 * Complex product per 128-bit lane: for each of the two packed
 * complexes, (ar*br - ai*bi, ai*br + ar*bi) -- the exact scalar
 * expansion (the odd addsub lanes add ai*br + ar*bi; IEEE addition of
 * two products is commutative bitwise).
 */
inline __m256d
cmul4(__m256d a, __m256d b)
{
    __m256d br = _mm256_movedup_pd(b);      // [br0, br0, br1, br1]
    __m256d bi = _mm256_permute_pd(b, 0xF); // [bi0, bi0, bi1, bi1]
    __m256d as = _mm256_permute_pd(a, 0x5); // [ai0, ar0, ai1, ar1]
    return _mm256_addsub_pd(_mm256_mul_pd(a, br),
                            _mm256_mul_pd(as, bi));
}

/** Broadcast one complex<double> to both 128-bit lanes.  Complex is
 *  only 8-byte aligned, so never dereference it as a __m128d. */
inline __m256d
broadcastComplex(const Complex &z)
{
    return _mm256_setr_pd(z.real(), z.imag(), z.real(), z.imag());
}

/** Pack two complexes as [lo, hi] lanes (unaligned-safe). */
inline __m256d
packComplex2(const Complex &lo, const Complex &hi)
{
    return _mm256_setr_pd(lo.real(), lo.imag(), hi.real(), hi.imag());
}

void
pairRotateStrided(Complex *amps, uint64_t base, uint64_t len,
                  uint64_t bit, const Mat2 &u)
{
    double *d0 = reinterpret_cast<double *>(amps + base);
    double *d1 = reinterpret_cast<double *>(amps + base + bit);
    const __m256d m00 = broadcastComplex(u.m00);
    const __m256d m01 = broadcastComplex(u.m01);
    const __m256d m10 = broadcastComplex(u.m10);
    const __m256d m11 = broadcastComplex(u.m11);
    uint64_t j = 0;
    for (; j + 2 <= len; j += 2) {
        __m256d v0 = _mm256_loadu_pd(d0 + 2 * j);
        __m256d v1 = _mm256_loadu_pd(d1 + 2 * j);
        __m256d o0 = _mm256_add_pd(cmul4(v0, m00), cmul4(v1, m01));
        __m256d o1 = _mm256_add_pd(cmul4(v0, m10), cmul4(v1, m11));
        _mm256_storeu_pd(d0 + 2 * j, o0);
        _mm256_storeu_pd(d1 + 2 * j, o1);
    }
    for (; j < len; ++j)
        simd_generic::rotatePair(amps[base + j], amps[base + j + bit],
                                 u);
}

void
pairRotateAdjacent(Complex *amps, uint64_t h0, uint64_t h1,
                   const Mat2 &u)
{
    // One ymm per pair: [a0, a1].  Row matrices Ma = [m00, m10] and
    // Mb = [m01, m11] put row 0 in the low lane and row 1 in the high
    // lane, so out = cmul(dup(a0), Ma) + cmul(dup(a1), Mb) is
    // (new a0, new a1) in place.
    const __m256d ma = packComplex2(u.m00, u.m10);
    const __m256d mb = packComplex2(u.m01, u.m11);
    double *d = reinterpret_cast<double *>(amps);
    for (uint64_t h = h0; h < h1; ++h) {
        __m256d v = _mm256_loadu_pd(d + 4 * h);
        __m256d va = _mm256_permute2f128_pd(v, v, 0x00); // [a0, a0]
        __m256d vb = _mm256_permute2f128_pd(v, v, 0x11); // [a1, a1]
        __m256d out = _mm256_add_pd(cmul4(va, ma), cmul4(vb, mb));
        _mm256_storeu_pd(d + 4 * h, out);
    }
}

void
diagonalTerms(Complex *amps, const circuit::DiagTerm *terms,
              size_t num_terms, uint64_t i0, uint64_t i1)
{
    // Vectorize the O(num_terms) control-mask scan four indices at a
    // time.  Where a control fails the lane adds +0.0 instead of
    // skipping the add; that is bitwise harmless because the scalar
    // accumulator can never be -0.0 (it starts at +0.0, and
    // +0.0 + -0.0 rounds to +0.0), so x + 0.0 == x exactly.
    alignas(32) double angles[4];
    uint64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        const __m256i idx = _mm256_setr_epi64x(
            static_cast<long long>(i), static_cast<long long>(i + 1),
            static_cast<long long>(i + 2),
            static_cast<long long>(i + 3));
        __m256d angle = _mm256_setzero_pd();
        for (size_t t = 0; t < num_terms; ++t) {
            const __m256i cm = _mm256_set1_epi64x(
                static_cast<long long>(terms[t].controlMask));
            const __m256i tb = _mm256_set1_epi64x(
                static_cast<long long>(terms[t].targetBit));
            __m256i ctrl =
                _mm256_cmpeq_epi64(_mm256_and_si256(idx, cm), cm);
            __m256i bit_clear = _mm256_cmpeq_epi64(
                _mm256_and_si256(idx, tb), _mm256_setzero_si256());
            __m256d sel =
                _mm256_blendv_pd(_mm256_set1_pd(terms[t].phase1),
                                 _mm256_set1_pd(terms[t].phase0),
                                 _mm256_castsi256_pd(bit_clear));
            angle = _mm256_add_pd(
                angle,
                _mm256_and_pd(sel, _mm256_castsi256_pd(ctrl)));
        }
        _mm256_store_pd(angles, angle);
        for (int k = 0; k < 4; ++k) {
            if (angles[k] != 0.0)
                amps[i + k] = simd_generic::cmul(
                    amps[i + k],
                    simd_generic::phaseFactor(angles[k]));
        }
    }
    simd_generic::diagonalTerms(amps, terms, num_terms, i, i1);
}

const SimdKernels kAvx2Kernels = {
    SimdIsa::Avx2,
    &pairRotateStrided,
    &pairRotateAdjacent,
    &diagonalTerms,
};

} // namespace

const SimdKernels *
simdAvx2Table()
{
    return &kAvx2Kernels;
}

} // namespace rasengan::qsim::detail

#else // !__AVX2__

namespace rasengan::qsim::detail {

const SimdKernels *
simdAvx2Table()
{
    return nullptr;
}

} // namespace rasengan::qsim::detail

#endif
