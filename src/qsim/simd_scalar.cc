/**
 * @file
 * Scalar ISA table -- thin wrappers around the simd_generic.h reference
 * bodies, always compiled in; the fallback on every target and the
 * reference the AVX2 arm is tested against -- and the scalar-only
 * sparse and diagonal-evolution kernels.  Compiled with
 * -ffp-contract=off like every simd TU, so their bits do not move on
 * targets where the compiler would otherwise emit FMA.
 */

#include "qsim/simd.h"
#include "qsim/simd_generic.h"

namespace rasengan::qsim {

namespace detail {
namespace {

const SimdKernels kScalarKernels = {
    SimdIsa::Scalar,
    &simd_generic::pairRotateStrided,
    &simd_generic::pairRotateAdjacent,
    &simd_generic::diagonalTerms,
};

} // namespace

const SimdKernels *
simdScalarTable()
{
    return &kScalarKernels;
}

} // namespace detail

namespace {

using simd_generic::Complex;

/** Branchless lower bound (first index with keys[idx] >= q, or n). */
uint64_t
lowerBound(const BitVec *keys, uint64_t n, const BitVec &q)
{
    if (n == 0)
        return 0;
    uint64_t base = 0;
    uint64_t len = n;
    while (len > 1) {
        const uint64_t half = len >> 1;
        if (keys[base + half - 1] < q)
            base += half;
        len -= half;
    }
    return base + (keys[base] < q ? 1 : 0);
}

} // namespace

void
sparseClassify(const BitVec *keys, uint64_t n, uint64_t i0, uint64_t i1,
               const BitVec &mask, const BitVec &pattern_plus,
               const BitVec &pattern_minus, uint8_t *role,
               uint32_t *partner)
{
    for (uint64_t i = i0; i < i1; ++i) {
        const BitVec restricted = keys[i] & mask;
        if (restricted == pattern_plus) {
            role[i] = kSparseRolePlus;
        } else if (restricted == pattern_minus) {
            role[i] = kSparseRoleMinus;
        } else {
            role[i] = kSparseRoleDark;
            continue;
        }
        const BitVec q = keys[i] ^ mask;
        const uint64_t j = lowerBound(keys, n, q);
        partner[i] = (j < n && keys[j] == q) ? static_cast<uint32_t>(j)
                                             : kSparseAbsent;
    }
}

void
sparsePairRotate(Complex *amps, const std::pair<uint32_t, uint32_t> *pairs,
                 uint64_t p0, uint64_t p1, double c, Complex ms)
{
    // a+' = c*a+ + ms*a-, a-' = c*a- + ms*a+.
    for (uint64_t p = p0; p < p1; ++p) {
        Complex &ap = amps[pairs[p].first];
        Complex &am = amps[pairs[p].second];
        const Complex sp{c * ap.real(), c * ap.imag()};
        const Complex sm{c * am.real(), c * am.imag()};
        const Complex xp = simd_generic::cmul(ms, am);
        const Complex xm = simd_generic::cmul(ms, ap);
        ap = Complex{sp.real() + xp.real(), sp.imag() + xp.imag()};
        am = Complex{sm.real() + xm.real(), sm.imag() + xm.imag()};
    }
}

void
diagonalEvolution(Complex *amps, const double *values, double scale,
                  uint64_t i0, uint64_t i1)
{
    for (uint64_t i = i0; i < i1; ++i)
        amps[i] = simd_generic::cmul(
            amps[i], simd_generic::phaseFactor(-scale * values[i]));
}

} // namespace rasengan::qsim
