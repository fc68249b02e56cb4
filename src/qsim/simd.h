/**
 * @file
 * SIMD kernel tier: runtime-dispatched dense amplitude kernels, plus
 * the scalar-only sparse and diagonal-evolution kernels.
 *
 * The dense engine's three hottest loops -- the strided and adjacent
 * 1q pair rotations and the coalesced diagonal block -- are routed
 * through a table of kernel function pointers (SimdKernels).  The
 * table has one implementation per instruction set -- scalar (always
 * built) and AVX2 (x86-64, built when the compiler supports -mavx2 and
 * selected only when the CPU reports the feature) -- living in per-ISA
 * translation units so each can be compiled with its own codegen flags
 * without perturbing the rest of the build.
 *
 * The sparse pass-1 classify, the gathered sparse pair rotation and
 * the dense diagonal evolution have no vector arm: on the supports the
 * sparse engine sees (tens to a few thousand states) a vector arm does
 * not beat the scalar loop.  They are plain functions, defined in
 * simd_scalar.cc so they share its -ffp-contract=off codegen.
 *
 * Determinism contract.  Results are bit-identical across ISAs and
 * thread counts:
 *
 *  - every arm performs the *same IEEE-754 operations in the same
 *    per-element association* as the scalar reference
 *    (simd_generic.h); vector arms only widen the loop, they never
 *    reassociate, and no arm uses FMA (all simd TUs are compiled with
 *    -ffp-contract=off so the compiler cannot contract on targets
 *    where fused multiply-add is baseline, e.g. aarch64);
 *  - transcendental factors (the sin/cos inside e^{i*angle}) are always
 *    produced by the same scalar libm calls, in every arm;
 *  - kernels slot *beneath* the deterministic parallel-for blocking
 *    (common/parallel.h): they receive chunk ranges and write disjoint
 *    data, so the thread count only reschedules identical work.
 *
 * Selection: the best ISA the build and the CPU both support, detected
 * on first use.  setSimdIsa() overrides it (tests and benches compare
 * arms through it).  The active ISA is published as the obs gauge
 * `simd_isa_info{isa=...}` and recorded in trace metadata by the
 * CLI/daemon entry points.
 *
 * Switching ISAs while simulation kernels are executing is not
 * supported; callers switch between runs (tests, benches).
 */

#ifndef RASENGAN_QSIM_SIMD_H
#define RASENGAN_QSIM_SIMD_H

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/fusion.h"
#include "circuit/gatematrix.h"
#include "common/bitvec.h"

namespace rasengan::qsim {

enum class SimdIsa : int {
    Scalar = 0,
    Avx2 = 1,
};

/** "scalar", "avx2". */
const char *simdIsaName(SimdIsa isa);

/**
 * The per-ISA kernel table.  All Complex arrays are the engines' native
 * interleaved std::complex<double> storage; every function operates on
 * an explicit index range so it can run under a parallelFor chunk.
 */
struct SimdKernels
{
    using Complex = std::complex<double>;
    using Mat2 = circuit::Mat2;

    SimdIsa isa = SimdIsa::Scalar;

    /**
     * Dense pair rotation over a contiguous run: for j in [0, len),
     * rotate the amplitude pair (amps[base+j], amps[base+j+bit]) by the
     * 2x2 unitary @p u.  The dense engine decomposes the compact pair
     * index space into such runs (run length 2^target, clipped to the
     * parallel-for chunk); the controlled kernel feeds it the maximal
     * contiguous segments of control-satisfying bases.
     */
    void (*pairRotateStrided)(Complex *amps, uint64_t base, uint64_t len,
                              uint64_t bit, const Mat2 &u);

    /**
     * Dense pair rotation for target qubit 0, where pairs are adjacent
     * in memory: rotate (amps[2h], amps[2h+1]) for h in [h0, h1).
     */
    void (*pairRotateAdjacent)(Complex *amps, uint64_t h0, uint64_t h1,
                               const Mat2 &u);

    /**
     * Coalesced diagonal block (fusion output): for i in [i0, i1),
     * accumulate the phase of every matching DiagTerm and multiply by
     * e^{i*angle} -- skipping (leaving bitwise untouched) amplitudes
     * whose accumulated angle is exactly zero, like the scalar path
     * always did.
     */
    void (*diagonalTerms)(Complex *amps, const circuit::DiagTerm *terms,
                          size_t num_terms, uint64_t i0, uint64_t i1);
};

/** The active kernel table (auto-detected on first use). */
const SimdKernels &simdKernels();

/** The active ISA (auto-detected on first use). */
SimdIsa simdActiveIsa();

/** Best ISA this build and CPU support (the first-use default). */
SimdIsa simdBestIsa();

/** Every ISA usable on this build/CPU, scalar first. */
std::vector<SimdIsa> simdAvailableIsas();

/**
 * Activate @p isa.  Returns false (leaving the current table in place)
 * when the ISA was not compiled in or the CPU lacks it.  Not safe to
 * call while simulation kernels are executing.
 */
bool setSimdIsa(SimdIsa isa);

/// @name Scalar-only kernels
/// @{

/** Roles of a populated sparse state under one transition; shared by
 *  sparseClassify and SparseState::applyPairRotation. */
enum SparseRole : uint8_t {
    kSparseRoleDark = 0,
    kSparseRolePlus = 1,
    kSparseRoleMinus = 2,
};

/** Partner-index sentinel: the partner basis state is unpopulated. */
constexpr uint32_t kSparseAbsent = UINT32_MAX;

/**
 * Sparse pass 1: for i in [i0, i1) classify keys[i] against the
 * transition support (role[i] in {dark, plus, minus}) and, for
 * non-dark states, lower-bound search the full sorted key array
 * [0, n) for the partner keys[i]^mask (partner[i] = index, or
 * kSparseAbsent when unpopulated).
 */
void sparseClassify(const BitVec *keys, uint64_t n, uint64_t i0,
                    uint64_t i1, const BitVec &mask,
                    const BitVec &pattern_plus,
                    const BitVec &pattern_minus, uint8_t *role,
                    uint32_t *partner);

/**
 * Sparse pass 5 / plan replay: gathered pair rotation.  For p in
 * [p0, p1), rotate the (plus, minus) amplitude pair at indices
 * pairs[p] by angle t: a_plus' = c*a_plus + ms*a_minus and
 * symmetrically, with c = cos(t) and ms = -i*sin(t).
 */
void sparsePairRotate(std::complex<double> *amps,
                      const std::pair<uint32_t, uint32_t> *pairs,
                      uint64_t p0, uint64_t p1, double c,
                      std::complex<double> ms);

/**
 * Dense diagonal evolution: amps[i] *= e^{-i*scale*values[i]} for i in
 * [i0, i1).
 */
void diagonalEvolution(std::complex<double> *amps, const double *values,
                       double scale, uint64_t i0, uint64_t i1);

/// @}

namespace detail {

/** Per-ISA tables; null when the ISA is not compiled into this build. */
const SimdKernels *simdScalarTable();
const SimdKernels *simdAvx2Table();

} // namespace detail

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_SIMD_H
