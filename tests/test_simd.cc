/**
 * @file
 * Tests for the SIMD kernel tier (qsim/simd.h).
 *
 * The contract is bit-exactness: every vector ISA must reproduce the
 * scalar reference kernels to the last bit, at every input size
 * (including n = 0, 1, and every non-multiple of the vector width),
 * and whole simulations must be byte-identical under the scalar and
 * the best ISA at 1, 2, and 7 threads.  On machines where only the
 * scalar table is available, the cross-ISA comparisons skip instead
 * of failing.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "baselines/chocoq.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/rasengan.h"
#include "problems/suite.h"
#include "qsim/simd.h"
#include "qsim/statevector.h"

namespace rasengan {
namespace {

using Complex = std::complex<double>;
using qsim::SimdIsa;
using qsim::SimdKernels;

const std::vector<int> kSweep = {1, 2, 7};

/** Sizes that straddle every vector width boundary. */
const std::vector<uint64_t> kFuzzSizes = {0, 1, 2, 3, 4,  5,  7,
                                          8, 9, 16, 17, 33, 100};

/** RAII: restore the env-derived thread configuration on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { parallel::setThreadCount(0); }
};

/** RAII: restore the previously active ISA on scope exit. */
struct IsaGuard
{
    SimdIsa saved = qsim::simdActiveIsa();
    ~IsaGuard() { qsim::setSimdIsa(saved); }
};

/** Every available non-scalar ISA (empty on scalar-only machines). */
std::vector<SimdIsa>
vectorIsas()
{
    std::vector<SimdIsa> out;
    for (SimdIsa isa : qsim::simdAvailableIsas())
        if (isa != SimdIsa::Scalar)
            out.push_back(isa);
    return out;
}

#define SKIP_IF_SCALAR_ONLY()                                           \
    do {                                                                \
        if (vectorIsas().empty())                                       \
            GTEST_SKIP() << "only the scalar ISA is available";         \
    } while (0)

std::vector<Complex>
randomAmps(Rng &rng, uint64_t n)
{
    std::vector<Complex> v(n);
    for (auto &z : v)
        z = Complex{rng.normal(), rng.normal()};
    return v;
}

bool
sameBytes(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(Complex)) == 0);
}

// ---------------------------------------------------------------------
// Selection API
// ---------------------------------------------------------------------

TEST(SimdSelect, ScalarAlwaysAvailable)
{
    IsaGuard guard;
    auto isas = qsim::simdAvailableIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), SimdIsa::Scalar);
    EXPECT_TRUE(qsim::setSimdIsa(SimdIsa::Scalar));
    EXPECT_EQ(qsim::simdActiveIsa(), SimdIsa::Scalar);
    EXPECT_EQ(qsim::simdKernels().isa, SimdIsa::Scalar);
}

// ---------------------------------------------------------------------
// Kernel-level scalar-vs-vector bit-exactness, fuzzed across sizes
// that are not multiples of any vector width (n = 0, 1 included via
// kFuzzSizes).
// ---------------------------------------------------------------------

TEST(SimdKernelsExact, PairRotateStridedAllSizes)
{
    SKIP_IF_SCALAR_ONLY();
    const SimdKernels &scalar = *qsim::detail::simdScalarTable();
    circuit::Mat2 u =
        circuit::gateMatrix(circuit::GateKind::RY, 0.3721);
    for (SimdIsa isa : vectorIsas()) {
        IsaGuard guard;
        ASSERT_TRUE(qsim::setSimdIsa(isa));
        const SimdKernels &vec = qsim::simdKernels();
        Rng rng(12);
        for (uint64_t bit : {uint64_t{2}, uint64_t{4}, uint64_t{128}}) {
            for (uint64_t len : kFuzzSizes) {
                if (len > bit)
                    continue; // contract: len <= bit (runs never span)
                std::vector<Complex> amps = randomAmps(rng, 2 * bit + 7);
                std::vector<Complex> want = amps;
                scalar.pairRotateStrided(want.data(), 3, len, bit, u);
                std::vector<Complex> got = amps;
                vec.pairRotateStrided(got.data(), 3, len, bit, u);
                EXPECT_TRUE(sameBytes(got, want))
                    << qsim::simdIsaName(isa) << " bit=" << bit
                    << " len=" << len;
            }
        }
    }
}

TEST(SimdKernelsExact, PairRotateAdjacentAllSizes)
{
    SKIP_IF_SCALAR_ONLY();
    const SimdKernels &scalar = *qsim::detail::simdScalarTable();
    circuit::Mat2 u =
        circuit::gateMatrix(circuit::GateKind::RX, 1.234);
    for (SimdIsa isa : vectorIsas()) {
        IsaGuard guard;
        ASSERT_TRUE(qsim::setSimdIsa(isa));
        const SimdKernels &vec = qsim::simdKernels();
        Rng rng(13);
        for (uint64_t n : kFuzzSizes) {
            std::vector<Complex> amps = randomAmps(rng, 2 * n);
            std::vector<Complex> want = amps;
            scalar.pairRotateAdjacent(want.data(), 0, n, u);
            std::vector<Complex> got = amps;
            vec.pairRotateAdjacent(got.data(), 0, n, u);
            EXPECT_TRUE(sameBytes(got, want))
                << qsim::simdIsaName(isa) << " n=" << n;
        }
    }
}

TEST(SimdKernelsExact, DiagonalTermsAllSizes)
{
    SKIP_IF_SCALAR_ONLY();
    const SimdKernels &scalar = *qsim::detail::simdScalarTable();
    // Mix of always-on, controlled, and identically-zero terms so some
    // accumulated angles are exactly 0.0 (the skip path must keep
    // those amplitudes bitwise untouched in every arm).
    std::vector<circuit::DiagTerm> terms = {
        {0, 1, 0.25, -0.25},
        {2, 4, 0.0, 0.5},
        {5, 8, -0.125, 0.125},
        {0, 2, 0.0, 0.0},
    };
    for (SimdIsa isa : vectorIsas()) {
        IsaGuard guard;
        ASSERT_TRUE(qsim::setSimdIsa(isa));
        const SimdKernels &vec = qsim::simdKernels();
        Rng rng(15);
        for (uint64_t n : kFuzzSizes) {
            std::vector<Complex> amps = randomAmps(rng, n);
            std::vector<Complex> want = amps;
            scalar.diagonalTerms(want.data(), terms.data(), terms.size(),
                                 0, n);
            std::vector<Complex> got = amps;
            vec.diagonalTerms(got.data(), terms.data(), terms.size(), 0,
                              n);
            EXPECT_TRUE(sameBytes(got, want))
                << qsim::simdIsaName(isa) << " n=" << n;
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level cross-ISA determinism at 1/2/7 threads
// ---------------------------------------------------------------------

circuit::Circuit
mixedCircuit(int n, Rng &rng)
{
    circuit::Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.h(q);
    for (int layer = 0; layer < 4; ++layer) {
        for (int q = 0; q < n; ++q)
            c.rz(q, rng.uniformReal(-1.0, 1.0));
        for (int q = 0; q + 1 < n; ++q)
            c.cx(q, q + 1);
        for (int q = 0; q < n; ++q)
            c.ry(q, rng.uniformReal(-1.0, 1.0));
    }
    return c;
}

TEST(SimdCrossIsa, DenseAmplitudesBitIdentical)
{
    SKIP_IF_SCALAR_ONLY();
    ThreadGuard tguard;
    IsaGuard iguard;
    const int n = 12;
    Rng rng(21);
    circuit::Circuit circ = mixedCircuit(n, rng);

    ASSERT_TRUE(qsim::setSimdIsa(SimdIsa::Scalar));
    parallel::setThreadCount(1);
    qsim::Statevector reference(n);
    reference.applyCircuit(circ);

    for (SimdIsa isa : vectorIsas()) {
        ASSERT_TRUE(qsim::setSimdIsa(isa));
        for (int tc : kSweep) {
            parallel::setThreadCount(tc);
            qsim::Statevector sv(n);
            sv.applyCircuit(circ);
            EXPECT_TRUE(
                sameBytes(sv.amplitudes(), reference.amplitudes()))
                << qsim::simdIsaName(isa) << " threads=" << tc;
        }
    }
}

// ---------------------------------------------------------------------
// All four solvers, scalar vs auto: byte-identical results/telemetry
// ---------------------------------------------------------------------

TEST(SimdCrossIsa, RasenganSolverBitIdentical)
{
    SKIP_IF_SCALAR_ONLY();
    ThreadGuard tguard;
    IsaGuard iguard;
    problems::Problem p = problems::makeBenchmark("F1");
    core::RasenganOptions opts;
    opts.maxIterations = 10;
    opts.shotsPerSegment = 256;

    ASSERT_TRUE(qsim::setSimdIsa(SimdIsa::Scalar));
    opts.resilience.threads = 1;
    core::RasenganResult reference =
        core::RasenganSolver(p, opts).run();
    ASSERT_FALSE(reference.failed);

    ASSERT_TRUE(qsim::setSimdIsa(qsim::simdBestIsa()));
    for (int tc : kSweep) {
        opts.resilience.threads = tc;
        core::RasenganResult res = core::RasenganSolver(p, opts).run();
        ASSERT_FALSE(res.failed);
        EXPECT_EQ(res.solution, reference.solution) << "threads=" << tc;
        EXPECT_EQ(res.objectiveValue, reference.objectiveValue);
        EXPECT_EQ(res.expectedObjective, reference.expectedObjective);
        EXPECT_EQ(res.inConstraintsRate, reference.inConstraintsRate);
        ASSERT_EQ(res.finalDistribution.entries.size(),
                  reference.finalDistribution.entries.size());
        for (size_t i = 0; i < res.finalDistribution.entries.size();
             ++i) {
            EXPECT_EQ(res.finalDistribution.entries[i],
                      reference.finalDistribution.entries[i]);
        }
    }
}

/** Scalar-vs-auto sweep shared by the three baseline VQAs. */
template <typename Solver, typename Options>
void
sweepBaselineCrossIsa(Options opts)
{
    SKIP_IF_SCALAR_ONLY();
    ThreadGuard tguard;
    IsaGuard iguard;
    problems::Problem p = problems::makeBenchmark("F1");

    ASSERT_TRUE(qsim::setSimdIsa(SimdIsa::Scalar));
    opts.resilience.threads = 1;
    baselines::VqaResult reference = Solver(p, opts).run();

    ASSERT_TRUE(qsim::setSimdIsa(qsim::simdBestIsa()));
    for (int tc : kSweep) {
        opts.resilience.threads = tc;
        baselines::VqaResult res = Solver(p, opts).run();
        EXPECT_EQ(res.expectedObjective, reference.expectedObjective)
            << "threads=" << tc;
        EXPECT_EQ(res.inConstraintsRate, reference.inConstraintsRate);
        EXPECT_TRUE(res.counts.map() == reference.counts.map());
        EXPECT_EQ(res.training.value, reference.training.value);
    }
}

TEST(SimdCrossIsa, HeaBitIdentical)
{
    baselines::HeaOptions opts;
    opts.layers = 2;
    opts.maxIterations = 12;
    opts.shots = 256;
    sweepBaselineCrossIsa<baselines::Hea>(opts);
}

TEST(SimdCrossIsa, PqaoaBitIdentical)
{
    baselines::PqaoaOptions opts;
    opts.layers = 2;
    opts.maxIterations = 12;
    opts.shots = 256;
    sweepBaselineCrossIsa<baselines::Pqaoa>(opts);
}

TEST(SimdCrossIsa, ChocoqBitIdentical)
{
    baselines::ChocoqOptions opts;
    opts.layers = 2;
    opts.maxIterations = 12;
    opts.shots = 256;
    sweepBaselineCrossIsa<baselines::Chocoq>(opts);
}

} // namespace
} // namespace rasengan
