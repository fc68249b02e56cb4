/**
 * @file
 * Tests for the deterministic parallelism substrate (common/parallel.h)
 * and everything built on it: thread-count invariance of the
 * statevector kernels, noisy trajectories and all four solvers,
 * randomized gate-fusion equivalence, and the alias sampler.
 *
 * The contract under test is strong: results must be *bit-identical*
 * at every thread count, not merely statistically close.  Every sweep
 * here runs the same computation at 1, 2 and 7 threads and compares
 * raw amplitude bytes / exact Counts maps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <limits>
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
#include "qsim/counts.h"
#include "qsim/noise.h"
#include "qsim/statevector.h"

namespace rasengan {
namespace {

const std::vector<int> kSweep = {1, 2, 7};

/** RAII: restore the env-derived thread configuration on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { parallel::setThreadCount(0); }
};

/** RAII: restore the fusion toggle on scope exit. */
struct FusionGuard
{
    bool saved = circuit::fusionEnabled();
    ~FusionGuard() { circuit::setFusionEnabled(saved); }
};

bool
sameAmplitudes(const qsim::Statevector &a, const qsim::Statevector &b)
{
    const auto &va = a.amplitudes();
    const auto &vb = b.amplitudes();
    return va.size() == vb.size() &&
           std::memcmp(va.data(), vb.data(),
                       va.size() * sizeof(va[0])) == 0;
}

/**
 * Random circuit over the full simulator-supported gate set (everything
 * except measurement/reset, which the dense path rejects mid-circuit).
 */
circuit::Circuit
randomCircuit(int n, int depth, Rng &rng)
{
    circuit::Circuit circ(n);
    auto pickOther = [&](int q) {
        int r = static_cast<int>(rng.uniformInt(0, n - 2));
        return r >= q ? r + 1 : r;
    };
    for (int g = 0; g < depth; ++g) {
        int kind = static_cast<int>(rng.uniformInt(0, 10));
        int q = static_cast<int>(rng.uniformInt(0, n - 1));
        double theta = rng.uniformReal(-M_PI, M_PI);
        switch (kind) {
          case 0: circ.x(q); break;
          case 1: circ.h(q); break;
          case 2: circ.rx(q, theta); break;
          case 3: circ.ry(q, theta); break;
          case 4: circ.rz(q, theta); break;
          case 5: circ.p(q, theta); break;
          case 6: circ.cx(pickOther(q), q); break;
          case 7: circ.cp(pickOther(q), q, theta); break;
          case 8: circ.swap(q, pickOther(q)); break;
          case 9: {
            int c0 = pickOther(q);
            int c1 = c0;
            while (c1 == c0 || c1 == q)
                c1 = static_cast<int>(rng.uniformInt(0, n - 1));
            circ.mcx({c0, c1}, q);
            break;
          }
          default: {
            int c0 = pickOther(q);
            int c1 = c0;
            while (c1 == c0 || c1 == q)
                c1 = static_cast<int>(rng.uniformInt(0, n - 1));
            circ.mcp({c0, c1}, q, theta);
            break;
          }
        }
    }
    return circ;
}

// ---------------------------------------------------------------------
// parallelFor / reductions
// ---------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnceAtEveryThreadCount)
{
    ThreadGuard guard;
    constexpr uint64_t n = 100000;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        EXPECT_EQ(parallel::threadCount(), tc);
        std::vector<int> hits(n, 0);
        parallel::parallelFor(0, n, 64, [&](uint64_t b, uint64_t e) {
            for (uint64_t i = b; i < e; ++i)
                ++hits[i];
        });
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " @ " << tc;
    }
}

TEST(ParallelFor, EmptyAndSubGrainRangesRunInline)
{
    ThreadGuard guard;
    parallel::setThreadCount(7);
    int calls = 0;
    parallel::parallelFor(5, 5, 1, [&](uint64_t, uint64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // A range below one grain must execute as a single inline chunk.
    parallel::parallelFor(0, 10, 4096, [&](uint64_t b, uint64_t e) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 10u);
        EXPECT_FALSE(parallel::inParallelRegion());
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelForDynamic, CoversRangeExactlyOnceAtEveryThreadCount)
{
    ThreadGuard guard;
    constexpr uint64_t n = 4099; // not a multiple of any sweep count
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        parallel::parallelForDynamic(0, n, [&](uint64_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @ " << tc;
    }
}

TEST(ParallelForDynamic, NestedCallsRunSeriallyWithoutDeadlock)
{
    ThreadGuard guard;
    parallel::setThreadCount(4);
    constexpr uint64_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    parallel::parallelForDynamic(0, 8, [&](uint64_t outer) {
        parallel::parallelForDynamic(outer * 8, outer * 8 + 8,
                                     [&](uint64_t i) {
                                         EXPECT_TRUE(
                                             parallel::inParallelRegion());
                                         hits[i].fetch_add(1);
                                     });
    });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1);
    int calls = 0;
    parallel::parallelForDynamic(3, 3, [&](uint64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock)
{
    ThreadGuard guard;
    parallel::setThreadCount(4);
    constexpr uint64_t n = 1 << 14;
    std::vector<int> hits(n, 0);
    parallel::parallelFor(0, n, 1024, [&](uint64_t b, uint64_t e) {
        // Nested region: must degrade to serial, not deadlock on the
        // pool, and still cover its sub-range exactly once.
        parallel::parallelFor(b, e, 1, [&](uint64_t nb, uint64_t ne) {
            for (uint64_t i = nb; i < ne; ++i)
                ++hits[i];
        });
    });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1);
}

TEST(Parallel, EnvVariableConfiguresPool)
{
    ThreadGuard guard;
    ::setenv("RASENGAN_THREADS", "5", 1);
    parallel::setThreadCount(0); // re-resolve from the environment
    EXPECT_EQ(parallel::threadCount(), 5);
    ::unsetenv("RASENGAN_THREADS");
    parallel::setThreadCount(0);
    EXPECT_GE(parallel::threadCount(), 1);
}

TEST(ReduceBlocks, BitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    constexpr uint64_t n = 200000;
    std::vector<double> data(n);
    Rng rng(42);
    for (auto &v : data)
        v = rng.uniformReal(-1.0, 1.0);

    auto sum = [&]() {
        return parallel::reduceBlocks(
            0, n, parallel::kReduceBlock, [&](uint64_t b, uint64_t e) {
                double acc = 0.0;
                for (uint64_t i = b; i < e; ++i)
                    acc += data[i];
                return acc;
            });
    };
    // Reference: same fixed-block association, computed serially.
    double expected = 0.0;
    for (uint64_t b = 0; b < n; b += parallel::kReduceBlock) {
        uint64_t e = std::min(n, b + parallel::kReduceBlock);
        double acc = 0.0;
        for (uint64_t i = b; i < e; ++i)
            acc += data[i];
        expected += acc;
    }
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        double got = sum();
        EXPECT_EQ(got, expected) << "threads=" << tc; // bitwise, not NEAR
    }
}

TEST(ReduceBlocks, ComplexBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    constexpr uint64_t n = 123457; // deliberately not block-aligned
    std::vector<std::complex<double>> data(n);
    Rng rng(43);
    for (auto &v : data)
        v = {rng.uniformReal(-1.0, 1.0), rng.uniformReal(-1.0, 1.0)};

    std::complex<double> reference{0.0, 0.0};
    bool have_reference = false;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        std::complex<double> got = parallel::reduceBlocksComplex(
            0, n, parallel::kReduceBlock, [&](uint64_t b, uint64_t e) {
                std::complex<double> acc{0.0, 0.0};
                for (uint64_t i = b; i < e; ++i)
                    acc += data[i];
                return acc;
            });
        if (!have_reference) {
            reference = got;
            have_reference = true;
        }
        EXPECT_EQ(got.real(), reference.real()) << "threads=" << tc;
        EXPECT_EQ(got.imag(), reference.imag()) << "threads=" << tc;
    }
}

// ---------------------------------------------------------------------
// Statevector kernels and sampling
// ---------------------------------------------------------------------

TEST(ThreadInvariance, StatevectorAmplitudesBitIdentical)
{
    ThreadGuard guard;
    // 14 qubits = 16384 amplitudes: above the grain, so the pool is
    // genuinely engaged at tc > 1.
    const int n = 14;
    Rng circ_rng(7);
    circuit::Circuit circ = randomCircuit(n, 120, circ_rng);

    parallel::setThreadCount(1);
    qsim::Statevector reference(n);
    reference.applyCircuit(circ);

    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        qsim::Statevector sv(n);
        sv.applyCircuit(circ);
        EXPECT_TRUE(sameAmplitudes(sv, reference)) << "threads=" << tc;
        // Scalar reductions must match bitwise too.
        EXPECT_EQ(sv.normSquared(), reference.normSquared());
        EXPECT_EQ(sv.probabilityOfOne(3), reference.probabilityOfOne(3));
        std::complex<double> ip = sv.inner(reference);
        EXPECT_EQ(ip, reference.inner(reference));
        (void)ip;
    }
}

TEST(ThreadInvariance, SampleCountsBitIdentical)
{
    ThreadGuard guard;
    const int n = 14;
    Rng circ_rng(11);
    circuit::Circuit circ = randomCircuit(n, 80, circ_rng);

    qsim::Counts reference;
    bool have_reference = false;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        qsim::Statevector sv(n);
        sv.applyCircuit(circ);
        Rng rng(99);
        qsim::Counts counts = sv.sample(rng, 2048);
        if (!have_reference) {
            reference = counts;
            have_reference = true;
        }
        EXPECT_TRUE(counts.map() == reference.map()) << "threads=" << tc;
    }
}

TEST(ThreadInvariance, NoisyTrajectoriesBitIdentical)
{
    ThreadGuard guard;
    const int n = 6;
    Rng circ_rng(13);
    circuit::Circuit circ = randomCircuit(n, 40, circ_rng);
    qsim::NoiseModel noise;
    noise.depol1q = 0.003;
    noise.depol2q = 0.01;
    noise.amplitudeDamping = 0.002;
    noise.readoutError = 0.01;

    qsim::Counts reference;
    bool have_reference = false;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        Rng rng(5);
        qsim::Counts counts = qsim::sampleNoisy(circ, n, BitVec{}, noise,
                                                rng, 512, /*trajectories=*/7);
        if (!have_reference) {
            reference = counts;
            have_reference = true;
        }
        EXPECT_TRUE(counts.map() == reference.map()) << "threads=" << tc;
        EXPECT_EQ(counts.total(), reference.total());
    }
}

// ---------------------------------------------------------------------
// Solver-level invariance: the whole pipeline, per solver
// ---------------------------------------------------------------------

TEST(ThreadInvariance, RasenganSolverBitIdentical)
{
    ThreadGuard guard;
    problems::Problem p = problems::makeBenchmark("F1");
    core::RasenganOptions opts;
    opts.execution = core::RasenganOptions::Execution::NoisyGateLevel;
    opts.noise.depol2q = 0.002;
    opts.noise.depol1q = 0.0002;
    opts.maxIterations = 12;
    opts.shotsPerSegment = 256;
    opts.trajectories = 4;

    core::RasenganResult reference;
    bool have_reference = false;
    for (int tc : kSweep) {
        opts.resilience.threads = tc; // the executor wires the pool
        core::RasenganSolver solver(p, opts);
        core::RasenganResult res = solver.run();
        EXPECT_EQ(parallel::threadCount(), tc);
        ASSERT_FALSE(res.failed);
        if (!have_reference) {
            reference = res;
            have_reference = true;
            continue;
        }
        EXPECT_EQ(res.solution, reference.solution) << "threads=" << tc;
        EXPECT_EQ(res.objectiveValue, reference.objectiveValue);
        EXPECT_EQ(res.expectedObjective, reference.expectedObjective);
        EXPECT_EQ(res.inConstraintsRate, reference.inConstraintsRate);
        ASSERT_EQ(res.finalDistribution.entries.size(),
                  reference.finalDistribution.entries.size());
        for (size_t i = 0; i < res.finalDistribution.entries.size(); ++i) {
            EXPECT_EQ(res.finalDistribution.entries[i].first,
                      reference.finalDistribution.entries[i].first);
            EXPECT_EQ(res.finalDistribution.entries[i].second,
                      reference.finalDistribution.entries[i].second);
        }
    }
}

/** Shared sweep for the baseline VQAs: exact objective + Counts match. */
template <typename Solver, typename Options>
void
sweepBaseline(Options opts)
{
    ThreadGuard guard;
    problems::Problem p = problems::makeBenchmark("F1");
    baselines::VqaResult reference;
    bool have_reference = false;
    for (int tc : kSweep) {
        opts.resilience.threads = tc;
        Solver solver(p, opts);
        baselines::VqaResult res = solver.run();
        EXPECT_EQ(parallel::threadCount(), tc);
        if (!have_reference) {
            reference = res;
            have_reference = true;
            continue;
        }
        EXPECT_EQ(res.expectedObjective, reference.expectedObjective)
            << "threads=" << tc;
        EXPECT_EQ(res.inConstraintsRate, reference.inConstraintsRate);
        EXPECT_TRUE(res.counts.map() == reference.counts.map());
        EXPECT_EQ(res.training.value, reference.training.value);
    }
}

TEST(ThreadInvariance, HeaBitIdentical)
{
    baselines::HeaOptions opts;
    opts.layers = 2;
    opts.maxIterations = 15;
    opts.shots = 256;
    sweepBaseline<baselines::Hea>(opts);
}

TEST(ThreadInvariance, PqaoaBitIdentical)
{
    baselines::PqaoaOptions opts;
    opts.layers = 2;
    opts.maxIterations = 15;
    opts.shots = 256;
    sweepBaseline<baselines::Pqaoa>(opts);
}

TEST(ThreadInvariance, ChocoqBitIdentical)
{
    baselines::ChocoqOptions opts;
    opts.layers = 2;
    opts.maxIterations = 15;
    opts.shots = 256;
    sweepBaseline<baselines::Chocoq>(opts);
}

// ---------------------------------------------------------------------
// Gate fusion
// ---------------------------------------------------------------------

TEST(Fusion, RandomCircuitEquivalence)
{
    FusionGuard fusion_guard;
    Rng rng(2026);
    size_t total_source = 0;
    size_t total_fused = 0;
    for (int trial = 0; trial < 500; ++trial) {
        int n = 5 + static_cast<int>(rng.uniformInt(0, 1));
        int depth = 10 + static_cast<int>(rng.uniformInt(0, 40));
        circuit::Circuit circ = randomCircuit(n, depth, rng);

        circuit::setFusionEnabled(false);
        qsim::Statevector plain(n);
        plain.applyCircuit(circ);

        circuit::FusedProgram prog = circuit::fuseCircuit(circ);
        EXPECT_LE(prog.fusedOps(), prog.sourceOps) << "trial " << trial;
        total_source += prog.sourceOps;
        total_fused += prog.fusedOps();
        qsim::Statevector fused(n);
        fused.applyFused(prog);

        const auto &pa = plain.amplitudes();
        const auto &fa = fused.amplitudes();
        ASSERT_EQ(pa.size(), fa.size());
        for (size_t i = 0; i < pa.size(); ++i) {
            ASSERT_NEAR(std::abs(pa[i] - fa[i]), 0.0, 1e-12)
                << "trial " << trial << " amplitude " << i;
        }
    }
    // Across 500 random circuits the pass must actually shorten the
    // program, not merely preserve semantics.
    EXPECT_LT(total_fused, total_source);
}

TEST(Fusion, CollapsesSingleQubitRunsAndDiagonalChains)
{
    circuit::Circuit circ(3);
    // Five 1q gates on wire 0 -> one fused unitary.
    circ.h(0);
    circ.rx(0, 0.3);
    circ.rz(0, -0.7);
    circ.ry(0, 0.1);
    circ.h(0);
    // A diagonal chain across wires -> one fused diagonal block.
    circ.p(1, 0.2);
    circ.rz(2, 0.4);
    circ.cp(1, 2, 0.6);
    circuit::FusedProgram prog = circuit::fuseCircuit(circ);
    EXPECT_EQ(prog.sourceOps, 8u);
    EXPECT_EQ(prog.fusedOps(), 2u);
}

TEST(Fusion, DropsIdentityRuns)
{
    circuit::Circuit circ(2);
    // H H = I on wire 0: the fused run cancels and must be elided.
    circ.h(0);
    circ.h(0);
    circ.x(1);
    circ.x(1);
    // Keep the circuit above the applyCircuit fusion threshold.
    circ.rx(0, 0.5);
    circuit::FusedProgram prog = circuit::fuseCircuit(circ);
    EXPECT_EQ(prog.fusedOps(), 1u);

    qsim::Statevector sv(2);
    sv.applyFused(prog);
    qsim::Statevector expected(2);
    expected.apply1q(0, circuit::gateMatrix(circuit::GateKind::RX, 0.5));
    for (size_t i = 0; i < sv.amplitudes().size(); ++i)
        EXPECT_NEAR(std::abs(sv.amplitudes()[i] - expected.amplitudes()[i]),
                    0.0, 1e-14);
}

TEST(Fusion, ToggleDisablesThePass)
{
    FusionGuard fusion_guard;
    circuit::setFusionEnabled(false);
    EXPECT_FALSE(circuit::fusionEnabled());
    circuit::setFusionEnabled(true);
    EXPECT_TRUE(circuit::fusionEnabled());
}

// ---------------------------------------------------------------------
// Alias sampler
// ---------------------------------------------------------------------

// The death tests below use the threadsafe style: earlier tests leave
// pool workers running, and a "fast" death test forks a process that
// carries none of them but may inherit a lock one of them held (under
// TSan the child then hangs).  gtest restores the flag after each test.

TEST(AliasTable, MatchesWeightDistribution)
{
    std::vector<double> weights = {1.0, 0.0, 3.0, 2.0, 0.5, 0.0, 4.5};
    double total = 11.0;
    qsim::AliasTable table(weights);
    Rng rng(17);
    std::vector<uint64_t> hits(weights.size(), 0);
    constexpr uint64_t draws = 200000;
    for (uint64_t s = 0; s < draws; ++s) {
        size_t idx = table.sample(rng);
        ASSERT_LT(idx, weights.size());
        ++hits[idx];
    }
    for (size_t i = 0; i < weights.size(); ++i) {
        double expected = weights[i] / total;
        double got = static_cast<double>(hits[i]) / draws;
        if (weights[i] == 0.0)
            EXPECT_EQ(hits[i], 0u) << "slot " << i;
        else
            EXPECT_NEAR(got, expected, 0.01) << "slot " << i;
    }
}

TEST(AliasTable, DeterministicForFixedSeed)
{
    std::vector<double> weights = {0.2, 1.7, 0.0, 2.6, 1.1};
    qsim::AliasTable a(weights);
    qsim::AliasTable b(weights);
    Rng ra(23);
    Rng rb(23);
    for (int s = 0; s < 1000; ++s)
        ASSERT_EQ(a.sample(ra), b.sample(rb));
}

TEST(AliasTable, SingleOutcome)
{
    std::vector<double> weights = {3.25};
    qsim::AliasTable table(weights);
    Rng rng(1);
    for (int s = 0; s < 100; ++s)
        EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, RejectsDegenerateInput)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH({ qsim::AliasTable t((std::vector<double>{})); },
                 "alias");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{0.0, 0.0}); },
                 "alias");
}

TEST(AliasTable, RejectsNonFiniteWeights)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{0.5, nan}); },
                 "non-finite");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{inf, 1.0}); },
                 "non-finite");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{-1.0, 2.0}); },
                 "negative");
    // Two weights that individually pass but overflow the sum.
    const double huge = std::numeric_limits<double>::max();
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{huge, huge}); },
                 "overflow");
}

TEST(AliasTable, WeightedIndexRejectsNonFinite)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(3);
    const double nan = std::nan("");
    EXPECT_DEATH(rng.weightedIndex({1.0, nan}), "non-finite");
    EXPECT_DEATH(rng.weightedIndex({0.0, 0.0}), "degenerate");
}

} // namespace
} // namespace rasengan
