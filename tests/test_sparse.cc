/**
 * @file
 * Tests for the flat structure-of-arrays sparse engine
 * (qsim/sparsestate.h) and the rotation-plan cache
 * (qsim/sparseplan.h): cross-validation against a dense reference
 * evolution at 1e-12, prune/renormalize edge cases, key-order
 * invariants of the merge kernels, bit-identical results across thread
 * counts (including a support large enough to split into chunks), plan
 * record/replay equivalence including the pruning-forced invalidation
 * and abort paths, and deterministic Counts serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/basis.h"
#include "core/rasengan.h"
#include "core/transition.h"
#include "problems/suite.h"
#include "qsim/counts.h"
#include "qsim/sparseplan.h"
#include "qsim/sparsestate.h"

namespace rasengan {
namespace {

using core::TransitionHamiltonian;
using qsim::SparseState;
using Complex = SparseState::Complex;

constexpr double kPi = std::numbers::pi;

/** RAII: restore the env-derived thread configuration on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { parallel::setThreadCount(0); }
};

/** Random transition vector with entries in {-1, 0, 1}, not all zero. */
linalg::IntVec
randomTransition(int n, Rng &rng)
{
    for (;;) {
        linalg::IntVec u(n);
        bool nonzero = false;
        for (int i = 0; i < n; ++i) {
            u[i] = static_cast<int>(rng.uniformInt(0, 2)) - 1;
            nonzero |= u[i] != 0;
        }
        if (nonzero)
            return u;
    }
}

/**
 * Reference evolution on a dense 2^n amplitude vector, straight from
 * the partner/dark semantics of Definition 1 (no pruning, no sparse
 * bookkeeping): every state with a partner takes the two-level
 * rotation, dark states are untouched.
 */
void
denseReferenceApply(std::vector<Complex> &amps,
                    const TransitionHamiltonian &tau, double t)
{
    const Complex ms = Complex{0.0, -1.0} * std::sin(t);
    const double c = std::cos(t);
    std::vector<Complex> next = amps;
    for (uint64_t idx = 0; idx < amps.size(); ++idx) {
        BitVec x = BitVec::fromIndex(idx);
        if (auto y = tau.partner(x))
            next[idx] = c * amps[idx] + ms * amps[y->toIndex()];
    }
    amps = std::move(next);
}

void
expectMatchesDenseReference(int n, int steps, uint64_t seed)
{
    Rng rng(seed);
    BitVec start = BitVec::fromIndex(rng.uniformInt(0, (1u << n) - 1));
    SparseState sparse(n, start);
    std::vector<Complex> dense(uint64_t{1} << n, Complex{0.0, 0.0});
    dense[start.toIndex()] = Complex{1.0, 0.0};

    for (int k = 0; k < steps; ++k) {
        TransitionHamiltonian tau(randomTransition(n, rng));
        double t = rng.uniformReal(0.1, 1.4);
        tau.applyTo(sparse, t);
        denseReferenceApply(dense, tau, t);
    }

    for (uint64_t idx = 0; idx < dense.size(); ++idx) {
        BitVec y = BitVec::fromIndex(idx);
        EXPECT_NEAR(std::abs(sparse.amplitude(y) - dense[idx]), 0.0, 1e-12)
            << "n=" << n << " seed=" << seed << " y=" << idx;
    }
}

TEST(SparseVsDense, RandomChainsUpTo14Qubits)
{
    expectMatchesDenseReference(4, 12, 11);
    expectMatchesDenseReference(8, 16, 12);
    expectMatchesDenseReference(12, 20, 13);
    expectMatchesDenseReference(14, 20, 14);
}

TEST(SparseState, KeysStayStrictlySortedUnderRotationsAndX)
{
    Rng rng(21);
    const int n = 10;
    SparseState s(n, BitVec::fromIndex(37));
    for (int k = 0; k < 25; ++k) {
        TransitionHamiltonian tau(randomTransition(n, rng));
        tau.applyTo(s, rng.uniformReal(0.1, 1.4));
        if (k % 3 == 0)
            s.applyX(static_cast<int>(rng.uniformInt(0, n - 1)));
        const auto &keys = s.keys();
        for (size_t i = 1; i < keys.size(); ++i)
            ASSERT_TRUE(keys[i - 1] < keys[i]) << "after step " << k;
        ASSERT_EQ(keys.size(), s.amps().size());
    }
}

TEST(SparseState, ApplyXMatchesAmplitudeRelabeling)
{
    Rng rng(31);
    const int n = 9;
    SparseState s(n, BitVec::fromIndex(5));
    for (int k = 0; k < 8; ++k)
        TransitionHamiltonian(randomTransition(n, rng))
            .applyTo(s, rng.uniformReal(0.2, 1.2));
    SparseState flipped = s;
    const int q = 4;
    flipped.applyX(q);
    ASSERT_EQ(flipped.supportSize(), s.supportSize());
    for (size_t i = 0; i < s.keys().size(); ++i) {
        BitVec y = s.keys()[i];
        y.flip(q);
        EXPECT_EQ(flipped.amplitude(y), s.amps()[i]);
    }
}

TEST(SparseState, RotationCreatesUnpopulatedPartner)
{
    TransitionHamiltonian tau({-1, 1, 0, 0});
    SparseState s(4, BitVec::fromString("1000"));
    const double t = 0.8;
    // Partner |0100> is not populated: the rotation must create it with
    // amplitude -i sin(t) while the source keeps cos(t).
    s.applyPairRotation(tau.mask(), tau.patternPlus(), t);
    ASSERT_EQ(s.supportSize(), 2u);
    EXPECT_NEAR(std::abs(s.amplitude(BitVec::fromString("1000")) -
                         Complex{std::cos(t), 0.0}),
                0.0, 1e-15);
    EXPECT_NEAR(std::abs(s.amplitude(BitVec::fromString("0100")) -
                         Complex{0.0, -std::sin(t)}),
                0.0, 1e-15);
}

TEST(SparseState, DarkStatesAreUntouched)
{
    // |0000> is dark for u = (-1,1,0,0): neither pattern matches.
    TransitionHamiltonian tau({-1, 1, 0, 0});
    SparseState s(4, BitVec{});
    s.applyPairRotation(tau.mask(), tau.patternPlus(), 1.1);
    ASSERT_EQ(s.supportSize(), 1u);
    EXPECT_EQ(s.amplitude(BitVec{}), (Complex{1.0, 0.0}));
}

TEST(SparseState, PruneDropsBelowThresholdAndBumpsEpoch)
{
    SparseState s = SparseState::fromSorted(
        4,
        {BitVec::fromIndex(1), BitVec::fromIndex(3), BitVec::fromIndex(9)},
        {Complex{1e-14, 0.0}, Complex{0.8, 0.0}, Complex{0.0, 0.6}});
    const uint64_t epoch0 = s.supportEpoch();
    EXPECT_EQ(s.prune(1e-24), 1u);
    EXPECT_EQ(s.supportEpoch(), epoch0 + 1);
    ASSERT_EQ(s.supportSize(), 2u);
    EXPECT_EQ(s.keys()[0], BitVec::fromIndex(3));
    EXPECT_EQ(s.keys()[1], BitVec::fromIndex(9));
    // Nothing left below threshold: a second prune is a no-op and must
    // NOT advance the epoch.
    EXPECT_EQ(s.prune(1e-24), 0u);
    EXPECT_EQ(s.supportEpoch(), epoch0 + 1);
    s.renormalize();
    EXPECT_NEAR(s.normSquared(), 1.0, 1e-12);
}

TEST(SparseState, PruneCanEmptyTheSupport)
{
    SparseState s = SparseState::fromSorted(
        3, {BitVec::fromIndex(2), BitVec::fromIndex(5)},
        {Complex{1e-15, 0.0}, Complex{0.0, 1e-16}});
    EXPECT_EQ(s.prune(1e-24), 2u);
    EXPECT_EQ(s.supportSize(), 0u);
    EXPECT_EQ(s.normSquared(), 0.0);
}

TEST(SparseState, SingleStatePruneKeepsItWhenAboveThreshold)
{
    SparseState s(6, BitVec::fromIndex(17));
    EXPECT_EQ(s.prune(), 0u);
    ASSERT_EQ(s.supportSize(), 1u);
    EXPECT_EQ(s.amplitude(BitVec::fromIndex(17)), (Complex{1.0, 0.0}));
}

TEST(SparseState, HalfPiRotationPrunesTheSource)
{
    // cos(pi/2) ~ 6e-17 -> |amp|^2 ~ 4e-33 < default threshold: the
    // default policy drops the rotated-away source state.
    TransitionHamiltonian tau({1, -1, 0});
    SparseState s(3, BitVec::fromString("010"));
    tau.applyTo(s, kPi / 2);
    EXPECT_EQ(s.supportSize(), 1u);
    // With pruning disabled the numerical zero survives.
    SparseState kept(3, BitVec::fromString("010"));
    tau.applyTo(kept, kPi / 2, /*prune_threshold=*/0.0);
    EXPECT_EQ(kept.supportSize(), 2u);
}

TEST(SparseState, FromSortedRejectsUnsortedKeys)
{
    EXPECT_DEATH(SparseState::fromSorted(
                     3, {BitVec::fromIndex(5), BitVec::fromIndex(2)},
                     {Complex{1.0, 0.0}, Complex{0.0, 0.0}}),
                 "");
}

TEST(SparseState, ResultsAreBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    problems::Problem p = problems::makeBenchmark("J1");
    auto transitions = core::makeTransitions(core::homogeneousBasis(p));

    std::vector<BitVec> ref_keys;
    std::vector<Complex> ref_amps;
    qsim::Counts ref_counts;
    for (int tc : {1, 2, 7}) {
        parallel::setThreadCount(tc);
        SparseState s(p.numVars(), p.trivialFeasible());
        Rng rng(5);
        for (int round = 0; round < 3; ++round)
            for (const auto &tau : transitions)
                tau.applyTo(s, rng.uniformReal(0.1, 1.4));
        s.renormalize();
        qsim::Counts counts = s.sample(rng, 2000);
        if (tc == 1) {
            ref_keys = s.keys();
            ref_amps = s.amps();
            ref_counts = counts;
            continue;
        }
        ASSERT_EQ(s.keys().size(), ref_keys.size()) << "threads=" << tc;
        EXPECT_TRUE(std::equal(ref_keys.begin(), ref_keys.end(),
                               s.keys().begin()))
            << "threads=" << tc;
        EXPECT_EQ(std::memcmp(s.amps().data(), ref_amps.data(),
                              ref_amps.size() * sizeof(Complex)),
                  0)
            << "threads=" << tc;
        EXPECT_EQ(counts.sorted(), ref_counts.sorted())
            << "threads=" << tc;
    }
}

TEST(SparseState, LargeSupportBitIdenticalAcrossThreadCounts)
{
    // J1's support stays below one parallel-for grain, so the test
    // above never splits a kernel into chunks.  A chain of overlapping
    // two-bit transitions grows this support past two grains, so the
    // classify, scatter and rotate passes run in several chunks.
    ThreadGuard guard;
    const int n = 16;
    auto run = [&]() {
        SparseState st(n, BitVec{});
        for (int step = 0; step < 24; ++step) {
            BitVec mask;
            mask.set(step % n);
            mask.set((step * 5 + 1) % n);
            // plus pattern = all-zero on the support: pairs x with
            // x^mask for every x whose mask bits are 00 or 11, so the
            // support grows roughly 2x per step until saturation.
            st.applyPairRotation(mask, BitVec{}, 0.21 + 0.01 * step,
                                 SparseState::kDefaultPruneThreshold);
        }
        return st;
    };

    parallel::setThreadCount(1);
    SparseState reference = run();
    // At least two chunks of one grain each.
    ASSERT_GT(reference.supportSize(), 2 * parallel::kDefaultGrain);
    for (int tc : {2, 7}) {
        parallel::setThreadCount(tc);
        SparseState st = run();
        ASSERT_EQ(st.supportSize(), reference.supportSize())
            << "threads=" << tc;
        EXPECT_TRUE(st.keys() == reference.keys()) << "threads=" << tc;
        EXPECT_EQ(std::memcmp(st.amps().data(), reference.amps().data(),
                              reference.amps().size() * sizeof(Complex)),
                  0)
            << "threads=" << tc;
    }
}

/** Record a plan over a few transitions of the J1 basis. */
struct RecordedSegment
{
    int n = 0;
    std::vector<TransitionHamiltonian> taus;
    std::vector<double> times;
    qsim::SparseSegmentPlan plan;
    SparseState state{1, BitVec{}};
};

RecordedSegment
recordJ1Segment(const std::vector<double> &times)
{
    problems::Problem p = problems::makeBenchmark("J1");
    auto transitions = core::makeTransitions(core::homogeneousBasis(p));
    RecordedSegment rec;
    rec.n = p.numVars();
    rec.times = times;
    rec.plan.numQubits = rec.n;
    rec.plan.initial = p.trivialFeasible();
    SparseState s(rec.n, p.trivialFeasible());
    const uint64_t epoch0 = s.supportEpoch();
    for (size_t k = 0; k < times.size(); ++k) {
        const auto &tau = transitions[k % transitions.size()];
        rec.taus.push_back(tau);
        s.applyPairRotation(tau.mask(), tau.patternPlus(), times[k],
                            SparseState::kDefaultPruneThreshold,
                            &rec.plan.steps.emplace_back());
    }
    if (s.supportEpoch() != epoch0)
        rec.plan.replayable = false;
    else
        rec.plan.finalKeys = s.keys();
    rec.state = std::move(s);
    return rec;
}

TEST(SparsePlan, ReplayIsBitIdenticalToDirectExecution)
{
    RecordedSegment rec = recordJ1Segment({0.7, 0.4, 1.1, 0.9});
    ASSERT_TRUE(rec.plan.replayable);
    auto replayed = qsim::replaySegmentPlan(rec.plan, rec.times.data());
    ASSERT_TRUE(replayed.has_value());
    ASSERT_EQ(replayed->supportSize(), rec.state.supportSize());
    EXPECT_TRUE(std::equal(rec.state.keys().begin(), rec.state.keys().end(),
                           replayed->keys().begin()));
    EXPECT_EQ(std::memcmp(replayed->amps().data(), rec.state.amps().data(),
                          rec.state.amps().size() * sizeof(Complex)),
              0);
}

TEST(SparsePlan, ReplayWithNewAnglesMatchesDirect)
{
    // The whole point of the cache: the structure is angle-independent,
    // so a plan recorded at one angle vector replays others exactly.
    RecordedSegment rec = recordJ1Segment({0.7, 0.4, 1.1, 0.9});
    ASSERT_TRUE(rec.plan.replayable);
    std::vector<double> other{1.3, 0.2, 0.8, 0.5};
    auto replayed = qsim::replaySegmentPlan(rec.plan, other.data());
    ASSERT_TRUE(replayed.has_value());

    SparseState direct(rec.n, rec.plan.initial);
    for (size_t k = 0; k < other.size(); ++k)
        direct.applyPairRotation(rec.taus[k].mask(),
                                 rec.taus[k].patternPlus(), other[k]);
    ASSERT_EQ(replayed->supportSize(), direct.supportSize());
    EXPECT_TRUE(std::equal(direct.keys().begin(), direct.keys().end(),
                           replayed->keys().begin()));
    EXPECT_EQ(std::memcmp(replayed->amps().data(), direct.amps().data(),
                          direct.amps().size() * sizeof(Complex)),
              0);
}

TEST(SparsePlan, ReplayAbortsWhenAnglesWouldPrune)
{
    // pi/2 rotates the source to numerical zero: direct execution
    // prunes, so replay must refuse and hand back to the kernels.
    RecordedSegment rec = recordJ1Segment({0.7, 0.4, 1.1, 0.9});
    ASSERT_TRUE(rec.plan.replayable);
    std::vector<double> pruning(rec.times.size(), kPi / 2);
    EXPECT_FALSE(
        qsim::replaySegmentPlan(rec.plan, pruning.data()).has_value());
}

TEST(SparsePlan, RecordingUnderPruningMarksPlanUnreplayable)
{
    RecordedSegment rec =
        recordJ1Segment({kPi / 2, kPi / 2, kPi / 2, kPi / 2});
    EXPECT_FALSE(rec.plan.replayable);
}

TEST(SparsePlan, FingerprintSeparatesStructures)
{
    problems::Problem p = problems::makeBenchmark("J1");
    auto transitions = core::makeTransitions(core::homogeneousBasis(p));
    std::vector<std::pair<BitVec, BitVec>> steps;
    for (const auto &tau : transitions)
        steps.emplace_back(tau.mask(), tau.patternPlus());

    const uint64_t base = qsim::planStructureFingerprint(
        p.numVars(), p.trivialFeasible(), steps);
    EXPECT_EQ(qsim::planStructureFingerprint(p.numVars(),
                                             p.trivialFeasible(), steps),
              base);

    BitVec other = p.trivialFeasible();
    other.flip(0);
    EXPECT_NE(qsim::planStructureFingerprint(p.numVars(), other, steps),
              base);
    std::vector<std::pair<BitVec, BitVec>> shorter(steps.begin(),
                                                   steps.end() - 1);
    EXPECT_NE(qsim::planStructureFingerprint(p.numVars(),
                                             p.trivialFeasible(), shorter),
              base);
}

TEST(PlanCache, SolverResultsIdenticalWithCachingOnAndOff)
{
    problems::Problem p = problems::makeBenchmark("J1");
    core::RasenganOptions on;
    on.cacheRotationPlans = true;
    core::RasenganOptions off = on;
    off.cacheRotationPlans = false;
    core::RasenganSolver cached(p, on);
    core::RasenganSolver direct(p, off);

    std::vector<double> times(cached.numParams(), 0.6);
    Rng rng_a(3), rng_b(3);
    // First call records, second replays: both must equal the uncached
    // solver's output exactly.
    for (int round = 0; round < 3; ++round) {
        for (auto &t : times)
            t += 0.05 * round;
        auto a = cached.execute(times, rng_a);
        auto b = direct.execute(times, rng_b);
        auto key = [](const std::pair<BitVec, double> &x,
                      const std::pair<BitVec, double> &y) {
            return x.first < y.first;
        };
        std::sort(a.entries.begin(), a.entries.end(), key);
        std::sort(b.entries.begin(), b.entries.end(), key);
        ASSERT_EQ(a.entries.size(), b.entries.size());
        for (size_t i = 0; i < a.entries.size(); ++i) {
            EXPECT_EQ(a.entries[i].first, b.entries[i].first);
            EXPECT_NEAR(a.entries[i].second, b.entries[i].second, 1e-10);
        }
    }
    EXPECT_GT(cached.planStats().recorded, 0u);
    EXPECT_GT(cached.planStats().replayed, 0u);
    EXPECT_EQ(direct.planStats().recorded, 0u);
    EXPECT_EQ(direct.planStats().replayed, 0u);
}

TEST(PlanCache, PruningForcedFallbackStillMatchesDirect)
{
    problems::Problem p = problems::makeBenchmark("J1");
    core::RasenganOptions on;
    on.cacheRotationPlans = true;
    core::RasenganOptions off = on;
    off.cacheRotationPlans = false;
    core::RasenganSolver cached(p, on);
    core::RasenganSolver direct(p, off);

    // Record healthy plans first, then execute at pi/2 where every
    // rotation prunes its source: replay must abort (or the recording
    // itself must have been invalidated) and fall back to the kernels,
    // still agreeing with the uncached solver.
    std::vector<double> warm(cached.numParams(), 0.7);
    Rng rng_w(9);
    cached.execute(warm, rng_w);

    std::vector<double> pruning(cached.numParams(), kPi / 2);
    Rng rng_a(9), rng_b(9);
    auto a = cached.execute(pruning, rng_a);
    auto b = direct.execute(pruning, rng_b);
    EXPECT_GT(cached.planStats().aborted + cached.planStats().invalidated,
              0u);
    ASSERT_EQ(a.failed, b.failed);
    auto key = [](const std::pair<BitVec, double> &x,
                  const std::pair<BitVec, double> &y) {
        return x.first < y.first;
    };
    std::sort(a.entries.begin(), a.entries.end(), key);
    std::sort(b.entries.begin(), b.entries.end(), key);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].first, b.entries[i].first);
        EXPECT_NEAR(a.entries[i].second, b.entries[i].second, 1e-10);
    }
}

std::string
serializeCounts(const qsim::Counts &counts, int n)
{
    std::ostringstream os;
    for (const auto &[outcome, cnt] : counts.sorted())
        os << outcome.toString(n) << ":" << cnt << "\n";
    return os.str();
}

TEST(CountsDeterminism, SerializationIsByteIdenticalAcrossInsertionOrder)
{
    Rng rng(77);
    std::vector<std::pair<BitVec, uint64_t>> entries;
    for (int i = 0; i < 200; ++i)
        entries.emplace_back(BitVec::fromIndex(rng.uniformInt(0, 1 << 16)),
                             1 + rng.uniformInt(0, 50));

    qsim::Counts forward, backward, shuffled;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        backward.add(it->first, it->second);
    std::vector<std::pair<BitVec, uint64_t>> perm = entries;
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.uniformInt(0, i - 1)]);
    for (const auto &[k, v] : perm)
        shuffled.add(k, v);

    const std::string ref = serializeCounts(forward, 17);
    EXPECT_EQ(serializeCounts(backward, 17), ref);
    EXPECT_EQ(serializeCounts(shuffled, 17), ref);

    // sorted() is strictly ascending and preserves the totals.
    auto sorted = forward.sorted();
    for (size_t i = 1; i < sorted.size(); ++i)
        EXPECT_TRUE(sorted[i - 1].first < sorted[i].first);
    uint64_t total = 0;
    for (const auto &[k, v] : sorted)
        total += v;
    EXPECT_EQ(total, forward.total());
}

TEST(CountsDeterminism, ExpectationIsInsertionOrderIndependent)
{
    // The FP sum must be accumulated in sorted order: identical bytes
    // out regardless of how the histogram was built.
    Rng rng(101);
    std::vector<std::pair<BitVec, uint64_t>> entries;
    for (int i = 0; i < 300; ++i)
        entries.emplace_back(BitVec::fromIndex(rng.uniformInt(0, 1 << 20)),
                             1 + rng.uniformInt(0, 9));
    qsim::Counts forward, backward;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        backward.add(it->first, it->second);
    auto value = [](const BitVec &x) {
        return std::sin(static_cast<double>(x.low64() % 997)) * 1e6;
    };
    const double a = forward.expectation(value);
    const double b = backward.expectation(value);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
}

} // namespace
} // namespace rasengan
