#include "qsim/sparseplan.h"

#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "qsim/simd.h"

namespace rasengan::qsim {

namespace {

constexpr std::complex<double> kI{0.0, 1.0};

} // namespace

uint64_t
SparseSegmentPlan::approxBytes() const
{
    uint64_t bytes = sizeof(SparseSegmentPlan);
    for (const SparseStepPlan &s : steps) {
        bytes += s.scatter.capacity() * sizeof(uint32_t);
        bytes += s.pairs.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
        bytes += sizeof(SparseStepPlan);
    }
    bytes += finalKeys.capacity() * sizeof(BitVec);
    return bytes;
}

std::optional<SparseState>
replaySegmentPlan(const SparseSegmentPlan &plan, const double *times,
                  double prune_threshold)
{
    panic_if(!plan.replayable, "replaying an invalidated segment plan");
    using Complex = SparseState::Complex;

    std::vector<Complex> cur{Complex{1.0, 0.0}};
    std::vector<Complex> next;
    for (size_t step = 0; step < plan.steps.size(); ++step) {
        const SparseStepPlan &sp = plan.steps[step];
        const double c = std::cos(times[step]);
        const Complex ms = -kI * std::sin(times[step]);
        const uint64_t n_next = sp.scatter.size();
        next.resize(n_next);
        parallel::parallelFor(
            0, n_next, parallel::kDefaultGrain,
            [&](uint64_t b, uint64_t e) {
                for (uint64_t k = b; k < e; ++k) {
                    uint32_t src = sp.scatter[k];
                    next[k] = src == kPlanNoSource ? Complex{0.0, 0.0}
                                                   : cur[src];
                }
            });
        parallel::parallelFor(
            0, sp.pairs.size(), parallel::kDefaultGrain,
            [&](uint64_t b, uint64_t e) {
                sparsePairRotate(next.data(), sp.pairs.data(), b, e, c,
                                 ms);
            });
        cur.swap(next);
        if (prune_threshold > 0.0) {
            // The direct kernels would prune here; the plan's structure
            // no longer matches these angles, so hand back to them.
            // (A boolean OR over blocks: order-independent, so the
            // abort decision is identical at every thread count.)
            std::atomic<bool> would_prune{false};
            parallel::parallelFor(
                0, cur.size(), parallel::kDefaultGrain,
                [&](uint64_t b, uint64_t e) {
                    bool local = false;
                    for (uint64_t i = b; i < e; ++i)
                        local |= std::norm(cur[i]) < prune_threshold;
                    if (local)
                        would_prune.store(true,
                                          std::memory_order_relaxed);
                });
            if (would_prune.load(std::memory_order_relaxed))
                return std::nullopt;
        }
    }
    panic_if(cur.size() != plan.finalKeys.size(),
             "segment plan replay produced {} amplitudes for {} keys",
             cur.size(), plan.finalKeys.size());
    return SparseState::fromSorted(plan.numQubits,
                                   plan.finalKeys, std::move(cur));
}

uint64_t
planStructureFingerprint(int num_qubits, const BitVec &initial,
                         const std::vector<std::pair<BitVec, BitVec>> &steps)
{
    constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = kOffset;
    auto mix64 = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= kPrime;
        }
    };
    auto mix_bits = [&](const BitVec &v) {
        mix64(v.low64());
        mix64(v.high64());
    };
    mix64(static_cast<uint64_t>(num_qubits));
    mix_bits(initial);
    mix64(steps.size());
    for (const auto &[mask, pattern] : steps) {
        mix_bits(mask);
        mix_bits(pattern);
    }
    return h;
}

} // namespace rasengan::qsim
