/**
 * @file
 * A/B benchmark for the sparse simulation engine overhaul: the seed
 * hash-map engine (bench/legacy_sparsestate.h, preserved verbatim)
 * against the flat structure-of-arrays engine (qsim/sparsestate.h),
 * plus a thread sweep over the new parallel kernels and the
 * rotation-plan cache's replay-vs-direct timing and hit rate.
 *
 * Workload: the full pruned transition chain of the Figure-10
 * scalability FLP instances (up to 105 variables, maxTrackedStates
 * 20000 like bench_fig10), applied from the trivial feasible state --
 * exactly the inner loop the optimizer executes hundreds of times per
 * solve.  Every A/B case also records the maximum absolute amplitude
 * difference between the engines so the artifact doubles as an
 * agreement check (CI asserts <= 1e-10 and a plan-cache hit rate > 0).
 *
 * Knobs: RASENGAN_BENCH_FAST=1 trims sizes/repeats for CI smoke runs;
 * RASENGAN_BENCH_THREADS="1,2,4" overrides the sweep;
 * RASENGAN_BENCH_JSON overrides the output path (BENCH_sparse.json).
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/rasengan.h"
#include "legacy_sparsestate.h"
#include "problems/suite.h"
#include "qsim/sparseplan.h"
#include "qsim/sparsestate.h"

namespace {

using namespace rasengan;

struct Record
{
    std::string kernel;
    std::string variant; ///< "legacy", "soa", "threads=N", ...
    int threads = 1;
    int repeats = 0;
    double medianMs = 0.0;
    double minMs = 0.0;
    std::vector<std::pair<std::string, double>> extra;
};

std::vector<Record> g_records;

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Record &
timeKernel(const std::string &kernel, const std::string &variant,
           int threads, int repeats, const std::function<void()> &body)
{
    body(); // warmup
    std::vector<double> ms;
    ms.reserve(repeats);
    for (int r = 0; r < repeats; ++r) {
        Stopwatch sw;
        sw.start();
        body();
        sw.stop();
        ms.push_back(sw.seconds() * 1e3);
    }
    Record rec;
    rec.kernel = kernel;
    rec.variant = variant;
    rec.threads = threads;
    rec.repeats = repeats;
    rec.medianMs = medianOf(ms);
    rec.minMs = *std::min_element(ms.begin(), ms.end());
    g_records.push_back(std::move(rec));
    return g_records.back();
}

std::vector<int>
threadSweep()
{
    std::vector<int> sweep;
    if (const char *env = std::getenv("RASENGAN_BENCH_THREADS")) {
        int cur = 0;
        bool have = false;
        for (const char *c = env;; ++c) {
            if (*c >= '0' && *c <= '9') {
                cur = cur * 10 + (*c - '0');
                have = true;
            } else {
                if (have && cur > 0)
                    sweep.push_back(cur);
                cur = 0;
                have = false;
                if (!*c)
                    break;
            }
        }
    }
    if (sweep.empty())
        sweep = {1, 2, 4};
    return sweep;
}

/** One Figure-10 instance: problem + pruned chain + evolution times. */
struct ChainCase
{
    int numVars = 0;
    problems::Problem problem;
    std::vector<core::TransitionHamiltonian> transitions;
    std::vector<int> steps; ///< chain positions into `transitions`
    std::vector<double> times;
};

ChainCase
makeChainCase(int num_vars)
{
    ChainCase c{.numVars = num_vars,
                .problem = problems::makeScalabilityFlp(num_vars),
                .transitions = {},
                .steps = {},
                .times = {}};
    core::RasenganOptions opts;
    opts.maxTrackedStates = 20000; // bench_fig10's reachability cap
    core::PipelineArtifacts art =
        core::buildPipelineArtifacts(c.problem, opts);
    c.transitions = std::move(art.transitions);
    c.steps = art.chain.steps;
    Rng rng(17);
    c.times.reserve(c.steps.size());
    for (size_t k = 0; k < c.steps.size(); ++k)
        c.times.push_back(rng.uniformReal(0.3, 1.1));
    return c;
}

/** Run the full chain on the legacy engine; returns the final state. */
bench::LegacySparseState
runLegacy(const ChainCase &c)
{
    bench::LegacySparseState s(c.numVars, c.problem.trivialFeasible());
    for (size_t k = 0; k < c.steps.size(); ++k) {
        const auto &tau = c.transitions[c.steps[k]];
        s.applyPairRotation(tau.mask(), tau.patternPlus(), c.times[k]);
    }
    return s;
}

/** Run the full chain on the SoA engine; returns the final state. */
qsim::SparseState
runSoa(const ChainCase &c)
{
    qsim::SparseState s(c.numVars, c.problem.trivialFeasible());
    for (size_t k = 0; k < c.steps.size(); ++k) {
        const auto &tau = c.transitions[c.steps[k]];
        s.applyPairRotation(tau.mask(), tau.patternPlus(), c.times[k]);
    }
    return s;
}

/** Max |amp_legacy - amp_soa| over the union of both supports. */
double
maxAmplitudeDiff(const bench::LegacySparseState &legacy,
                 const qsim::SparseState &soa)
{
    double max_diff = 0.0;
    for (const auto &[x, a] : legacy.amplitudes())
        max_diff = std::max(max_diff, std::abs(a - soa.amplitude(x)));
    for (size_t i = 0; i < soa.keys().size(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(soa.amps()[i] -
                                     legacy.amplitude(soa.keys()[i])));
    return max_diff;
}

void
benchEngineAB(const std::vector<int> &sizes, int repeats)
{
    bench::banner("legacy hash-map vs flat SoA (single thread)");
    bench::Table table({"vars", "chain", "support", "legacy_ms", "soa_ms",
                        "speedup", "max_diff"});
    table.printHeader();
    parallel::setThreadCount(1);

    for (int v : sizes) {
        ChainCase c = makeChainCase(v);

        bench::LegacySparseState legacy_final = runLegacy(c);
        qsim::SparseState soa_final = runSoa(c);
        const double max_diff = maxAmplitudeDiff(legacy_final, soa_final);

        // NOTE: timeKernel's Record& is only valid until the next call
        // pushes into g_records -- attach extras before re-entering.
        auto commonExtras = [&](Record &r, size_t support) {
            r.extra.emplace_back("vars", v);
            r.extra.emplace_back("chain_steps",
                                 static_cast<double>(c.steps.size()));
            r.extra.emplace_back("support",
                                 static_cast<double>(support));
        };

        Record &old_rec =
            timeKernel("chain_evolution_" + std::to_string(v), "legacy", 1,
                       repeats, [&] {
                           bench::LegacySparseState s = runLegacy(c);
                           volatile size_t sink = s.supportSize();
                           (void)sink;
                       });
        commonExtras(old_rec, soa_final.supportSize());
        old_rec.extra.emplace_back("max_abs_diff", max_diff);
        const double legacy_ms = old_rec.medianMs;

        Record &new_rec =
            timeKernel("chain_evolution_" + std::to_string(v), "soa", 1,
                       repeats, [&] {
                           qsim::SparseState s = runSoa(c);
                           volatile size_t sink = s.supportSize();
                           (void)sink;
                       });
        const double soa_ms = new_rec.medianMs;
        const double speedup =
            soa_ms > 0.0 ? legacy_ms / soa_ms : 0.0;
        commonExtras(new_rec, soa_final.supportSize());
        new_rec.extra.emplace_back("max_abs_diff", max_diff);
        new_rec.extra.emplace_back("speedup_vs_legacy", speedup);

        table.cell(v);
        table.cell(static_cast<int>(c.steps.size()));
        table.cell(static_cast<int>(soa_final.supportSize()));
        table.cell(legacy_ms);
        table.cell(soa_ms);
        table.cell(speedup, "%.2f");
        table.cell(max_diff, "%.2e");
        table.endRow();
    }
}

void
benchThreadSweep(int num_vars, const std::vector<int> &sweep, int repeats)
{
    bench::banner("SoA kernels thread sweep");
    bench::Table table({"vars", "threads", "median_ms"});
    table.printHeader();

    ChainCase c = makeChainCase(num_vars);
    for (int tc : sweep) {
        parallel::setThreadCount(tc);
        Record &rec = timeKernel(
            "chain_evolution_" + std::to_string(num_vars),
            "threads=" + std::to_string(tc), tc, repeats, [&] {
                qsim::SparseState s = runSoa(c);
                volatile size_t sink = s.supportSize();
                (void)sink;
            });
        rec.extra.emplace_back("vars", num_vars);
        rec.extra.emplace_back("chain_steps",
                               static_cast<double>(c.steps.size()));
        table.cell(num_vars);
        table.cell(tc);
        table.cell(rec.medianMs);
        table.endRow();
    }
    parallel::setThreadCount(1);
}

/**
 * Thread sweep over the contiguous bulk kernels (phase, norm,
 * renormalize, prune scan) on a wide synthetic support.  The chain
 * sweep above is bounded by the serial pair-enumeration pass and
 * per-step pool dispatch; these kernels are where the SoA layout's
 * parallelism actually pays.
 */
void
benchBulkKernels(const std::vector<int> &sweep, int repeats)
{
    bench::banner("bulk SoA kernels thread sweep (synthetic support)");
    bench::Table table({"kernel", "support", "threads", "median_ms"});
    table.printHeader();

    const uint64_t support = bench::fastMode() ? (uint64_t{1} << 18)
                                               : (uint64_t{1} << 20);
    std::vector<BitVec> keys;
    std::vector<qsim::SparseState::Complex> amps;
    keys.reserve(support);
    amps.reserve(support);
    Rng rng(23);
    const double inv = 1.0 / std::sqrt(static_cast<double>(support));
    for (uint64_t i = 0; i < support; ++i) {
        keys.push_back(BitVec::fromIndex(i * 3 + 1));
        amps.emplace_back(inv * std::cos(0.01 * static_cast<double>(i)),
                          inv * std::sin(0.01 * static_cast<double>(i)));
    }

    for (int tc : sweep) {
        parallel::setThreadCount(tc);
        qsim::SparseState s = qsim::SparseState::fromSorted(
            64, keys, std::vector<qsim::SparseState::Complex>(amps));

        Record &rnorm = timeKernel("bulk_norm_squared",
                                   "threads=" + std::to_string(tc), tc,
                                   repeats, [&] {
                                       volatile double sink =
                                           s.normSquared();
                                       (void)sink;
                                   });
        rnorm.extra.emplace_back("support",
                                 static_cast<double>(support));
        table.cell("norm");
        table.cell(static_cast<int>(support));
        table.cell(tc);
        table.cell(rnorm.medianMs);
        table.endRow();

        Record &rphase = timeKernel(
            "bulk_apply_phase", "threads=" + std::to_string(tc), tc,
            repeats, [&] {
                s.applyPhase([](const BitVec &x) {
                    return 1e-7 * static_cast<double>(x.low64() & 0xffff);
                });
            });
        rphase.extra.emplace_back("support",
                                  static_cast<double>(support));
        table.cell("phase");
        table.cell(static_cast<int>(support));
        table.cell(tc);
        table.cell(rphase.medianMs);
        table.endRow();

        Record &rren = timeKernel("bulk_renormalize",
                                  "threads=" + std::to_string(tc), tc,
                                  repeats, [&] { s.renormalize(); });
        rren.extra.emplace_back("support", static_cast<double>(support));
        table.cell("renorm");
        table.cell(static_cast<int>(support));
        table.cell(tc);
        table.cell(rren.medianMs);
        table.endRow();

        Record &rprune = timeKernel(
            "bulk_prune_scan", "threads=" + std::to_string(tc), tc,
            repeats, [&] {
                volatile size_t sink = s.prune(1e-300);
                (void)sink;
            });
        rprune.extra.emplace_back("support",
                                  static_cast<double>(support));
        table.cell("prune");
        table.cell(static_cast<int>(support));
        table.cell(tc);
        table.cell(rprune.medianMs);
        table.endRow();
    }
    parallel::setThreadCount(1);
}

void
benchPlanCache(int num_vars, int iterations, int repeats)
{
    bench::banner("rotation-plan cache (optimizer-loop shape)");
    bench::Table table({"vars", "variant", "median_ms", "hit_rate"});
    table.printHeader();
    parallel::setThreadCount(1);

    problems::Problem p = problems::makeScalabilityFlp(num_vars);
    core::RasenganOptions base;
    base.maxTrackedStates = 20000;
    base.execution = core::RasenganOptions::Execution::ExactSparse;

    // The optimizer-loop shape: execute() the segmented pipeline
    // `iterations` times with slightly different angle vectors, as
    // training does.  The cached solver records on iteration 0 and
    // replays thereafter.
    auto loop = [&](bool cache) {
        core::RasenganOptions o = base;
        o.cacheRotationPlans = cache;
        core::RasenganSolver solver(p, o);
        std::vector<double> times(solver.numParams(), 0.6);
        Rng rng(5);
        for (int it = 0; it < iterations; ++it) {
            for (auto &t : times)
                t = 0.4 + 0.002 * it + 0.3 * std::sin(0.37 * it);
            auto dist = solver.execute(times, rng);
            volatile size_t sink = dist.entries.size();
            (void)sink;
        }
        return solver.planStats();
    };

    core::PlanStats stats_off, stats_on;
    // timeKernel's Record& dangles once the next call pushes into
    // g_records: finish each record before timing the next variant.
    Record &off = timeKernel("optimizer_loop_" + std::to_string(num_vars),
                             "plan_cache_off", 1, repeats,
                             [&] { stats_off = loop(false); });
    off.extra.emplace_back("vars", num_vars);
    off.extra.emplace_back("iterations", iterations);
    const double off_ms = off.medianMs;

    Record &on = timeKernel("optimizer_loop_" + std::to_string(num_vars),
                            "plan_cache_on", 1, repeats,
                            [&] { stats_on = loop(true); });

    const double lookups =
        static_cast<double>(stats_on.hits() + stats_on.misses());
    const double hit_rate =
        lookups > 0.0 ? static_cast<double>(stats_on.hits()) / lookups : 0.0;
    on.extra.emplace_back("vars", num_vars);
    on.extra.emplace_back("iterations", iterations);
    on.extra.emplace_back("plan_hit_rate", hit_rate);
    on.extra.emplace_back("plans_recorded",
                          static_cast<double>(stats_on.recorded));
    on.extra.emplace_back("plans_replayed",
                          static_cast<double>(stats_on.replayed));
    on.extra.emplace_back("plans_aborted",
                          static_cast<double>(stats_on.aborted));
    on.extra.emplace_back("speedup_vs_uncached",
                          on.medianMs > 0.0 ? off_ms / on.medianMs
                                            : 0.0);

    table.cell(num_vars);
    table.cell("off");
    table.cell(off_ms);
    table.cell("-");
    table.endRow();
    table.cell(num_vars);
    table.cell("on");
    table.cell(on.medianMs);
    table.cell(hit_rate, "%.3f");
    table.endRow();
}

void
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"sparse\",\n");
    std::fprintf(f, "  \"records\": [\n");
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &r = g_records[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                     "\"threads\": %d, \"repeats\": %d, "
                     "\"median_ms\": %.6f, \"min_ms\": %.6f",
                     r.kernel.c_str(), r.variant.c_str(), r.threads,
                     r.repeats, r.medianMs, r.minMs);
        for (const auto &[key, value] : r.extra)
            std::fprintf(f, ", \"%s\": %g", key.c_str(), value);
        std::fprintf(f, "}%s\n", i + 1 < g_records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::printf("\nwrote %zu records to %s\n", g_records.size(),
                path.c_str());
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    const int repeats = fast ? 3 : 5;
    const std::vector<int> sweep = threadSweep();

    // Figure-10 FLP sizes; fast mode keeps the tail short for CI.
    std::vector<int> sizes;
    for (int v : problems::scalabilityFlpSizes()) {
        if (v > (fast ? 60 : 105))
            break;
        if (v >= 14)
            sizes.push_back(v);
    }

    std::printf("sparse engine bench: %zu FLP sizes (max %d vars), "
                "%d repeats%s\n",
                sizes.size(), sizes.back(), repeats,
                fast ? " (fast mode)" : "");

    benchEngineAB(sizes, repeats);
    benchThreadSweep(sizes.back(), sweep, repeats);
    benchBulkKernels(sweep, repeats);
    benchPlanCache(fast ? 33 : 52, fast ? 10 : 30, fast ? 2 : 3);

    const char *env = std::getenv("RASENGAN_BENCH_JSON");
    writeJson(env && *env ? env : "BENCH_sparse.json");
    return 0;
}
