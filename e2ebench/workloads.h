/**
 * @file
 * Seeded input generator for the benchmark's three workloads.
 *
 * The seed is the only input: the same seed always yields the same
 * request lines and problem instances, and the program under test sees
 * nothing but those.  Every seed draws the same *composition* (which
 * benchmarks, algorithms and execution modes, in what proportions) and
 * varies only instances, solver seeds, shots and order, so two seeds
 * measure the same kind of work and figures from different seeds are
 * comparable.  Why each workload exists is recorded next to its
 * generator below and in BENCHMARK.json.
 */

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

enum class Workload { SuiteExact, MixedWarm, ScaleFlp };

bool parseWorkload(const std::string &name, Workload *out);
const char *workloadName(Workload w);

/** One request line for the serve front ends, with its identity. */
struct ServeJobSpec
{
    std::string id;
    std::string line; ///< JSONL request as the client sends it
    std::string benchmark; ///< suite id the request names
    uint64_t caseIndex = 0;
    std::string algorithm;
};

/** One direct RasenganSolver job of the scale-flp workload. */
struct FlpJobSpec
{
    std::string id;
    int numVars = 0;
    uint64_t caseIndex = 0;
    int rounds = 1;      ///< chain rounds (-1 = Theorem 1's full m rounds)
    int iterations = 0;  ///< optimizer evaluation budget
    uint64_t seed = 0;   ///< solver seed
};

/** Request lines of suite-exact or mixed-warm for @p seed. */
std::vector<ServeJobSpec> serveJobs(Workload w, uint64_t seed);

/** Job list of scale-flp for @p seed. */
std::vector<FlpJobSpec> flpJobs(uint64_t seed);

/** Service batch seed (the scheduler/daemon child-seed salt). */
uint64_t batchSeedFor(uint64_t seed);

/** Print every input of @p w under @p seed (requests and problems). */
void dumpWorkload(Workload w, uint64_t seed, std::FILE *out);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_H
