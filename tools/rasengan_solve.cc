/**
 * @file
 * Command-line solver.
 *
 * Usage:
 *   rasengan_solve --benchmark F1 [options]
 *   rasengan_solve --file instance.txt [options]
 *   rasengan_solve --dump F1              # print an instance file
 *
 * Options:
 *   --algorithm rasengan|chocoq|pqaoa|hea   (default rasengan)
 *   --iterations N                          (default 200)
 *   --seed S                                (default 7)
 *   --noise none|kyiv|brisbane              (default none)
 *   --optimizer cobyla|nelder-mead|spsa|adam-spsa
 *   --draw                                  ASCII-draw the first segment
 *   --qasm                                  dump the first segment QASM
 *   --faults RATE    inject transient faults at RATE (0..1) per execution
 *   --retries N      retry budget per execution (default 5)
 *   --checkpoint P   checkpoint/resume the solve through file P
 *
 * Shared flags (README "Common serving flags"): --threads N (>= 1;
 * results are bit-identical at every setting), --simd, --trace,
 * --metrics, --flight.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/chocoq.h"
#include "common/parallel.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/draw.h"
#include "core/rasengan.h"
#include "device/device.h"
#include "problems/io.h"
#include "problems/metrics.h"
#include "problems/suite.h"
#include "obs_cli.h"

using namespace rasengan;

namespace {

struct Args
{
    std::string benchmark;
    std::string file;
    std::string dump;
    std::string algorithm = "rasengan";
    std::string noise = "none";
    std::string optimizer = "cobyla";
    int iterations = 200;
    uint64_t seed = 7;
    bool draw = false;
    bool qasm = false;
    double faults = 0.0;
    int retries = 5;
    std::string checkpoint;
    serve::ServiceConfig service; ///< only --threads applies here
    tools::ObsCliOptions obs;
};

/** Every flag, registered to write into @p args. */
tools::FlagSet
solveFlags(Args &args)
{
    tools::FlagSet flags(
        "rasengan_solve (--benchmark ID | --file PATH | --dump ID) "
        "[options]");
    flags.text("--benchmark", "ID", &args.benchmark);
    flags.text("--file", "PATH", &args.file);
    flags.text("--dump", "ID", &args.dump);
    flags.text("--algorithm", "rasengan|chocoq|pqaoa|hea", &args.algorithm);
    flags.count("--iterations", "N", &args.iterations);
    flags.count("--seed", "S", &args.seed);
    flags.text("--noise", "none|kyiv|brisbane", &args.noise);
    flags.text("--optimizer", "cobyla|nelder-mead|spsa|adam-spsa",
               &args.optimizer);
    flags.toggle("--draw", &args.draw);
    flags.toggle("--qasm", &args.qasm);
    flags.number("--faults", "RATE", &args.faults);
    flags.count("--retries", "N", &args.retries, 1);
    flags.text("--checkpoint", "PATH", &args.checkpoint);
    tools::addServiceFlags(flags, tools::Front::Solve, args.service,
                           args.obs);
    return flags;
}

std::optional<opt::Method>
parseOptimizer(const std::string &name)
{
    if (name == "cobyla")
        return opt::Method::Cobyla;
    if (name == "nelder-mead")
        return opt::Method::NelderMead;
    if (name == "spsa")
        return opt::Method::Spsa;
    if (name == "adam-spsa")
        return opt::Method::AdamSpsa;
    return std::nullopt;
}

exec::ResilienceOptions
makeResilience(const Args &args)
{
    exec::ResilienceOptions r;
    r.faults.rate = args.faults;
    r.faults.seed = args.seed ^ 0xFA17;
    r.retry.maxAttempts = args.retries;
    r.threads = args.service.threads;
    return r;
}

std::optional<qsim::NoiseModel>
parseNoise(const std::string &name)
{
    if (name == "none")
        return qsim::NoiseModel{};
    if (name == "kyiv")
        return device::DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return device::DeviceModel::ibmBrisbane().toNoiseModel();
    return std::nullopt;
}

int
runRasengan(const problems::Problem &problem, const Args &args,
            opt::Method method, const qsim::NoiseModel &noise)
{
    core::RasenganOptions options;
    options.maxIterations = args.iterations;
    options.seed = args.seed;
    options.optimizer = method;
    if (noise.enabled()) {
        options.execution =
            core::RasenganOptions::Execution::NoisyGateLevel;
        options.noise = noise;
        options.shotsPerSegment = 256;
        options.trajectories = 4;
    }
    options.resilience = makeResilience(args);
    options.checkpointPath = args.checkpoint;
    if (args.faults > 0.0 &&
        options.execution == core::RasenganOptions::Execution::ExactSparse) {
        // Faults act on shot-based executions; the exact path never
        // leaves the process.
        options.execution = core::RasenganOptions::Execution::SampledSparse;
    }

    core::RasenganSolver solver(problem, options);

    std::printf("pipeline: %zu transitions, chain %zu (of %zu unpruned), "
                "%zu segments\n",
                solver.transitions().size(), solver.chain().steps.size(),
                solver.chain().unprunedSteps.size(),
                solver.segments().size());

    if (args.draw || args.qasm) {
        std::vector<double> nominal(solver.numParams(), 0.6);
        circuit::Circuit segment = solver.segmentCircuit(
            0, problem.trivialFeasible(), nominal);
        if (args.draw) {
            std::printf("\nfirst segment (native gates):\n%s\n",
                        circuit::drawCircuit(segment, 24).c_str());
        }
        if (args.qasm)
            std::printf("\n%s\n", segment.toQasm().c_str());
    }

    core::RasenganResult res = solver.run();
    if (res.failed) {
        std::printf("run FAILED: purification removed every outcome "
                    "(noise too strong for the segment depth)\n");
        return 2;
    }
    std::printf("\nsolution  %s\n",
                res.solution.toString(problem.numVars()).c_str());
    std::printf("objective %.4f", res.objectiveValue);
    if (problem.enumerationEnabled())
        std::printf("   (optimum %.4f, ARG %.4f)", problem.optimalValue(),
                    problem.arg(res.expectedObjective));
    std::printf("\nin-constraints %.1f%%   segment depth %d   params %d\n",
                100.0 * res.inConstraintsRate, res.maxSegmentDepth,
                res.numParams);
    std::printf("latency: %.3fs classical + %.3fs quantum (model)\n",
                res.classicalSeconds, res.quantumSeconds);
    if (res.resumed)
        std::printf("resumed from checkpoint '%s'\n",
                    args.checkpoint.c_str());
    if (args.faults > 0.0) {
        const exec::ExecStats &st = res.execStats;
        std::printf("resilience: %llu executions, %llu retries, "
                    "%llu breaker trips, %d demotions, level %s\n",
                    static_cast<unsigned long long>(st.executions),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.breakerTrips),
                    st.demotions,
                    exec::degradationLevelName(res.degradation));
    }
    return 0;
}

int
runBaseline(const problems::Problem &problem, const Args &args,
            opt::Method method, const qsim::NoiseModel &noise)
{
    baselines::VqaResult res;
    if (args.algorithm == "chocoq") {
        baselines::ChocoqOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.resilience = makeResilience(args);
        res = baselines::Chocoq(problem, o).run();
    } else if (args.algorithm == "pqaoa") {
        baselines::PqaoaOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.smartInit = true;
        o.resilience = makeResilience(args);
        res = baselines::Pqaoa(problem, o).run();
    } else {
        baselines::HeaOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.resilience = makeResilience(args);
        res = baselines::Hea(problem, o).run();
    }
    std::printf("expected objective %.4f", res.expectedObjective);
    if (problem.enumerationEnabled())
        std::printf("   (optimum %.4f, ARG %.4f)", problem.optimalValue(),
                    problem.arg(res.expectedObjective));
    std::printf("\nin-constraints %.1f%%   depth %d   params %d\n",
                100.0 * res.inConstraintsRate, res.circuitDepth,
                res.numParams);
    std::printf("best feasible in output: %.4f\n",
                problems::bestFeasibleObjective(problem, res.counts));
    if (args.faults > 0.0) {
        const exec::ExecStats &st = res.execStats;
        std::printf("resilience: %llu executions, %llu retries, "
                    "%llu breaker trips, %d demotions, level %s\n",
                    static_cast<unsigned long long>(st.executions),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.breakerTrips),
                    st.demotions,
                    exec::degradationLevelName(res.degradation));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    const tools::FlagSet flags = solveFlags(args);
    if (!flags.parse(argc, argv)) {
        flags.usage();
        return 1;
    }
    if (args.faults > 1.0) {
        std::fprintf(stderr, "--faults needs a rate in [0, 1]\n");
        return 1;
    }
    if (args.service.threads > 0)
        parallel::setThreadCount(args.service.threads);
    if (!tools::obsCliStart(args.obs))
        return 1;

    if (!args.dump.empty()) {
        if (!problems::isBenchmarkId(args.dump)) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         args.dump.c_str());
            return 1;
        }
        std::printf("%s",
                    problems::writeProblem(
                        problems::makeBenchmark(args.dump))
                        .c_str());
        return 0;
    }

    std::optional<problems::Problem> problem;
    if (!args.benchmark.empty()) {
        if (!problems::isBenchmarkId(args.benchmark)) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         args.benchmark.c_str());
            return 1;
        }
        problem = problems::makeBenchmark(args.benchmark);
    } else if (!args.file.empty()) {
        std::ifstream in(args.file);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        problems::ProblemParseResult parsed =
            problems::parseProblem(buf.str());
        if (!parsed.problem) {
            std::fprintf(stderr, "%s:%d: %s\n", args.file.c_str(),
                         parsed.errorLine, parsed.error.c_str());
            return 1;
        }
        problem = std::move(parsed.problem);
    } else {
        flags.usage();
        return 1;
    }

    auto method = parseOptimizer(args.optimizer);
    auto noise = parseNoise(args.noise);
    if (!method || !noise) {
        flags.usage();
        return 1;
    }

    std::printf("instance %s (%s): %d vars, %d constraints",
                problem->id().c_str(), problem->family().c_str(),
                problem->numVars(), problem->numConstraints());
    if (problem->enumerationEnabled())
        std::printf(", %zu feasible", problem->feasibleCount());
    std::printf("\nalgorithm %s, optimizer %s, noise %s, simd %s, "
                "%d iterations\n\n",
                args.algorithm.c_str(), args.optimizer.c_str(),
                args.noise.c_str(),
                qsim::simdIsaName(qsim::simdActiveIsa()),
                args.iterations);

    int rc = -1;
    if (args.algorithm == "rasengan") {
        rc = runRasengan(*problem, args, *method, *noise);
    } else if (args.algorithm == "chocoq" || args.algorithm == "pqaoa" ||
               args.algorithm == "hea") {
        rc = runBaseline(*problem, args, *method, *noise);
    }
    if (rc >= 0) {
        if (!tools::obsCliFinish(args.obs) && rc == 0)
            rc = 1;
        return rc;
    }
    std::fprintf(stderr, "unknown algorithm '%s'\n",
                 args.algorithm.c_str());
    return 1;
}
