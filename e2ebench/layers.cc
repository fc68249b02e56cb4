#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "baselines/chocoq.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/transpile.h"
#include "common/rng.h"
#include "core/basis.h"
#include "core/chain.h"
#include "core/transition.h"
#include "device/device.h"
#include "problems/io.h"
#include "problems/suite.h"
#include "qsim/sparsestate.h"
#include "serve/cachekey.h"
#include "serve/job.h"

namespace e2e {

using rasengan::BitVec;
using rasengan::Rng;
namespace baselines = rasengan::baselines;
namespace device = rasengan::device;
namespace exec = rasengan::exec;
namespace opt = rasengan::opt;
namespace qsim = rasengan::qsim;

namespace {

std::string
fmt17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// The request -> solver mapping below mirrors serve::JobRunner, which
// keeps it private.  If the runner changes it, the replayed
// result_hash stops matching and the traced run fails loudly.

opt::Method
optimizerFor(const std::string &name)
{
    if (name == "nelder-mead")
        return opt::Method::NelderMead;
    if (name == "spsa")
        return opt::Method::Spsa;
    if (name == "adam-spsa")
        return opt::Method::AdamSpsa;
    return opt::Method::Cobyla;
}

qsim::NoiseModel
noiseFor(const std::string &name)
{
    if (name == "kyiv")
        return device::DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return device::DeviceModel::ibmBrisbane().toNoiseModel();
    return qsim::NoiseModel{};
}

exec::ResilienceOptions
resilienceFor(const serve::JobRequest &req, uint64_t childSeed)
{
    exec::ResilienceOptions r;
    r.faults.rate = req.faultRate;
    r.faults.seed = childSeed ^ 0xFA17;
    r.retry.maxAttempts = req.maxAttempts;
    r.jitterSeed = serve::mixSeed(childSeed ^ 0x8ACC0FF);
    r.wallClock = false;
    r.threads = 0;
    return r;
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** serve's result digest over the deterministic payload fields. */
std::string
resultHash(const serve::JobResult &r)
{
    std::ostringstream s;
    s << r.solution << "|" << fmt17(r.objective) << "|"
      << fmt17(r.expectedObjective) << "|" << fmt17(r.inConstraintsRate)
      << "|" << r.chainLength << "|" << r.numSegments << "|"
      << r.numParams << "|" << r.childSeed << "|" << (r.ok ? 1 : 0);
    return hex16(serve::fnv1a64(s.str()));
}

core::ChainOptions
chainOptionsFor(const core::RasenganOptions &opts)
{
    core::ChainOptions c;
    c.rounds = opts.rounds;
    c.prune = opts.prune;
    c.earlyStop = opts.prune;
    c.maxTrackedStates = opts.maxTrackedStates;
    return c;
}

} // namespace

core::RasenganOptions
flpOptions(const FlpJobSpec &spec)
{
    core::RasenganOptions o;
    o.execution = core::RasenganOptions::Execution::SampledSparse;
    o.shotsPerSegment = 1024;
    o.rounds = spec.rounds;
    o.maxTrackedStates = 20000;
    o.maxIterations = spec.iterations;
    o.seed = spec.seed;
    return o;
}

std::string
flpResultLine(const FlpJobSpec &spec, const problems::Problem &problem,
              const core::RasenganResult &r)
{
    std::string line = "{\"id\":\"" + spec.id + "\",\"problem_id\":\"" +
                       problem.id() + "\",\"num_vars\":" +
                       std::to_string(problem.numVars());
    line += std::string(",\"ok\":") + (r.failed ? "false" : "true");
    line += ",\"solution\":\"" +
            (r.failed ? std::string()
                      : r.solution.toString(problem.numVars())) +
            "\"";
    line += ",\"objective\":" + fmt17(r.objectiveValue) +
            ",\"expected_objective\":" + fmt17(r.expectedObjective) +
            ",\"in_constraints_rate\":" + fmt17(r.inConstraintsRate) +
            ",\"chain_length\":" + std::to_string(r.chainLength) +
            ",\"num_segments\":" + std::to_string(r.numSegments) +
            ",\"num_params\":" + std::to_string(r.numParams) +
            ",\"evaluations\":" + std::to_string(r.training.evaluations) +
            ",\"max_segment_cx\":" + std::to_string(r.maxSegmentCx) + "}";
    return line;
}

namespace {

serve::RunnerOptions
runnerOptions(uint64_t batchSeed)
{
    serve::RunnerOptions o;
    o.batchSeed = batchSeed;
    return o;
}

} // namespace

LayerReplay::LayerReplay(SpanRecorder &spans, uint64_t batchSeed)
    : spans_(spans),
      // prepare() never touches the cache; the runner just requires one.
      runner_(runnerOptions(batchSeed),
              std::make_shared<serve::ArtifactCache>(uint64_t{1} << 20))
{
}

void
LayerReplay::wirePipeline(const problems::Problem &problem,
                          const std::string &pipelineKey,
                          core::RasenganOptions &opts)
{
    const bool memo = !pipelineKey.empty();
    auto it = pipelines_.find(pipelineKey);
    if (!memo || it == pipelines_.end()) {
        SpanRecorder::Scope s(spans_, "core.pipeline");
        auto built = std::make_shared<const core::PipelineArtifacts>(
            core::buildPipelineArtifacts(problem, opts));
        if (memo)
            it = pipelines_.emplace(pipelineKey, built).first;
        opts.pipeline = built;
    } else {
        opts.pipeline = it->second;
    }

    opts.lowerCircuit = [this, memo](const circuit::Circuit &circ,
                                     const circuit::TranspileOptions &t) {
        std::string key;
        if (memo) {
            key = hex16(circ.fingerprint()) + "|" +
                  std::to_string(static_cast<int>(t.mode)) + "|" +
                  (t.lowerToCx ? "1" : "0");
            auto hit = lowered_.find(key);
            if (hit != lowered_.end())
                return hit->second;
        }
        const int span = spans_.open("circuit.transpile");
        circuit::Circuit out = circuit::transpile(circ, t);
        spans_.close(span);
        jobTranspileMs_ += SpanRecorder::durationMs(spans_.records()[span]);
        ++counts_.transpileCalls;
        counts_.cxTotal += static_cast<uint64_t>(out.countCx());
        if (memo)
            lowered_.emplace(key, out);
        return out;
    };
}

core::RasenganResult
LayerReplay::solve(const problems::Problem &problem,
                   const core::RasenganOptions &opts,
                   std::unique_ptr<core::RasenganSolver> *out)
{
    {
        SpanRecorder::Scope s(spans_, "core.solver");
        *out = std::make_unique<core::RasenganSolver>(problem, opts);
    }
    core::RasenganResult r;
    const int span = spans_.open("core.run");
    r = (*out)->run();
    spans_.close(span);
    lastRunMs_ = SpanRecorder::durationMs(spans_.records()[span]);
    const core::PlanStats &plans = (*out)->planStats();
    counts_.evals += static_cast<uint64_t>(r.training.evaluations);
    counts_.chainSteps += static_cast<uint64_t>(r.chainLength);
    counts_.segments += static_cast<uint64_t>(r.numSegments);
    counts_.supportMax =
        std::max(counts_.supportMax, (*out)->maxObservedSupport());
    counts_.planReplayed += plans.replayed;
    counts_.planLookups +=
        plans.recorded + plans.replayed + plans.aborted + plans.invalidated;
    return r;
}

void
LayerReplay::probeRasengan(const core::RasenganSolver &solver,
                           const core::RasenganResult &r)
{
    const double transpileMs = jobTranspileMs_; // before the probe's own
    const core::RasenganOptions &opts = solver.opts();
    const problems::Problem &problem = solver.problem();
    std::vector<core::TransitionHamiltonian> transitions;
    {
        SpanRecorder::Scope s(spans_, "core.transitions");
        transitions = core::makeTransitions(core::transitionVectors(
            problem, opts.simplify, opts.maxTrackedStates));
    }
    {
        SpanRecorder::Scope s(spans_, "core.chain");
        core::buildChain(transitions, problem.trivialFeasible(),
                         chainOptionsFor(opts));
    }
    double executeMs = 0.0;
    if (!r.training.x.empty()) {
        Rng rng(opts.seed + 1);
        const int span = spans_.open("core.execute");
        solver.execute(r.training.x, rng);
        spans_.close(span);
        executeMs = SpanRecorder::durationMs(spans_.records()[span]);
    }
    // Each segment evolved from the generator's feasible state, one
    // applyTo per kept transition -- the sparse kernel the executor
    // drives once per segment and evaluation.
    const core::Chain &chain = solver.chain();
    for (const core::Segment &seg : solver.segments()) {
        qsim::SparseState state(problem.numVars(), problem.trivialFeasible());
        for (int k = 0; k < seg.stepCount; ++k) {
            const int pos = seg.firstStep + k;
            SpanRecorder::Scope s(spans_, "qsim.evolve");
            solver.transitions()[chain.steps[pos]].applyTo(
                state, r.training.x.empty() ? opts.initialTime
                                            : r.training.x[pos],
                opts.sparsePruneThreshold);
        }
    }
    counts_.transpileMs.push_back(transpileMs);
    counts_.runResidualMs.push_back(
        lastRunMs_ - r.training.evaluations * executeMs - transpileMs);
}

std::string
LayerReplay::replayServeJob(const ServeJobSpec &spec,
                            const std::string &expectedHash)
{
    serve::JobResult out;
    std::unique_ptr<core::RasenganSolver> solver;
    core::RasenganResult rres;
    serve::PreparedJob job;
    jobTranspileMs_ = 0.0;
    {
        SpanRecorder::Scope jobSpan(spans_, "job", spec.id);
        serve::RequestParseResult parsed;
        {
            SpanRecorder::Scope s(spans_, "serve.parse");
            parsed = serve::parseRequest(spec.line);
        }
        if (!parsed.ok)
            return spec.id + ": request does not parse: " + parsed.error;
        serve::PrepareOutcome prep;
        {
            SpanRecorder::Scope s(spans_, "serve.prepare");
            prep = runner_.prepare(parsed.request);
        }
        if (!prep.ok)
            return spec.id + ": prepare failed: " + prep.error;
        job = std::move(prep.job);
        const serve::JobRequest &req = job.req;
        const problems::Problem &problem = *job.problem;

        if (req.algorithm == "rasengan") {
            core::RasenganOptions opts;
            opts.simplify = req.simplify;
            opts.prune = req.prune;
            opts.purify = req.purify;
            opts.transitionsPerSegment = req.transitionsPerSegment;
            opts.maxIterations = req.iterations;
            opts.seed = job.childSeed;
            opts.optimizer = optimizerFor(req.optimizer);
            opts.shotsPerSegment = req.shots;
            opts.shotGrowth = req.shotGrowth;
            opts.noise = noiseFor(req.noise);
            opts.resilience = resilienceFor(req, job.childSeed);
            using Execution = core::RasenganOptions::Execution;
            if (req.execution == "exact")
                opts.execution = Execution::ExactSparse;
            else if (req.execution == "sampled")
                opts.execution = Execution::SampledSparse;
            else if (req.execution == "noisy")
                opts.execution = Execution::NoisyInjected;
            else
                opts.execution = Execution::NoisyGateLevel;
            if (req.faultRate > 0.0 &&
                opts.execution == Execution::ExactSparse)
                opts.execution = Execution::SampledSparse;
            std::ostringstream key;
            key << opts.simplify << opts.prune << ";"
                << opts.transitionsPerSegment << ";" << opts.rounds << ";"
                << opts.maxTrackedStates << "\n"
                << job.canonicalProblem;
            wirePipeline(problem, key.str(), opts);
            rres = solve(problem, opts, &solver);
            out.ok = !rres.failed;
            if (out.ok)
                out.solution = rres.solution.toString(problem.numVars());
            out.objective = rres.objectiveValue;
            out.expectedObjective = rres.expectedObjective;
            out.inConstraintsRate = rres.inConstraintsRate;
            out.chainLength = rres.chainLength;
            out.numSegments = rres.numSegments;
            out.numParams = rres.numParams;
        } else {
            auto fill = [&](auto &o) {
                o.layers = req.layers;
                o.maxIterations = req.iterations;
                o.shots = req.shots;
                o.seed = job.childSeed;
                o.penaltyLambda = req.penaltyLambda;
                o.optimizer = optimizerFor(req.optimizer);
                o.noise = noiseFor(req.noise);
                o.resilience = resilienceFor(req, job.childSeed);
            };
            baselines::VqaResult r;
            {
                SpanRecorder::Scope s(spans_, "baselines." + req.algorithm);
                if (req.algorithm == "chocoq") {
                    baselines::ChocoqOptions o;
                    fill(o);
                    r = baselines::Chocoq(problem, o).run();
                } else if (req.algorithm == "pqaoa") {
                    baselines::PqaoaOptions o;
                    fill(o);
                    r = baselines::Pqaoa(problem, o).run();
                } else {
                    baselines::HeaOptions o;
                    fill(o);
                    r = baselines::Hea(problem, o).run();
                }
            }
            out.ok = !r.counts.empty();
            out.expectedObjective = r.expectedObjective;
            out.inConstraintsRate = r.inConstraintsRate;
            out.numParams = r.numParams;
            bool found = false;
            for (const auto &[outcome, n] : r.counts.sorted()) {
                (void)n;
                if (!problem.isFeasible(outcome))
                    continue;
                const double obj = problem.objective(outcome);
                if (!found || obj < out.objective) {
                    found = true;
                    out.solution = outcome.toString(problem.numVars());
                    out.objective = obj;
                }
            }
        }
        out.id = req.id;
        out.accepted = true;
        out.problemId = problem.id();
        out.numVars = problem.numVars();
        out.childSeed = job.childSeed;
        out.resultHash = resultHash(out);
        {
            SpanRecorder::Scope s(spans_, "serve.serialize");
            std::string line = serve::writeResult(out);
            line += serve::writeTelemetry(out);
        }
    }

    {
        SpanRecorder::Scope probe(spans_, "probe", spec.id);
        problems::Problem made = [&] {
            SpanRecorder::Scope s(spans_, "problems.make");
            return problems::makeBenchmark(spec.benchmark, spec.caseIndex);
        }();
        {
            SpanRecorder::Scope s(spans_, "problems.canonical");
            problems::canonicalProblemText(made);
        }
        if (solver)
            probeRasengan(*solver, rres);
    }
    if (out.resultHash != expectedHash)
        return spec.id + ": replay result_hash " + out.resultHash +
               " != served " + expectedHash;
    return "";
}

std::string
LayerReplay::runFlpJob(const FlpJobSpec &spec,
                       const problems::Problem &problem)
{
    std::unique_ptr<core::RasenganSolver> solver;
    core::RasenganResult r;
    std::string line;
    jobTranspileMs_ = 0.0;
    {
        SpanRecorder::Scope jobSpan(spans_, "job", spec.id);
        core::RasenganOptions opts = flpOptions(spec);
        wirePipeline(problem, "", opts);
        r = solve(problem, opts, &solver);
        SpanRecorder::Scope s(spans_, "result.format");
        line = flpResultLine(spec, problem, r);
    }
    {
        SpanRecorder::Scope probe(spans_, "probe", spec.id);
        problems::Problem made = [&] {
            SpanRecorder::Scope s(spans_, "problems.make");
            return problems::makeScalabilityFlp(spec.numVars,
                                                spec.caseIndex);
        }();
        {
            SpanRecorder::Scope s(spans_, "problems.canonical");
            problems::canonicalProblemText(made);
        }
        probeRasengan(*solver, r);
    }
    return line;
}

} // namespace e2e
