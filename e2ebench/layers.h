/**
 * @file
 * Per-layer replay for the traced run.
 *
 * A serve job is re-run on the calling thread through the same public
 * layer functions serve::JobRunner calls, in the runner's order --
 * parseRequest, JobRunner::prepare, buildPipelineArtifacts, the
 * RasenganSolver (with a timed transpile hook) or the baseline VQA,
 * writeResult/writeTelemetry -- with a span around each call.  The
 * replay must reproduce the job's result_hash; a mismatch means the
 * replay no longer follows the runner and its layer split is void.
 * After each job, probes time single layer calls that the runner makes
 * only inside a larger function (problem generation, canonical text,
 * transition set, chain, one execute, one sparse evolution); probes
 * sit outside the job span so they never count as job time.
 */

#ifndef E2EBENCH_LAYERS_H
#define E2EBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/rasengan.h"
#include "problems/problem.h"
#include "serve/runner.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

namespace circuit = rasengan::circuit;
namespace core = rasengan::core;
namespace problems = rasengan::problems;
namespace serve = rasengan::serve;

/** Exact work counts gathered by the replay of one round. */
struct LayerCounts
{
    uint64_t evals = 0;
    uint64_t chainSteps = 0;
    uint64_t segments = 0;
    uint64_t transpileCalls = 0;
    uint64_t cxTotal = 0;
    uint64_t supportMax = 0;
    uint64_t planReplayed = 0;
    uint64_t planLookups = 0; ///< recorded + replayed + aborted + invalidated
    /** Per rasengan job: run - evals x execute - transpile, in ms. */
    std::vector<double> runResidualMs;
    /** Per rasengan job: transpile time inside the job, in ms. */
    std::vector<double> transpileMs;
};

/** Deterministic result line of one direct (scale-flp) solve. */
std::string flpResultLine(const FlpJobSpec &spec,
                          const problems::Problem &problem,
                          const core::RasenganResult &r);

/** Solver options of one scale-flp job (shared by plain and traced). */
core::RasenganOptions flpOptions(const FlpJobSpec &spec);

class LayerReplay
{
  public:
    LayerReplay(SpanRecorder &spans, uint64_t batchSeed);

    /**
     * Replay serve job @p spec; returns "" when the replay reproduced
     * @p expectedHash, otherwise a description of the mismatch.
     */
    std::string replayServeJob(const ServeJobSpec &spec,
                               const std::string &expectedHash);

    /** Run scale-flp job @p spec with layer spans; returns its result
     *  line (must equal the untraced run's). */
    std::string runFlpJob(const FlpJobSpec &spec,
                          const problems::Problem &problem);

    const LayerCounts &counts() const { return counts_; }

  private:
    /** Spanned pipeline build + transpile hook for one solve. */
    void wirePipeline(const problems::Problem &problem,
                      const std::string &pipelineKey,
                      core::RasenganOptions &opts);
    /** Spanned solver construction + run; counts work. */
    core::RasenganResult solve(const problems::Problem &problem,
                               const core::RasenganOptions &opts,
                               std::unique_ptr<core::RasenganSolver> *out);
    /** Layer probes after a finished rasengan job (outside its span). */
    void probeRasengan(const core::RasenganSolver &solver,
                       const core::RasenganResult &r);

    SpanRecorder &spans_;
    serve::JobRunner runner_;
    /** Replay-local memo standing in for serve's artifact cache, so a
     *  warm stream stays warm (empty key: no memo, the direct path). */
    std::map<std::string, std::shared_ptr<const core::PipelineArtifacts>>
        pipelines_;
    std::map<std::string, circuit::Circuit> lowered_;
    double jobTranspileMs_ = 0.0;
    double lastRunMs_ = 0.0;
    LayerCounts counts_;
};

} // namespace e2e

#endif // E2EBENCH_LAYERS_H
