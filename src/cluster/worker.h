/**
 * @file
 * Cluster worker: one process (or loopback thread) that runs a shard of
 * a batch on its own serve::BatchScheduler and streams results back.
 *
 * The worker is configured entirely over the wire (the hello message
 * carries seed, threads, cache budget, and an optional fault-injection
 * spec), then serves any number of job.../run cycles until the
 * coordinator drains it.  Per cycle it builds a fresh BatchScheduler
 * over ONE long-lived ArtifactCache, so artifacts warm across
 * re-placement cycles exactly as they would across batches in the
 * daemon.
 *
 * Determinism: the scheduler runs with AdmissionLimits::unlimited() --
 * the coordinator already screened every request against the real
 * limits, and screening twice would double-count the batch budget.
 * Result frames carry the exact writeResult()/writeTelemetry() bytes;
 * the child seed is re-derived from content + batch seed, so a job
 * produces the same result bytes on any worker.
 *
 * Fault injection (tests and the CI smoke job): the hello-forwarded
 * exec::ProcessFaultPlan counts completed jobs; on the Nth completion
 * the worker either SIGKILLs itself (fork mode) or silently closes its
 * socket (loopback mode), before sending that result.  Either way the
 * coordinator observes a dead worker with results missing.
 */

#ifndef RASENGAN_CLUSTER_WORKER_H
#define RASENGAN_CLUSTER_WORKER_H

#include <cstddef>
#include <string>

#include "cluster/protocol.h"

namespace rasengan::cluster {

struct WorkerOutcome
{
    bool ok = false;
    std::string error; ///< protocol violation / stream failure when !ok
    size_t jobsRun = 0;
    bool drained = false; ///< clean coordinator-initiated shutdown
};

/**
 * Run the worker loop over the connected stream @p fd (a socketpair end
 * in fork/loopback mode, a TCP connection in remote mode).  Blocks
 * until drain, peer disconnect, or a protocol error; always closes
 * @p fd before returning.
 */
WorkerOutcome runWorker(int fd);

} // namespace rasengan::cluster

#endif // RASENGAN_CLUSTER_WORKER_H
