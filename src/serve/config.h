/**
 * @file
 * The serving configuration every front end resolves once.
 *
 * Batch scheduling (ServeOptions), the always-on daemon (DaemonOptions)
 * and the cluster coordinator (cluster::CoordinatorOptions) all derive
 * from ServiceConfig, so the four settings a serving process shares --
 * pool threads, batch seed, artifact cache budget and admission limits
 * -- are declared, documented and defaulted in one place.  The CLI
 * drivers fill it from one shared flag parser (tools/obs_cli.h).
 */

#ifndef RASENGAN_SERVE_CONFIG_H
#define RASENGAN_SERVE_CONFIG_H

#include <cstdint>

#include "serve/admission.h"

namespace rasengan::serve {

struct ServiceConfig
{
    /**
     * Simulation pool threads, applied once via parallel::setThreadCount
     * before jobs run (a cluster coordinator forwards it to every
     * worker).  0 keeps the current/env-derived pool configuration.
     */
    int threads = 0;
    /** Mixed into every job's child seed; same batch seed + same
     *  requests -> same results. */
    uint64_t batchSeed = 0;
    /** Artifact cache LRU budget in bytes (64 MiB); 0 disables caching. */
    uint64_t cacheBudgetBytes = uint64_t{64} << 20;
    /** Admission limits; a cluster coordinator screens against them
     *  itself, its workers never re-screen. */
    AdmissionLimits limits;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_CONFIG_H
