/**
 * @file
 * Batch solve service driver.
 *
 * Reads solve requests (one flat JSON object per line) from a file or
 * generates a synthetic workload, runs them through the
 * serve::BatchScheduler, and writes one deterministic result line per
 * job -- in submission order -- plus an optional telemetry stream.
 *
 * The result file contains no timing fields: two runs over the same
 * requests with the same --batch-seed are byte-identical at any
 * --threads setting (CI diffs them), while --telemetry captures queue
 * wait, wall time, cache hits, and retries per job.
 *
 * Usage:
 *   rasengan_serve --requests FILE [options]
 *   rasengan_serve --workload N [--workload-seed S] [options]
 *
 * Options (besides the common serving flags in README):
 *   --dump-workload      print the generated workload requests and exit
 *
 * Exit status: 0 when every admitted job succeeded, 1 on usage or I/O
 * errors (a failed --out/--telemetry write included), 2 when some
 * admitted job failed (rejections alone do not fail the batch: they
 * are reported outcomes, not errors), 3 when
 * SIGTERM/SIGINT interrupted the batch -- jobs already running finish,
 * results/telemetry/metrics are still written, and jobs that never
 * started are reported as accepted-but-interrupted failures.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "obs_cli.h"
#include "serve/scheduler.h"

using namespace rasengan;

namespace {

/** SIGTERM/SIGINT trip this; the scheduler polls it between jobs. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions options;
    tools::ObsCliOptions obs;
    tools::BatchIo io;
    bool dumpWorkload = false;
    tools::FlagSet flags("rasengan_serve (--requests FILE | --workload N "
                         "[--workload-seed S]) [options]");
    tools::addBatchFlags(flags, io);
    tools::addServiceFlags(flags, tools::Front::Batch, options, obs);
    flags.toggle("--dump-workload", &dumpWorkload);
    if (!flags.parse(argc, argv)) {
        flags.usage();
        return 1;
    }

    std::vector<serve::JobRequest> requests;
    if (!tools::loadRequests(io, requests))
        return 1;
    if (dumpWorkload) {
        for (const auto &req : requests)
            std::printf("%s\n", serve::writeRequest(req).c_str());
        return 0;
    }

    // Graceful interruption: finish running jobs, skip unstarted ones,
    // and still write every output stream before exiting with code 3.
    options.stopFlag = &g_stop;
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    if (!tools::obsCliStart(obs))
        return 1;

    serve::BatchScheduler scheduler(options);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();

    // Result stream (deterministic, submission order), then telemetry.
    std::vector<std::string> lines, telemetry;
    for (const auto &result : scheduler.results()) {
        lines.push_back(serve::writeResult(result));
        telemetry.push_back(serve::writeTelemetry(result));
    }
    if (!tools::writeLines(io.out, lines) ||
        (!io.telemetry.empty() &&
         !tools::writeLines(io.telemetry, telemetry)))
        return 1;

    // Batch summary (stderr: keep stdout byte-comparable).
    size_t accepted = 0, rejected = 0, failed = 0;
    for (const auto &result : scheduler.results()) {
        if (!result.accepted)
            ++rejected;
        else if (!result.ok)
            ++failed;
        else
            ++accepted;
    }
    serve::ArtifactCache::Stats cache = scheduler.cache().stats();
    const size_t interrupted = scheduler.interruptedJobs();
    std::fprintf(stderr,
                 "batch: %zu jobs (%zu ok, %zu failed, %zu rejected, "
                 "%zu interrupted)\n",
                 scheduler.results().size(), accepted, failed, rejected,
                 interrupted);
    std::fprintf(stderr,
                 "cache: %llu hits, %llu misses (%.1f%% hit rate), "
                 "%llu evictions, %llu bytes in %zu entries\n",
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 100.0 * cache.hitRate(),
                 static_cast<unsigned long long>(cache.evictions),
                 static_cast<unsigned long long>(cache.bytesInUse),
                 cache.entries);
    std::fprintf(stderr, "admission: %.3g cost units committed\n",
                 scheduler.admission().batchCostUnits());

    if (!tools::obsCliFinish(obs))
        return 1;
    if (g_stop.load(std::memory_order_relaxed))
        return 3;
    return failed > 0 ? 2 : 0;
}
