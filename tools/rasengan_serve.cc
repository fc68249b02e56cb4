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
 * Options:
 *   --out FILE           result JSONL (default: stdout)
 *   --telemetry FILE     per-job telemetry JSONL (default: off)
 *   --threads N          worker threads (0 = current/env config)
 *   --batch-seed S       mixed into every job's child seed (default 0)
 *   --cache-mb M         artifact cache budget in MiB (default 64; 0
 *                        disables caching)
 *   --max-queue N        admission: max queued jobs
 *   --max-qubits N       admission: max problem variables
 *   --max-shots N        admission: max shots per job
 *   --max-cost UNITS     admission: per-job cost ceiling
 *   --dump-workload      print the generated workload requests and exit
 *   --simd ISA           amplitude kernel ISA: auto|avx2|neon|scalar
 *                        (default: RASENGAN_SIMD env, then auto)
 *   --trace FILE         write a Chrome trace-event JSON of the batch
 *   --metrics FILE       write the metrics registry; Prometheus text,
 *                        or flat JSON when FILE ends in .json
 *
 * Exit status: 0 when every admitted job succeeded, 1 on usage or I/O
 * errors, 2 when some admitted job failed (rejections alone do not
 * fail the batch: they are reported outcomes, not errors), 3 when
 * SIGTERM/SIGINT interrupted the batch -- jobs already running finish,
 * results/telemetry/metrics are still written, and jobs that never
 * started are reported as accepted-but-interrupted failures.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs_cli.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"
#include "serve/workload.h"

using namespace rasengan;

namespace {

/** SIGTERM/SIGINT trip this; the scheduler polls it between jobs. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

struct Args
{
    std::string requests;
    long workload = -1;
    uint64_t workloadSeed = 1;
    std::string out;
    std::string telemetry;
    int threads = 0;
    uint64_t batchSeed = 0;
    long cacheMb = 64;
    long maxQueue = -1;
    long maxQubits = -1;
    long maxShots = -1;
    double maxCost = -1.0;
    bool dumpWorkload = false;
    std::string simd;
    tools::ObsCliOptions obs;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: rasengan_serve (--requests FILE | --workload N "
                 "[--workload-seed S])\n"
                 "  [--out FILE] [--telemetry FILE] [--threads N] "
                 "[--batch-seed S]\n"
                 "  [--cache-mb M] [--max-queue N] [--max-qubits N] "
                 "[--max-shots N]\n"
                 "  [--max-cost UNITS] [--dump-workload]\n"
                 "  [--simd auto|avx2|neon|scalar]\n"
                 "  [--trace FILE] [--metrics FILE] "
                 "[--flight on|off|N|PATH]\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (flag == "--requests" && (v = next()))
            args.requests = v;
        else if (flag == "--workload" && (v = next()))
            args.workload = std::strtol(v, nullptr, 10);
        else if (flag == "--workload-seed" && (v = next()))
            args.workloadSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--out" && (v = next()))
            args.out = v;
        else if (flag == "--telemetry" && (v = next()))
            args.telemetry = v;
        else if (flag == "--threads" && (v = next()))
            args.threads = static_cast<int>(std::strtol(v, nullptr, 10));
        else if (flag == "--batch-seed" && (v = next()))
            args.batchSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--cache-mb" && (v = next()))
            args.cacheMb = std::strtol(v, nullptr, 10);
        else if (flag == "--max-queue" && (v = next()))
            args.maxQueue = std::strtol(v, nullptr, 10);
        else if (flag == "--max-qubits" && (v = next()))
            args.maxQubits = std::strtol(v, nullptr, 10);
        else if (flag == "--max-shots" && (v = next()))
            args.maxShots = std::strtol(v, nullptr, 10);
        else if (flag == "--max-cost" && (v = next()))
            args.maxCost = std::strtod(v, nullptr);
        else if (flag == "--simd" && (v = next()))
            args.simd = v;
        else if (flag == "--trace" && (v = next()))
            args.obs.tracePath = v;
        else if (flag == "--metrics" && (v = next()))
            args.obs.metricsPath = v;
        else if (flag == "--flight" && (v = next()))
            args.obs.flightSpec = v;
        else if (flag == "--dump-workload")
            args.dumpWorkload = true;
        else {
            std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                         flag.c_str());
            return false;
        }
    }
    bool haveRequests = !args.requests.empty();
    bool haveWorkload = args.workload >= 0;
    if (haveRequests == haveWorkload) {
        std::fprintf(stderr, "exactly one of --requests and --workload "
                             "is required\n");
        return false;
    }
    if (args.cacheMb < 0) {
        std::fprintf(stderr, "--cache-mb must be >= 0\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 1;
    }

    // Assemble the request list.
    std::vector<serve::JobRequest> requests;
    if (!args.requests.empty()) {
        std::ifstream in(args.requests);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         args.requests.c_str());
            return 1;
        }
        serve::LineReader reader(in);
        serve::LineReader::Line line;
        while (reader.next(line)) {
            // Request files are operator input: a defective line is an
            // error, not something to skip silently.
            if (!line.ok) {
                const char *why =
                    line.hasNul ? "request line contains a NUL byte"
                    : line.oversized
                        ? "request line exceeds the length cap"
                        : "truncated final line (no newline)";
                std::fprintf(stderr, "%s:%zu: %s\n",
                             args.requests.c_str(), line.number, why);
                return 1;
            }
            serve::RequestParseResult parsed =
                serve::parseRequest(line.text);
            if (!parsed.ok) {
                std::fprintf(stderr, "%s:%zu: %s\n",
                             args.requests.c_str(), line.number,
                             parsed.error.c_str());
                return 1;
            }
            if (parsed.request.id.empty())
                parsed.request.id = "line-" + std::to_string(line.number);
            requests.push_back(std::move(parsed.request));
        }
    } else {
        requests = serve::generateWorkload(
            static_cast<size_t>(args.workload), args.workloadSeed);
    }

    if (args.dumpWorkload) {
        for (const auto &req : requests)
            std::printf("%s\n", serve::writeRequest(req).c_str());
        return 0;
    }

    serve::ServeOptions options;
    options.threads = args.threads;
    options.batchSeed = args.batchSeed;
    options.cacheBudgetBytes =
        static_cast<uint64_t>(args.cacheMb) << 20;
    if (args.maxQueue >= 0)
        options.limits.maxQueuedJobs = static_cast<size_t>(args.maxQueue);
    if (args.maxQubits >= 0)
        options.limits.maxQubits = static_cast<int>(args.maxQubits);
    if (args.maxShots >= 0)
        options.limits.maxShotsPerJob =
            static_cast<uint64_t>(args.maxShots);
    if (args.maxCost >= 0.0)
        options.limits.maxJobCostUnits = args.maxCost;

    // Graceful interruption: finish running jobs, skip unstarted ones,
    // and still write every output stream before exiting with code 3.
    options.stopFlag = &g_stop;
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    if (!tools::applySimdFlag(args.simd))
        return 1;
    tools::obsCliStart(args.obs);

    serve::BatchScheduler scheduler(options);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();

    // Result stream (deterministic, submission order).
    std::FILE *out = stdout;
    if (!args.out.empty()) {
        out = std::fopen(args.out.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         args.out.c_str());
            return 1;
        }
    }
    for (const auto &result : scheduler.results())
        std::fprintf(out, "%s\n", serve::writeResult(result).c_str());
    if (out != stdout)
        std::fclose(out);

    if (!args.telemetry.empty()) {
        std::FILE *tel = std::fopen(args.telemetry.c_str(), "w");
        if (!tel) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         args.telemetry.c_str());
            return 1;
        }
        for (const auto &result : scheduler.results())
            std::fprintf(tel, "%s\n",
                         serve::writeTelemetry(result).c_str());
        std::fclose(tel);
    }

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

    if (!tools::obsCliFinish(args.obs))
        return 1;
    if (g_stop.load(std::memory_order_relaxed))
        return 3;
    return failed > 0 ? 2 : 0;
}
