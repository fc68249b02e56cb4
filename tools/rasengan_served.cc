/**
 * @file
 * Always-on serve daemon driver.
 *
 * Listens on a Unix or TCP socket for newline-delimited JSONL solve
 * requests (the batch rasengan_serve format plus `priority`,
 * `deadline_ms`, and `timeout_ms`) and streams one deterministic
 * result line back per job as it finishes.  A line starting with
 * "GET " is answered as an HTTP/1.0 probe: /healthz, /readyz,
 * /metrics (Prometheus text), /metrics.json, /debug/flight (the live
 * flight-recorder ring as JSON).
 *
 * With --journal the daemon is crash-safe: every accepted request is
 * journaled before acknowledgment, and a restarted daemon re-runs
 * exactly the unfinished jobs, producing byte-identical result lines
 * (child seeds derive from request content, not timing).
 *
 * Signals: SIGTERM/SIGINT drain gracefully -- stop accepting, finish
 * or checkpoint the in-flight job, flush the journal, exit 0.  SIGHUP
 * compacts the journal in place and, with --policy, re-reads the
 * admission/SLO policy file.
 *
 * Usage:
 *   rasengan_served --listen unix:/tmp/rasengan.sock [options]
 *   rasengan_served --listen tcp:7733 [options]
 *
 * Options:
 *   --journal FILE       write-ahead job journal (crash recovery)
 *   --results FILE       append every result line (audit mirror)
 *   --checkpoint-dir DIR segment checkpoints for drain/crash resume
 *   --policy FILE        admission/SLO policy file (serve/policy flat
 *                        JSON); loaded at start, re-read on SIGHUP
 *   --threads N          simulation pool threads (0 = current config)
 *   --batch-seed S       mixed into every job's child seed (default 0)
 *   --cache-mb M         artifact cache budget in MiB (default 64)
 *   --max-queue N        admission: max queued jobs
 *   --max-qubits N       admission: max problem variables
 *   --max-shots N        admission: max shots per job
 *   --max-cost UNITS     admission: per-job cost ceiling
 *   --cost-rate R        SLO: worker throughput in cost units/second
 *                        (calibrates the deadline-miss predictor)
 *   --shed-margin F      SLO: fraction of a deadline kept as safety
 *                        margin before shedding (default 0.1)
 *   --simd ISA           amplitude kernel ISA: auto|avx2|neon|scalar
 *                        (default: RASENGAN_SIMD env, then auto); the
 *                        active ISA is logged at startup and exported
 *                        as the simd_isa_info gauge on /metrics.json
 *   --flight SPEC        flight recorder: on|off|N (ring entries)|
 *                        /dump/path (default: RASENGAN_FLIGHT env, then
 *                        ON -- the daemon always keeps a flight ring).
 *                        SIGQUIT dumps the ring and keeps serving; the
 *                        live ring is at GET /debug/flight
 *
 * Exit status: 0 after a clean drain, 1 on startup failure.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/flight.h"
#include "qsim/simd.h"
#include "serve/daemon.h"

using namespace rasengan;

namespace {

serve::Daemon *g_daemon = nullptr;

extern "C" void
onSignal(int sig)
{
    if (g_daemon != nullptr)
        g_daemon->notifySignal(sig); // one async-signal-safe write(2)
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rasengan_served --listen (unix:PATH | tcp:[HOST:]PORT)\n"
        "  [--journal FILE] [--results FILE] [--checkpoint-dir DIR]\n"
        "  [--policy FILE]\n"
        "  [--threads N] [--batch-seed S] [--cache-mb M]\n"
        "  [--max-queue N] [--max-qubits N] [--max-shots N] "
        "[--max-cost UNITS]\n"
        "  [--cost-rate UNITS_PER_S] [--shed-margin FRACTION]\n"
        "  [--simd auto|avx2|neon|scalar]\n"
        "  [--flight on|off|N|PATH]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    serve::DaemonOptions options;
    options.listen.clear();
    long cacheMb = 64;
    std::string simdSpec;
    std::string flightSpec;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (flag == "--listen" && (v = next()))
            options.listen = v;
        else if (flag == "--journal" && (v = next()))
            options.journalPath = v;
        else if (flag == "--results" && (v = next()))
            options.resultsPath = v;
        else if (flag == "--checkpoint-dir" && (v = next()))
            options.checkpointDir = v;
        else if (flag == "--policy" && (v = next()))
            options.policyPath = v;
        else if (flag == "--threads" && (v = next()))
            options.threads =
                static_cast<int>(std::strtol(v, nullptr, 10));
        else if (flag == "--batch-seed" && (v = next()))
            options.batchSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--cache-mb" && (v = next()))
            cacheMb = std::strtol(v, nullptr, 10);
        else if (flag == "--max-queue" && (v = next()))
            options.limits.maxQueuedJobs =
                static_cast<size_t>(std::strtol(v, nullptr, 10));
        else if (flag == "--max-qubits" && (v = next()))
            options.limits.maxQubits =
                static_cast<int>(std::strtol(v, nullptr, 10));
        else if (flag == "--max-shots" && (v = next()))
            options.limits.maxShotsPerJob =
                std::strtoull(v, nullptr, 10);
        else if (flag == "--max-cost" && (v = next()))
            options.limits.maxJobCostUnits = std::strtod(v, nullptr);
        else if (flag == "--cost-rate" && (v = next()))
            options.slo.costUnitsPerSecond = std::strtod(v, nullptr);
        else if (flag == "--shed-margin" && (v = next()))
            options.slo.shedMargin = std::strtod(v, nullptr);
        else if (flag == "--simd" && (v = next()))
            simdSpec = v;
        else if (flag == "--flight" && (v = next()))
            flightSpec = v;
        else {
            std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                         flag.c_str());
            usage();
            return 1;
        }
    }
    if (options.listen.empty()) {
        usage();
        return 1;
    }
    if (cacheMb < 0) {
        std::fprintf(stderr, "--cache-mb must be >= 0\n");
        return 1;
    }
    options.cacheBudgetBytes = static_cast<uint64_t>(cacheMb) << 20;

    // Pin the amplitude kernel tier before the daemon starts serving:
    // this also registers the simd_isa_info gauge, so the very first
    // /metrics.json probe already reports the active ISA.
    if (!simdSpec.empty()) {
        std::string simdError;
        if (!qsim::selectSimdIsa(simdSpec, &simdError)) {
            std::fprintf(stderr, "rasengan_served: --simd: %s\n",
                         simdError.c_str());
            return 1;
        }
    }
    const char *simdIsa = qsim::simdIsaName(qsim::simdActiveIsa());

    // An explicit --flight decision sticks: Daemon::start() applies the
    // env/default-ON convention only when nothing was decided here.
    if (!flightSpec.empty())
        obs::flight::configureFromSpec(flightSpec, /*defaultOn=*/true);

    serve::Daemon daemon(options);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "rasengan_served: %s\n", error.c_str());
        return 1;
    }

    g_daemon = &daemon;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onSignal);
    std::signal(SIGPIPE, SIG_IGN); // client hangups are routine

    std::fprintf(stderr, "rasengan_served: listening on %s%s (simd %s)\n",
                 options.listen.c_str(),
                 options.journalPath.empty() ? ""
                                             : " (journaled)",
                 simdIsa);
    daemon.wait();
    g_daemon = nullptr;

    serve::DaemonStats stats = daemon.stats();
    std::fprintf(stderr,
                 "rasengan_served: drained (%llu accepted, %llu "
                 "completed, %llu shed, %llu replayed, %llu "
                 "checkpointed)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.replayed),
                 static_cast<unsigned long long>(stats.drainCancelled));
    return 0;
}
