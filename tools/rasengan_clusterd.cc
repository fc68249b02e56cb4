/**
 * @file
 * Distributed solve cluster driver.
 *
 * Three modes share one binary:
 *
 *  - Local fork mode (default): `--workers N` forks N worker processes
 *    connected over socketpairs, shards the batch across them, and
 *    merges the streamed results.  The merged result file is
 *    byte-identical to a single-process `rasengan_serve` run over the
 *    same requests and batch seed -- at any worker count, any
 *    completion order, and across worker crashes (orphaned jobs are
 *    re-placed onto survivors and reproduce the same bytes).
 *
 *  - Worker mode: `--worker --connect HOST:PORT` runs one remote
 *    worker against a listening coordinator.
 *
 *  - Listen mode: `--listen PORT --expect-workers N` accepts N remote
 *    workers, then coordinates exactly like fork mode.
 *
 * Usage:
 *   rasengan_clusterd (--requests FILE | --workload N [--workload-seed S])
 *                     [--workers N | --listen PORT --expect-workers N]
 *   rasengan_clusterd --worker --connect HOST:PORT
 *
 * Options (coordinator modes, besides the common serving flags in
 * README; --threads and --cache-mb apply per worker):
 *   --max-placements N      placement attempts per job across worker
 *                           deaths (default 3)
 *   --fault SPEC            fault plan forwarded to one worker:
 *                           kill-after:N | disconnect-after:N
 *   --fault-worker W        which worker gets --fault (default 0)
 *
 * Distributed tracing: with --trace the coordinator propagates a
 * per-job 128-bit trace id inside every forwarded request, workers
 * ship their span forests back in batch_done, and FILE receives ONE
 * merged Chrome trace (coordinator + every worker under per-worker
 * pids, clock-aligned).  --trace-signature FILE additionally writes
 * the canonical merged span-tree signature, which is byte-identical
 * across worker counts and thread counts for a deterministic batch.
 *
 * Exit status: 0 all jobs ok, 1 usage/I-O/cluster failure, 2 some
 * admitted job failed (rejections alone are reported outcomes).
 */

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "common/socket.h"
#include "exec/faults.h"
#include "obs_cli.h"
#include "serve/jsonl.h"

using namespace rasengan;

namespace {

struct Args
{
    // Transport selection
    long workers = -1; ///< fork mode worker count
    bool workerMode = false;
    std::string connect; ///< HOST:PORT (worker mode)
    long listenPort = -1;
    long expectWorkers = -1;

    tools::BatchIo io;
    cluster::CoordinatorOptions coordinator;
    tools::ObsCliOptions obs;
    std::string traceSignature; ///< merged signature output path
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    cluster::CoordinatorOptions &c = args.coordinator;
    // This driver's defaults: --fault-worker 0, --max-placements 3.
    c.faultWorker = 0;
    c.retry.maxAttempts = 3;

    tools::FlagSet flags(
        "rasengan_clusterd (--requests FILE | --workload N "
        "[--workload-seed S])\n"
        "  (--workers N | --listen PORT --expect-workers N) [options]\n"
        "   or: rasengan_clusterd --worker --connect HOST:PORT");
    flags.count("--workers", "N", &args.workers);
    flags.toggle("--worker", &args.workerMode);
    flags.text("--connect", "HOST:PORT", &args.connect);
    flags.count("--listen", "PORT", &args.listenPort);
    flags.count("--expect-workers", "N", &args.expectWorkers);
    tools::addBatchFlags(flags, args.io);
    tools::addServiceFlags(flags, tools::Front::Batch, c, args.obs);
    flags.count("--max-placements", "N", &c.retry.maxAttempts, 1);
    flags.text("--fault", "SPEC", &c.faultSpec);
    flags.count("--fault-worker", "W", &c.faultWorker);
    flags.text("--trace-signature", "FILE", &args.traceSignature);
    if (!flags.parse(argc, argv)) {
        flags.usage();
        return false;
    }

    if (args.workerMode) {
        if (args.connect.empty()) {
            std::fprintf(stderr, "--worker requires --connect\n");
            return false;
        }
        return true;
    }
    bool forkMode = args.workers > 0;
    bool listenMode = args.listenPort >= 0;
    if (forkMode == listenMode) {
        std::fprintf(stderr, "exactly one of --workers and --listen is "
                             "required\n");
        return false;
    }
    if (listenMode && args.expectWorkers <= 0) {
        std::fprintf(stderr, "--listen requires --expect-workers N\n");
        return false;
    }
    exec::ProcessFaultParseResult fault =
        exec::parseProcessFaultPlan(c.faultSpec);
    if (!fault.ok) {
        std::fprintf(stderr, "--fault: %s\n", fault.error.c_str());
        return false;
    }
    return true;
}

/** Accept @p count worker connections on every interface's @p port. */
bool
acceptWorkers(long port, long count, std::vector<int> &fds)
{
    Listener listener;
    std::string error;
    if (!listenOn("tcp:0.0.0.0:" + std::to_string(port), &listener,
                  &error)) {
        std::fprintf(stderr, "--listen: %s\n", error.c_str());
        return false;
    }
    std::fprintf(stderr, "cluster: waiting for %ld workers on port %d\n",
                 count, listener.port);
    for (long i = 0; i < count; ++i) {
        int fd = ::accept(listener.fd, nullptr, nullptr);
        if (fd < 0) {
            std::fprintf(stderr, "accept failed\n");
            ::close(listener.fd);
            return false;
        }
        fds.push_back(fd);
    }
    ::close(listener.fd);
    return true;
}

/**
 * Fork @p count workers connected over socketpairs.  Forking happens
 * before the coordinator touches the simulation pool, so children never
 * inherit live pool threads.  Each child closes the coordinator ends it
 * inherited (a stray duplicate would defeat EOF-based death detection).
 */
bool
forkWorkers(long count, std::vector<int> &coordinatorFds,
            std::vector<pid_t> &children)
{
    for (long i = 0; i < count; ++i) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
            std::fprintf(stderr, "socketpair failed\n");
            return false;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed\n");
            ::close(pair[0]);
            ::close(pair[1]);
            return false;
        }
        if (pid == 0) {
            ::close(pair[0]);
            for (int fd : coordinatorFds)
                ::close(fd);
            cluster::WorkerOutcome outcome = cluster::runWorker(pair[1]);
            if (!outcome.ok)
                std::fprintf(stderr, "worker %ld: %s\n", i,
                             outcome.error.c_str());
            std::fflush(nullptr);
            ::_exit(outcome.ok ? 0 : 1);
        }
        ::close(pair[1]);
        coordinatorFds.push_back(pair[0]);
        children.push_back(pid);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 1;
    if (!args.traceSignature.empty() && args.obs.tracePath.empty()) {
        std::fprintf(stderr,
                     "--trace-signature requires --trace (the signature "
                     "is computed over the merged trace)\n");
        return 1;
    }

    if (args.workerMode) {
        std::string error;
        int fd = connectTcp(args.connect, &error);
        if (fd < 0) {
            std::fprintf(stderr, "--connect: %s\n", error.c_str());
            return 1;
        }
        cluster::WorkerOutcome outcome = cluster::runWorker(fd);
        if (!outcome.ok) {
            std::fprintf(stderr, "worker: %s\n", outcome.error.c_str());
            return 1;
        }
        std::fprintf(stderr, "worker: %zu jobs run\n", outcome.jobsRun);
        return 0;
    }

    // Same loader as rasengan_serve, so the merged output is
    // comparable line for line.
    std::vector<serve::JobRequest> requests;
    if (!tools::loadRequests(args.io, requests))
        return 1;

    // Workers first: fork mode must spawn before any pool/simd setup so
    // children start from a clean, thread-free process image.
    std::vector<int> workerFds;
    std::vector<pid_t> children;
    if (args.workers > 0) {
        if (!forkWorkers(args.workers, workerFds, children))
            return 1;
    } else if (!acceptWorkers(args.listenPort, args.expectWorkers,
                              workerFds)) {
        return 1;
    }

    tools::obsCliStart(args.obs);

    cluster::Coordinator coordinator(args.coordinator, std::move(workerFds));
    for (const auto &req : requests)
        coordinator.submit(req);
    std::string error;
    bool ok = coordinator.runAll(&error);
    if (!ok)
        std::fprintf(stderr, "cluster: %s\n", error.c_str());

    // Merged result and telemetry streams, submission order.
    if (!tools::writeLines(args.io.out, coordinator.resultLines()) ||
        (!args.io.telemetry.empty() &&
         !tools::writeLines(args.io.telemetry,
                            coordinator.telemetryLines())))
        return 1;

    // Outcome accounting from the merged lines themselves.
    size_t accepted = 0, rejected = 0, failed = 0;
    for (const auto &line : coordinator.resultLines()) {
        serve::JsonParseResult parsed = serve::parseFlatJson(line);
        bool wasAccepted = false, wasOk = false;
        serve::FieldReader(parsed.object)
            .optional("accepted", &wasAccepted)
            .optional("ok", &wasOk);
        if (!parsed.ok)
            ++failed;
        else if (!wasAccepted)
            ++rejected;
        else if (!wasOk)
            ++failed;
        else
            ++accepted;
    }

    const cluster::CoordinatorStats &stats = coordinator.stats();
    std::fprintf(stderr,
                 "cluster: %zu jobs (%zu ok, %zu failed, %zu rejected) "
                 "on %zu workers (%zu died, %zu jobs re-placed, %zu "
                 "abandoned)\n",
                 coordinator.resultLines().size(), accepted, failed,
                 rejected, stats.workers, stats.workersDead,
                 stats.jobsReplaced, stats.jobsSynthesized);
    std::fprintf(stderr,
                 "cluster cache: %llu hits, %llu misses, %llu evictions "
                 "across surviving workers\n",
                 static_cast<unsigned long long>(stats.cacheHits),
                 static_cast<unsigned long long>(stats.cacheMisses),
                 static_cast<unsigned long long>(stats.cacheEvictions));

    // Reap fork-mode children (a faulted worker died by SIGKILL; that
    // is the experiment, not an error).
    for (pid_t pid : children) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }

    // The cluster trace is stitched from every worker's shipped spans,
    // so the merged writer replaces the plain per-process export that
    // obsCliFinish() would produce.
    if (!args.obs.tracePath.empty()) {
        obs::stopTracing();
        std::string traceError;
        if (!coordinator.writeMergedTrace(args.obs.tracePath,
                                          &traceError)) {
            std::fprintf(stderr, "cluster trace: %s\n",
                         traceError.c_str());
            return 1;
        }
        size_t foreign = 0;
        for (const auto &f : coordinator.foreignSpans())
            foreign += f.events.size();
        std::fprintf(stderr,
                     "cluster trace: %zu coordinator events + %zu "
                     "worker events -> %s\n",
                     obs::traceEventCount(), foreign,
                     args.obs.tracePath.c_str());
        if (uint64_t dropped = coordinator.shippedSpansDropped())
            std::fprintf(
                stderr,
                "cluster trace: %llu worker spans dropped (frame cap)\n",
                static_cast<unsigned long long>(dropped));
        args.obs.tracePath.clear(); // merged trace already written
    }
    if (!args.traceSignature.empty()) {
        const std::string sig = coordinator.mergedSignature() + "\n";
        if (!obs::writeTextFile(args.traceSignature, sig)) {
            std::fprintf(stderr, "cannot write trace signature to '%s'\n",
                         args.traceSignature.c_str());
            return 1;
        }
    }

    if (!tools::obsCliFinish(args.obs))
        return 1;
    if (!ok)
        return 1;
    return failed > 0 ? 2 : 0;
}
