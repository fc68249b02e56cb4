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
 * Options (besides the common serving flags in README; the flight
 * recorder defaults ON here -- the daemon always keeps a flight ring,
 * SIGQUIT dumps it and keeps serving, GET /debug/flight serves it live):
 *   --journal FILE       write-ahead job journal (crash recovery)
 *   --results FILE       append every result line (audit mirror)
 *   --checkpoint-dir DIR segment checkpoints for drain/crash resume
 *   --policy FILE        admission/SLO policy file (serve/policy flat
 *                        JSON); loaded at start, re-read on SIGHUP
 *   --cost-rate R        SLO: worker throughput in cost units/second
 *                        (calibrates the deadline-miss predictor)
 *   --shed-margin F      SLO: fraction of a deadline kept as safety
 *                        margin before shedding (default 0.1)
 *
 * Exit status: 0 after a clean drain, 1 on startup failure.
 */

#include <csignal>
#include <cstdio>

#include "obs_cli.h"
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

} // namespace

int
main(int argc, char **argv)
{
    serve::DaemonOptions options;
    options.listen.clear();
    tools::ObsCliOptions obs;
    tools::FlagSet flags("rasengan_served --listen (unix:PATH | "
                         "tcp:[HOST:]PORT) [options]");
    flags.text("--listen", "ADDR", &options.listen);
    flags.text("--journal", "FILE", &options.journalPath);
    flags.text("--results", "FILE", &options.resultsPath);
    flags.text("--checkpoint-dir", "DIR", &options.checkpointDir);
    flags.text("--policy", "FILE", &options.policyPath);
    flags.number("--cost-rate", "UNITS_PER_S",
                 &options.slo.costUnitsPerSecond);
    flags.number("--shed-margin", "FRACTION", &options.slo.shedMargin);
    tools::addServiceFlags(flags, tools::Front::Daemon, options, obs);
    if (!flags.parse(argc, argv) || options.listen.empty()) {
        flags.usage();
        return 1;
    }

    // Resolve the amplitude kernel tier and apply --flight before the
    // daemon starts serving: the very first /metrics.json probe already
    // reports the active ISA, and Daemon::start() keeps an explicit
    // flight decision (without one it turns the recorder on).
    tools::obsCliStart(obs);
    const char *simdIsa = qsim::simdIsaName(qsim::simdActiveIsa());

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
