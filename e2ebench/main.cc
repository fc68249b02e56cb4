/**
 * @file
 * e2e_bench: the repository's end-to-end benchmark.
 *
 *   e2e_bench --workload suite-exact|mixed-warm|scale-flp --seed N
 *             --seconds S --trace 0|1 [--trace-out PATH] [--dump]
 *
 * Runs one seeded workload through a real public entry point at one
 * simulation thread -- serve::BatchScheduler (suite-exact), the serve
 * daemon over its Unix socket (mixed-warm), core::RasenganSolver
 * (scale-flp) -- in repeated identical rounds until S seconds are used
 * and at least 100 jobs are done.
 * Every result line is checked (feasible, objective recomputed, not
 * below the known optimum) and CRC-32'd; the CRC and the exact work
 * counters must repeat from round to round.  Timings are medians:
 * over rounds (set-up), over each job's repeats (throughput) or
 * quantiles of the pooled jobs (latency).  With --trace 1 every round
 * also runs a layer-by-layer replay under benchmark-owned spans
 * (layers.h) and reports per-layer metrics instead; the spans are
 * written as a Perfetto-loadable trace.
 *
 * The last stdout line is one JSON object:
 *   {"correct":true,"attempted":N,"failed":F,"metrics":{...}}
 * A failed check prints the reasons to stderr and exits 1 without it.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/rasengan.h"
#include "layers.h"
#include "problems/suite.h"
#include "serve/daemon.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"
#include "spans.h"
#include "util.h"
#include "workloads.h"

using namespace rasengan;
using namespace e2e;

namespace {

/** Jobs a run completes at least, so that >= 10 latency samples lie
 *  beyond job_ms_p90. */
constexpr size_t kMinJobs = 100;

struct Args
{
    Workload workload = Workload::SuiteExact;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool dump = false;
    std::string traceOut;
};

/** One round: the workload's full job list, run once. */
struct Round
{
    std::vector<std::string> lines; ///< result line per job, spec order
    std::vector<double> jobMs;      ///< per-job latency
    std::vector<serve::JobTelemetry> tele; ///< serve workloads only
    std::vector<double> queueWaitMs, daemonOverheadMs; ///< mixed-warm
    double setupS = 0.0;
    double jobWallMs = 0.0;   ///< summed job service time
    std::map<std::string, uint64_t> counters;
};

// ---------------------------------------------------------------------
// Correctness gate

struct Known
{
    std::unique_ptr<problems::Problem> problem;
    double optimum = 0.0;
};

/** Checks result lines against independently materialized problems. */
class Gate
{
  public:
    const Known &
    suite(const std::string &bench, uint64_t c)
    {
        return known(bench + "#" + std::to_string(c),
                     [&] { return problems::makeBenchmark(bench, c); });
    }

    const Known &
    flp(int vars, uint64_t c)
    {
        return known("FLP" + std::to_string(vars) + "#" + std::to_string(c),
                     [&] { return problems::makeScalabilityFlp(vars, c); });
    }

    /**
     * Check one result line.  Returns true when the job completed ok;
     * a rejected or failed job returns false (it counts as failed,
     * not as incorrect).  Incorrect output is recorded in errors.
     */
    bool
    check(const std::string &id, const std::string &line, const Known &k,
          bool solutionOptional)
    {
        serve::JsonParseResult p = serve::parseFlatJson(line);
        if (!p.ok)
            return error(id, "unparseable result line: " + p.error);
        const serve::JsonObject &o = p.object;
        auto str = [&](const char *key) -> std::string {
            auto it = o.find(key);
            return it == o.end() ? std::string() : it->second.str;
        };
        auto num = [&](const char *key) -> double {
            auto it = o.find(key);
            return it == o.end() ? std::nan("") : it->second.num;
        };
        auto flag = [&](const char *key, bool dflt) {
            auto it = o.find(key);
            return it == o.end() ? dflt : it->second.flag;
        };
        if (str("id") != id)
            return error(id, "result line carries id \"" + str("id") + "\"");
        if (!flag("accepted", true) || !flag("ok", false))
            return false;

        const problems::Problem &prob = *k.problem;
        const std::string sol = str("solution");
        if (sol.empty()) {
            if (!solutionOptional)
                return error(id, "ok result without a solution");
        } else {
            if (static_cast<int>(sol.size()) != prob.numVars() ||
                sol.find_first_not_of("01") != std::string::npos)
                return error(id, "malformed solution \"" + sol + "\"");
            const BitVec x = BitVec::fromString(sol);
            if (!prob.isFeasible(x))
                return error(id, "infeasible solution " + sol);
            const double obj = num("objective");
            const double recomputed = prob.objective(x);
            const double tol = 1e-9 * std::max(1.0, std::fabs(recomputed));
            if (!(std::fabs(obj - recomputed) <= tol))
                return error(id, "objective " + std::to_string(obj) +
                                     " != recomputed " +
                                     std::to_string(recomputed));
            if (obj < k.optimum - 1e-9 * std::max(1.0, std::fabs(k.optimum)))
                return error(id, "objective " + std::to_string(obj) +
                                     " below the optimum " +
                                     std::to_string(k.optimum));
        }
        const double icr = num("in_constraints_rate");
        const double expected = num("expected_objective");
        if (!std::isfinite(icr) || !std::isfinite(expected))
            return error(id, "non-finite quality fields");
        icrSum += icr;
        if (std::fabs(k.optimum) > 1e-12) {
            argSum += prob.arg(expected);
            ++argCount;
        }
        ++okCount;
        return true;
    }

    bool
    error(const std::string &id, const std::string &what)
    {
        errors.push_back(id + ": " + what);
        return false;
    }

    std::vector<std::string> errors;
    double argSum = 0.0, icrSum = 0.0;
    size_t argCount = 0, okCount = 0;

  private:
    /** Memoized problem and optimum (enumeration is costly; rounds
     *  repeat the same problems). */
    template <typename Make>
    const Known &
    known(const std::string &key, Make make)
    {
        auto it = known_.find(key);
        if (it == known_.end()) {
            Known k;
            k.problem = std::make_unique<problems::Problem>(make());
            k.optimum = k.problem->optimalValue();
            it = known_.emplace(key, std::move(k)).first;
        }
        return it->second;
    }

    std::map<std::string, Known> known_;
};

// ---------------------------------------------------------------------
// Helpers

/**
 * Peak resident set of this process image, in MB.  VmHWM, not
 * getrusage: ru_maxrss carries over the parent's resident set from
 * before exec, so under a larger launcher (run.py's Python) a small
 * workload would report the launcher's memory.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return kb / 1024.0;
}

std::string
hashOf(const std::string &line)
{
    serve::JsonParseResult p = serve::parseFlatJson(line);
    auto it = p.object.find("result_hash");
    return it == p.object.end() ? std::string() : it->second.str;
}

uint32_t
crcOf(const std::vector<std::string> &lines)
{
    uint32_t crc = 0;
    for (const std::string &l : lines)
        crc = crc32(crc, l + "\n");
    return crc;
}

/** Exact work counters of a serve round (result lines + telemetry). */
void
serveCounters(Round &r)
{
    auto &c = r.counters;
    for (size_t i = 0; i < r.lines.size(); ++i) {
        serve::JsonParseResult p = serve::parseFlatJson(r.lines[i]);
        auto get = [&](const char *key) -> uint64_t {
            auto it = p.object.find(key);
            return it == p.object.end()
                       ? 0
                       : static_cast<uint64_t>(it->second.num);
        };
        c["jobs"] += 1;
        c["chain_steps"] += get("chain_length");
        c["segments"] += get("num_segments");
        c["params"] += get("num_params");
        const serve::JobTelemetry &t = r.tele[i];
        c["exec.attempts"] += t.attempts;
        c["exec.retries"] += t.retries;
        c["plan.recorded"] += t.planRecorded;
        c["plan.replayed"] += t.planReplayed;
        c["plan.aborted"] += t.planAborted;
        c["plan.invalidated"] += t.planInvalidated;
        c["support_max"] = std::max(c["support_max"], t.supportMax);
        c["cache.pipeline.hits"] += t.cachePipelineHits;
        c["cache.pipeline.misses"] += t.cachePipelineMisses;
        c["cache.circuit.hits"] += t.cacheCircuitHits;
        c["cache.circuit.misses"] += t.cacheCircuitMisses;
        c["cache.spplan.hits"] += t.cacheSpplanHits;
        c["cache.spplan.misses"] += t.cacheSpplanMisses;
    }
}

// ---------------------------------------------------------------------
// Workload rounds

/** suite-exact: one batch through serve::BatchScheduler. */
Round
suiteRound(const std::vector<ServeJobSpec> &specs, uint64_t seed)
{
    Round r;
    const double t0 = nowSec();
    std::vector<serve::JobRequest> reqs;
    for (const ServeJobSpec &s : specs) {
        serve::RequestParseResult p = serve::parseRequest(s.line);
        if (!p.ok)
            throw std::runtime_error(s.id + ": " + p.error);
        reqs.push_back(std::move(p.request));
    }
    const size_t n = specs.size();
    r.lines.assign(n, "");
    r.jobMs.assign(n, 0.0);
    r.tele.assign(n, {});
    double prev = 0.0;
    serve::ServeOptions o;
    o.threads = 1;
    o.batchSeed = batchSeedFor(seed);
    o.onJobComplete = [&](size_t i, const serve::JobResult &res) {
        r.lines[i] = serve::writeResult(res);
        r.tele[i] = res.telemetry;
        // One simulation thread: jobs complete one after another, so the
        // gap between completions is each job's service time, measured
        // from outside the scheduler.
        const double t = nowSec();
        r.jobMs[i] = (t - prev) * 1e3;
        prev = t;
    };
    serve::BatchScheduler sched(o);
    for (const serve::JobRequest &q : reqs)
        sched.submit(q);
    r.setupS = nowSec() - t0;

    prev = nowSec();
    sched.runAll();
    for (size_t i = 0; i < n; ++i) {
        if (r.lines[i].empty()) // rejected at submit
            r.lines[i] = serve::writeResult(sched.results()[i]);
        r.jobWallMs += r.jobMs[i];
    }
    serveCounters(r);
    return r;
}

int
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " + std::string(strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw std::runtime_error("connect " + path + ": " +
                                 strerror(errno));
    }
    return fd;
}

/** The client socket, closed on every exit path. */
struct ClientSocket
{
    int fd;
    explicit ClientSocket(int f) : fd(f) {}
    ClientSocket(const ClientSocket &) = delete;
    ClientSocket &operator=(const ClientSocket &) = delete;
    ~ClientSocket() { close(); }
    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
};

/** Send @p line and read one response line; false on socket error. */
bool
roundTrip(int fd, const std::string &line, std::string &buf,
          std::string &reply)
{
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
        ssize_t k = ::send(fd, out.data() + sent, out.size() - sent,
                           MSG_NOSIGNAL);
        if (k <= 0)
            return false;
        sent += static_cast<size_t>(k);
    }
    for (;;) {
        size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            reply = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
        if (k <= 0)
            return false;
        buf.append(chunk, static_cast<size_t>(k));
    }
}

/**
 * mixed-warm: the stream through a fresh daemon from one closed-loop
 * client, which sends each request after the previous reply.  One
 * client, because with a second every latency would include part of
 * another job, as the seed's job order decides, and two more threads'
 * hand-offs for a shared host's scheduler to stretch; job_ms_p50 would
 * then swing across seeds by more than its bound.
 */
Round
daemonRound(const std::vector<ServeJobSpec> &specs, uint64_t seed,
            const std::string &dir)
{
    Round r;
    const std::string sock = dir + "/mw-" + std::to_string(::getpid()) +
                             ".sock";
    const std::string journal = dir + "/mw-" + std::to_string(::getpid()) +
                                ".journal";
    std::remove(journal.c_str());
    const size_t n = specs.size();
    r.lines.assign(n, "");
    r.jobMs.assign(n, 0.0);
    r.tele.assign(n, {});

    const double t0 = nowSec();
    std::mutex teleMutex;
    std::map<std::string, serve::JobTelemetry> teleById;
    serve::DaemonOptions d;
    d.listen = "unix:" + sock;
    d.journalPath = journal;
    d.threads = 1;
    d.batchSeed = batchSeedFor(seed);
    d.onJobComplete = [&](const serve::PreparedJob &,
                          const serve::JobResult &res) {
        std::lock_guard<std::mutex> lock(teleMutex);
        teleById[res.id] = res.telemetry;
    };
    serve::Daemon daemon(d);
    std::string err;
    if (!daemon.start(&err))
        throw std::runtime_error("daemon start: " + err);
    ClientSocket client(connectUnix(sock));
    r.setupS = nowSec() - t0;

    std::string buf;
    bool broken = false;
    for (size_t i = 0; i < n && !broken; ++i) {
        const double ts = nowSec();
        broken = !roundTrip(client.fd, specs[i].line, buf, r.lines[i]);
        r.jobMs[i] = (nowSec() - ts) * 1e3;
    }
    client.close();
    daemon.stop();
    std::remove(journal.c_str());
    if (broken)
        throw std::runtime_error("daemon connection lost mid-round");

    for (size_t i = 0; i < n; ++i) {
        auto it = teleById.find(specs[i].id);
        if (it == teleById.end())
            continue; // rejected: no job ran
        r.tele[i] = it->second;
        r.queueWaitMs.push_back(it->second.queueWaitMs);
        r.daemonOverheadMs.push_back(r.jobMs[i] - it->second.queueWaitMs -
                                     it->second.wallMs);
        r.jobWallMs += it->second.wallMs;
    }
    serveCounters(r);
    return r;
}

/** scale-flp: each job through core::RasenganSolver directly. */
Round
flpRound(const std::vector<FlpJobSpec> &specs)
{
    Round r;
    const double t0 = nowSec();
    std::vector<problems::Problem> probs;
    for (const FlpJobSpec &j : specs)
        probs.push_back(problems::makeScalabilityFlp(j.numVars, j.caseIndex));
    r.setupS = nowSec() - t0;

    auto &c = r.counters;
    for (size_t i = 0; i < specs.size(); ++i) {
        const double ts = nowSec();
        core::RasenganSolver solver(probs[i], flpOptions(specs[i]));
        core::RasenganResult res = solver.run();
        r.lines.push_back(flpResultLine(specs[i], probs[i], res));
        r.jobMs.push_back((nowSec() - ts) * 1e3);
        c["jobs"] += 1;
        c["evals"] += static_cast<uint64_t>(res.training.evaluations);
        c["chain_steps"] += static_cast<uint64_t>(res.chainLength);
        c["segments"] += static_cast<uint64_t>(res.numSegments);
        c["max_segment_cx"] += static_cast<uint64_t>(res.maxSegmentCx);
        c["exec.attempts"] += res.execStats.attempts;
        c["exec.retries"] += res.execStats.retries;
        c["plan.recorded"] += solver.planStats().recorded;
        c["plan.replayed"] += solver.planStats().replayed;
        c["support_max"] =
            std::max(c["support_max"], solver.maxObservedSupport());
    }
    for (double ms : r.jobMs)
        r.jobWallMs += ms;
    return r;
}

// ---------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string samples; ///< human-readable sample description
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(const std::vector<Metric> &metrics, size_t attempted,
            size_t failed)
{
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        Metric m = metrics[i];
        if (!std::isfinite(m.value))
            m.value = 0.0; // a percentile of no samples (n=0)
        std::printf("metric %-34s %14.6g %-6s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples.c_str());
        json += (i ? ", " : "") + std::string("\"") + m.name +
                "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

std::string
nSamples(size_t n, const char *what)
{
    return "n=" + std::to_string(n) + " " + what;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (flag == "--dump") {
            a.dump = true;
        } else if (flag == "--workload" && (v = value())) {
            if (!parseWorkload(v, &a.workload))
                return false;
        } else if (flag == "--seed" && (v = value())) {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--seconds" && (v = value())) {
            a.seconds = std::atof(v);
        } else if (flag == "--trace" && (v = value())) {
            a.trace = std::string(v) == "1";
        } else if (flag == "--trace-out" && (v = value())) {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    return a.seconds > 0.0;
}

/** Everything one run collects. */
struct Run
{
    Workload workload = Workload::SuiteExact;
    std::vector<ServeJobSpec> serveSpecs; ///< suite-exact, mixed-warm
    std::vector<FlpJobSpec> flpSpecs;     ///< scale-flp
    Gate gate;
    SpanRecorder spans;
    std::vector<Round> rounds;
    std::vector<LayerCounts> layerCounts; ///< one per replayed round
    std::vector<double> overheads;        ///< traced / untraced job time
    uint32_t crc = 0;
    size_t attempted = 0, failed = 0;
    /**
     * Peak RSS through the first round: later rounds repeat the same
     * work, but every daemon round starts fresh threads whose malloc
     * arenas stay mapped, so a process-lifetime peak would grow with
     * the number of rounds a run happens to fit.
     */
    double firstRoundRssMb = 0.0;

    bool serve() const { return workload != Workload::ScaleFlp; }
    size_t
    jobsPerRound() const
    {
        return serve() ? serveSpecs.size() : flpSpecs.size();
    }
};

uint64_t
counterOf(const Round &r, const char *name)
{
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second;
}

/** Gate one finished round: repeatability, then every result line. */
void
checkRound(Run &run, const Round &r)
{
    Gate &gate = run.gate;
    const uint32_t crc = crcOf(r.lines);
    if (run.rounds.empty()) {
        run.crc = crc;
    } else {
        const std::string round = "round " + std::to_string(run.rounds.size());
        if (crc != run.crc)
            gate.error(round, "result CRC differs from round 0");
        if (r.counters != run.rounds.front().counters)
            gate.error(round, "work counters differ from round 0");
    }
    for (size_t i = 0; i < run.jobsPerRound(); ++i) {
        bool ok;
        if (run.serve()) {
            const ServeJobSpec &s = run.serveSpecs[i];
            ok = gate.check(s.id, r.lines[i],
                            gate.suite(s.benchmark, s.caseIndex),
                            s.algorithm != "rasengan");
        } else {
            const FlpJobSpec &s = run.flpSpecs[i];
            ok = gate.check(s.id, r.lines[i],
                            gate.flp(s.numVars, s.caseIndex), false);
        }
        ++run.attempted;
        run.failed += ok ? 0 : 1;
    }
}

/**
 * Layer replay of round @p r under spans; it must reproduce every
 * result, and its work counts must repeat exactly between rounds.
 */
void
replayRound(Run &run, const Round &r, uint64_t seed)
{
    Gate &gate = run.gate;
    LayerReplay replay(run.spans, batchSeedFor(seed));
    const size_t firstSpan = run.spans.records().size();
    for (size_t i = 0; i < run.jobsPerRound(); ++i) {
        if (run.serve()) {
            const std::string hash = hashOf(r.lines[i]);
            if (hash.empty())
                continue; // rejected: nothing ran
            std::string err = replay.replayServeJob(run.serveSpecs[i], hash);
            if (!err.empty())
                gate.error("replay", err);
        } else {
            const FlpJobSpec &s = run.flpSpecs[i];
            problems::Problem p =
                problems::makeScalabilityFlp(s.numVars, s.caseIndex);
            if (replay.runFlpJob(s, p) != r.lines[i])
                gate.error(s.id, "traced result line differs from the "
                                 "untraced one");
        }
    }
    double tracedMs = 0.0;
    for (size_t k = firstSpan; k < run.spans.records().size(); ++k)
        if (run.spans.records()[k].name == "job")
            tracedMs += SpanRecorder::durationMs(run.spans.records()[k]);
    run.overheads.push_back(tracedMs / r.jobWallMs);
    run.layerCounts.push_back(replay.counts());
    const LayerCounts &a = run.layerCounts.front(),
                      &b = run.layerCounts.back();
    if (a.evals != b.evals || a.transpileCalls != b.transpileCalls ||
        a.cxTotal != b.cxTotal || a.chainSteps != b.chainSteps ||
        a.planReplayed != b.planReplayed)
        gate.error("replay", "layer work counts differ between rounds");
}

/** Repeat rounds until @p args.seconds are used and kMinJobs jobs
 *  attempted, or until a check fails. */
void
runRounds(Run &run, const Args &args, const std::string &outDir)
{
    const double start = nowSec();
    try {
        do {
            Round r = run.workload == Workload::SuiteExact
                          ? suiteRound(run.serveSpecs, args.seed)
                      : run.workload == Workload::MixedWarm
                          ? daemonRound(run.serveSpecs, args.seed, outDir)
                          : flpRound(run.flpSpecs);
            checkRound(run, r);
            if (args.trace)
                replayRound(run, r, args.seed);
            if (run.rounds.empty())
                run.firstRoundRssMb = peakRssMb();
            run.rounds.push_back(std::move(r));
        } while (run.gate.errors.empty() &&
                 (nowSec() - start < args.seconds ||
                  run.attempted < kMinJobs));
    } catch (const std::exception &e) {
        run.gate.errors.push_back(std::string("run aborted: ") + e.what());
    }
}

std::vector<Metric>
endToEndMetrics(const Run &run)
{
    const std::vector<Round> &rounds = run.rounds;
    std::vector<double> setup, pooledMs;
    size_t okPerRound = 0;
    for (const std::string &l : rounds.front().lines) {
        auto p = serve::parseFlatJson(l);
        auto it = p.object.find("ok");
        okPerRound += it != p.object.end() && it->second.flag ? 1 : 0;
    }
    for (const Round &r : rounds) {
        setup.push_back(r.setupS);
        pooledMs.insert(pooledMs.end(), r.jobMs.begin(), r.jobMs.end());
    }
    // Each job's median latency across rounds: robust to the
    // seconds-long slow spells of a shared machine, which a median of
    // whole rounds or of all samples pooled only partly absorbs.  Every
    // workload runs one job at a time, so a typical round's wall is the
    // sum of these medians.
    std::vector<double> medianMs;
    double typicalRoundMs = 0.0;
    for (size_t i = 0; i < run.jobsPerRound(); ++i) {
        std::vector<double> perJob;
        for (const Round &r : rounds)
            perJob.push_back(r.jobMs[i]);
        medianMs.push_back(median(perJob));
        typicalRoundMs += medianMs.back();
    }
    const double jobsPerS =
        static_cast<double>(okPerRound) / (typicalRoundMs * 1e-3);
    // Latency percentiles over those per-job medians where one round
    // holds enough jobs that >= 10 lie beyond job_ms_p90; a workload
    // with shorter rounds pools every sample of every round instead.
    const bool overMedians = run.jobsPerRound() >= kMinJobs;
    const std::vector<double> &jobMs = overMedians ? medianMs : pooledMs;
    const std::string roundsNote = nSamples(rounds.size(), "rounds");
    const std::string jobsNote = nSamples(
        jobMs.size(), overMedians ? "job medians over rounds" : "jobs");
    const Gate &g = run.gate;
    const double attempted = static_cast<double>(run.attempted);
    std::printf("failed_share %.6g (%zu of %zu jobs)\n",
                attempted > 0 ? run.failed / attempted : 0.0, run.failed,
                run.attempted);
    return {
        {"jobs_per_s", jobsPerS, "1/s", roundsNote},
        {"job_ms_p50", quantile(jobMs, 0.5), "ms", jobsNote},
        {"job_ms_p90", quantile(jobMs, 0.9), "ms", jobsNote},
        {"setup_s", median(setup), "s", roundsNote},
        {"peak_rss_mb", run.firstRoundRssMb, "MB", "peak through round 1"},
        {"ok_share",
         attempted > 0 ? (attempted - run.failed) / attempted : 0.0, "share",
         nSamples(run.attempted, "jobs attempted")},
        {"arg_mean", g.argCount ? g.argSum / g.argCount : 0.0, "ratio",
         nSamples(g.argCount, "ok jobs")},
        {"in_constraints_mean", g.okCount ? g.icrSum / g.okCount : 0.0,
         "share", nSamples(g.okCount, "ok jobs")},
    };
}

std::vector<Metric>
perLayerMetrics(const Run &run)
{
    const SpanRecorder &spans = run.spans;
    const auto summary = spans.summarize();
    const Round &r0 = run.rounds.front();
    const LayerCounts &lc = run.layerCounts.front();
    const std::string perRound = "per round (exact)";
    std::vector<Metric> m;

    auto timed = [&](const char *metric, const char *span, bool micros) {
        auto it = summary.find(span);
        const size_t n = it == summary.end() ? 0 : it->second.count;
        m.push_back({metric,
                     mean(spans.durationsMs(span)) * (micros ? 1e3 : 1.0),
                     micros ? "us" : "ms", nSamples(n, "calls, mean")});
    };
    auto count = [&](const char *metric, uint64_t v) {
        m.push_back({metric, static_cast<double>(v), "count", perRound});
    };
    auto share = [&](const char *metric, uint64_t part, uint64_t whole) {
        m.push_back({metric,
                     whole ? static_cast<double>(part) / whole : 0.0,
                     "share", perRound});
    };
    auto hitRatio = [&](const char *metric, const char *domain) {
        const std::string d = std::string("cache.") + domain;
        const uint64_t hits = counterOf(r0, (d + ".hits").c_str());
        share(metric, hits, hits + counterOf(r0, (d + ".misses").c_str()));
    };
    auto pooledMean = [&](const char *metric,
                          std::vector<double> LayerCounts::*field) {
        std::vector<double> all;
        for (const LayerCounts &c : run.layerCounts)
            all.insert(all.end(), (c.*field).begin(), (c.*field).end());
        m.push_back({metric, mean(all), "ms",
                     nSamples(all.size(), "jobs, mean")});
    };
    auto pooledP50 = [&](const char *metric,
                         std::vector<double> Round::*field) {
        std::vector<double> all;
        for (const Round &r : run.rounds)
            all.insert(all.end(), (r.*field).begin(), (r.*field).end());
        m.push_back({metric, quantile(all, 0.5), "ms",
                     nSamples(all.size(), "jobs")});
    };

    timed("serve.parse_us", "serve.parse", true);
    timed("serve.prepare_us", "serve.prepare", true);
    timed("serve.serialize_us", "serve.serialize", true);
    hitRatio("serve.cache.pipeline_hit_ratio", "pipeline");
    hitRatio("serve.cache.circuit_hit_ratio", "circuit");
    hitRatio("serve.cache.spplan_hit_ratio", "spplan");
    pooledP50("serve.queue_wait_ms_p50", &Round::queueWaitMs);
    pooledP50("serve.daemon_overhead_ms_p50", &Round::daemonOverheadMs);
    timed("problems.make_us", "problems.make", true);
    timed("problems.canonical_us", "problems.canonical", true);
    timed("core.pipeline_ms", "core.pipeline", false);
    timed("core.transitions_ms", "core.transitions", false);
    timed("core.chain_ms", "core.chain", false);
    count("core.chain_steps", lc.chainSteps);
    count("core.segments", lc.segments);
    pooledMean("circuit.transpile_ms", &LayerCounts::transpileMs);
    count("circuit.transpile_calls", lc.transpileCalls);
    count("circuit.cx_total", lc.cxTotal);
    count("core.evals", lc.evals);
    timed("core.execute_us", "core.execute", true);
    timed("core.run_ms", "core.run", false);
    pooledMean("core.run_residual_ms", &LayerCounts::runResidualMs);
    timed("qsim.evolve_us", "qsim.evolve", true);
    count("qsim.support_max", lc.supportMax);
    share("qsim.plan_replay_ratio", lc.planReplayed, lc.planLookups);
    timed("baselines.run_ms.hea", "baselines.hea", false);
    timed("baselines.run_ms.pqaoa", "baselines.pqaoa", false);
    timed("baselines.run_ms.chocoq", "baselines.chocoq", false);
    count("exec.attempts", counterOf(r0, "exec.attempts"));
    count("exec.retries", counterOf(r0, "exec.retries"));

    // Coverage: share of job-span time inside a named child span.
    double jobTotal = 0.0, jobSelf = 0.0;
    size_t jobs = 0;
    for (size_t k = 0; k < spans.records().size(); ++k) {
        if (spans.records()[k].name != "job")
            continue;
        ++jobs;
        jobTotal += SpanRecorder::durationMs(spans.records()[k]);
        jobSelf += spans.selfMs(static_cast<int>(k));
    }
    m.push_back({"trace.coverage",
                 jobTotal > 0 ? 1.0 - jobSelf / jobTotal : 0.0, "share",
                 nSamples(jobs, "job spans")});
    m.push_back({"trace.overhead", median(run.overheads), "ratio",
                 nSamples(run.rounds.size(), "rounds")});

    std::printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, s] : summary)
        std::printf("%-22s %8zu %12.3f %12.3f\n", name.c_str(), s.count,
                    s.totalMs, s.selfMs);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload suite-exact|mixed-warm|"
                     "scale-flp --seed N --seconds S --trace 0|1 "
                     "[--trace-out PATH] [--dump]\n");
        return 2;
    }
    if (args.dump) {
        dumpWorkload(args.workload, args.seed, stdout);
        return 0;
    }
    const char *wname = workloadName(args.workload);
    const std::string outDir = ".bench_out";
    std::filesystem::create_directories(outDir);
    if (args.traceOut.empty())
        args.traceOut = outDir + "/trace-" + wname + "-seed" +
                        std::to_string(args.seed) + ".json";
    parallel::setThreadCount(1);

    Run run;
    run.workload = args.workload;
    if (run.serve())
        run.serveSpecs = serveJobs(args.workload, args.seed);
    else
        run.flpSpecs = flpJobs(args.seed);
    std::printf("workload %s seed %llu trace %d jobs/round %zu\n", wname,
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                run.jobsPerRound());

    runRounds(run, args, outDir);
    if (!run.gate.errors.empty()) {
        for (const std::string &e : run.gate.errors)
            std::fprintf(stderr, "e2e_bench: INVALID RUN: %s\n", e.c_str());
        return 1;
    }

    std::printf("rounds %zu crc32 %08x\n", run.rounds.size(), run.crc);
    for (const auto &[name, v] : run.rounds.front().counters)
        std::printf("counter %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));

    if (!args.trace) {
        printResult(endToEndMetrics(run), run.attempted, run.failed);
        return 0;
    }
    std::vector<Metric> metrics = perLayerMetrics(run);
    if (!run.spans.writeChromeTrace(args.traceOut)) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                     args.traceOut.c_str());
        return 1;
    }
    std::printf("trace written to %s (%zu spans)\n", args.traceOut.c_str(),
                run.spans.records().size());
    printResult(metrics, run.attempted, run.failed);
    return 0;
}
