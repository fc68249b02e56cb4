/**
 * @file
 * The one command-line path shared by the four drivers (rasengan_solve,
 * rasengan_serve, rasengan_served, rasengan_clusterd).
 *
 *  - FlagSet: a strict, table-driven flag parser.  A numeric value is
 *    parsed whole: trailing garbage, a sign on a count, overflow, or a
 *    negative or non-finite number is a usage error naming the flag.
 *  - addServiceFlags(): registers the shared flags once, straight into
 *    a serve::ServiceConfig and ObsCliOptions; addBatchFlags() adds the
 *    batch input/output flags rasengan_serve and rasengan_clusterd
 *    share.  README "Common serving flags" documents them.
 *  - loadRequests(): the --requests/--workload batch loader.
 *  - writeLines(): the checked --out/--telemetry writer.
 *  - obsCliStart()/obsCliFinish(): call the first once flags are
 *    parsed (resolves the kernel ISA, registering the simd_isa_info
 *    gauge before any export can run; configures the flight recorder
 *    from --flight and installs its dump signal
 *    handlers; starts tracing when a trace path was given and records
 *    the ISA as an instant event), the second before exit (writes the
 *    Chrome trace JSON and the metrics exposition).  A metrics path
 *    ending in ".json" selects the flat JSON export; anything else gets
 *    Prometheus text.
 */

#ifndef RASENGAN_TOOLS_OBS_CLI_H
#define RASENGAN_TOOLS_OBS_CLI_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qsim/simd.h"
#include "serve/config.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/workload.h"

namespace rasengan::tools {

struct ObsCliOptions
{
    std::string tracePath;
    std::string metricsPath;
    /** --flight value: on|off|N (ring entries)|/dump/path; "" leaves
     *  the default (on inside the daemon, off elsewhere). */
    std::string flightSpec;
};

/** Batch input and output of rasengan_serve and rasengan_clusterd. */
struct BatchIo
{
    std::string requests;      ///< request JSONL file
    long workload = -1;        ///< generated batch size; -1 = not given
    uint64_t workloadSeed = 1;
    std::string out;           ///< result JSONL; "" = stdout
    std::string telemetry;     ///< per-job telemetry JSONL; "" = off
};

/** Parse a whole decimal count: digits only, no sign, no overflow. */
inline bool
parseCount(const char *text, uint64_t *value)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *value = n;
    return true;
}

class FlagSet
{
  public:
    /** Applies a flag's value; false rejects it. */
    using Setter = std::function<bool(const char *)>;

    explicit FlagSet(std::string synopsis) : synopsis_(std::move(synopsis))
    {}

    /**
     * Register @p name.  @p meta names its value in the usage text;
     * nullptr makes it a value-less switch.  @p expect describes an
     * acceptable value for the rejection message.
     */
    void
    add(const char *name, const char *meta, std::string expect,
        Setter set)
    {
        flags_.push_back({name, meta, std::move(expect), std::move(set)});
    }

    void
    text(const char *name, const char *meta, std::string *dst)
    {
        add(name, meta, "", [dst](const char *v) {
            *dst = v;
            return true;
        });
    }

    void
    toggle(const char *name, bool *dst)
    {
        add(name, nullptr, "", [dst](const char *) {
            *dst = true;
            return true;
        });
    }

    /** An integer in [@p min, max of T]. */
    template <typename T>
    void
    count(const char *name, const char *meta, T *dst, T min = 0)
    {
        add(name, meta, "an integer >= " + std::to_string(min),
            [dst, min](const char *v) {
                uint64_t n = 0;
                if (!parseCount(v, &n) || n < static_cast<uint64_t>(min) ||
                    n > static_cast<uint64_t>(
                            std::numeric_limits<T>::max()))
                    return false;
                *dst = static_cast<T>(n);
                return true;
            });
    }

    /** A finite number >= 0. */
    void
    number(const char *name, const char *meta, double *dst)
    {
        add(name, meta, "a finite number >= 0", [dst](const char *v) {
            char *end = nullptr;
            const double x = std::strtod(v, &end);
            if (end == v || *end != '\0' || !std::isfinite(x) || x < 0.0)
                return false;
            *dst = x;
            return true;
        });
    }

    /** Apply argv[1..]; false after a diagnostic naming the flag. */
    bool
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const char *name = argv[i];
            auto flag = std::find_if(
                flags_.begin(), flags_.end(), [name](const Flag &f) {
                    return std::strcmp(f.name, name) == 0;
                });
            const bool hasValue = flag != flags_.end() && flag->meta;
            if (flag == flags_.end() || (hasValue && i + 1 >= argc)) {
                std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                             name);
                return false;
            }
            const char *value = hasValue ? argv[++i] : "";
            if (!flag->set(value)) {
                std::fprintf(stderr, "%s: bad value '%s' (expected %s)\n",
                             name, value, flag->expect.c_str());
                return false;
            }
        }
        return true;
    }

    void
    usage() const
    {
        std::string line = "usage: " + synopsis_ + "\n ";
        for (const Flag &f : flags_) {
            std::string item = std::string(" [") + f.name;
            if (f.meta)
                item += std::string(" ") + f.meta;
            item += "]";
            const size_t width = line.size() - line.rfind('\n');
            if (width + item.size() > 78)
                line += "\n ";
            line += item;
        }
        std::fprintf(stderr, "%s\n", line.c_str());
    }

  private:
    struct Flag
    {
        const char *name;
        const char *meta;
        std::string expect;
        Setter set;
    };

    std::string synopsis_;
    std::vector<Flag> flags_;
};

/** Which shared flags a driver takes. */
enum class Front
{
    Solve,  ///< --threads (>= 1), --trace, --metrics, --flight
    Daemon, ///< every ServiceConfig flag, --flight
    Batch,  ///< the Daemon set plus --trace and --metrics
};

/** Register the shared flags of @p front into @p service and @p obs. */
inline void
addServiceFlags(FlagSet &flags, Front front, serve::ServiceConfig &service,
                ObsCliOptions &obs)
{
    flags.count("--threads", "N", &service.threads,
                front == Front::Solve ? 1 : 0);
    if (front != Front::Solve) {
        serve::AdmissionLimits &limits = service.limits;
        flags.count("--batch-seed", "S", &service.batchSeed);
        // Below 2^33 MiB the byte budget stays under 2^53, so it
        // crosses the cluster wire exactly as a JSON number.
        flags.add("--cache-mb", "M", "an integer in [0, 2^33)",
                  [&service](const char *v) {
                      uint64_t mb = 0;
                      if (!parseCount(v, &mb) || (mb >> 33) != 0)
                          return false;
                      service.cacheBudgetBytes = mb << 20;
                      return true;
                  });
        flags.count("--max-queue", "N", &limits.maxQueuedJobs);
        flags.count("--max-qubits", "N", &limits.maxQubits);
        flags.count("--max-shots", "N", &limits.maxShotsPerJob);
        flags.number("--max-cost", "UNITS", &limits.maxJobCostUnits);
    }
    if (front != Front::Daemon) {
        flags.text("--trace", "FILE", &obs.tracePath);
        flags.text("--metrics", "FILE", &obs.metricsPath);
    }
    flags.text("--flight", "on|off|N|PATH", &obs.flightSpec);
}

inline void
addBatchFlags(FlagSet &flags, BatchIo &io)
{
    flags.text("--requests", "FILE", &io.requests);
    flags.count("--workload", "N", &io.workload);
    flags.count("--workload-seed", "S", &io.workloadSeed);
    flags.text("--out", "FILE", &io.out);
    flags.text("--telemetry", "FILE", &io.telemetry);
}

/**
 * The batch: the --requests file (one JSON object per line; a defective
 * line fails the whole file with a line-numbered diagnostic, and a
 * request without an id gets "line-N") or a generated --workload.
 * Exactly one of the two must be given.  Returns false after printing
 * to stderr.
 */
inline bool
loadRequests(const BatchIo &io, std::vector<serve::JobRequest> &requests)
{
    if (io.requests.empty() == (io.workload < 0)) {
        std::fprintf(stderr, "exactly one of --requests and --workload "
                             "is required\n");
        return false;
    }
    if (io.requests.empty()) {
        requests = serve::generateWorkload(static_cast<size_t>(io.workload),
                                           io.workloadSeed);
        return true;
    }
    std::ifstream in(io.requests);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", io.requests.c_str());
        return false;
    }
    serve::LineReader reader(in);
    serve::LineReader::Line line;
    while (reader.next(line)) {
        // Request files are operator input: a defective line is an
        // error, not something to skip silently.
        if (!line.ok) {
            std::fprintf(stderr, "%s:%zu: request line %s\n",
                         io.requests.c_str(), line.number, line.defect());
            return false;
        }
        serve::RequestParseResult parsed = serve::parseRequest(line.text);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s:%zu: %s\n", io.requests.c_str(),
                         line.number, parsed.error.c_str());
            return false;
        }
        if (parsed.request.id.empty())
            parsed.request.id = "line-" + std::to_string(line.number);
        requests.push_back(std::move(parsed.request));
    }
    return true;
}

/**
 * Write @p lines, newline-terminated, to @p path ("" = stdout).  The
 * final flush/close is checked too -- a full disk surfaces there.
 * Returns false after naming the path on stderr.
 */
inline bool
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    const char *shown = path.empty() ? "<stdout>" : path.c_str();
    std::FILE *f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing: %s\n", shown,
                     std::strerror(errno));
        return false;
    }
    for (const std::string &line : lines)
        if (std::fprintf(f, "%s\n", line.c_str()) < 0)
            break;
    bool ok = !std::ferror(f);
    ok = (f == stdout ? std::fflush(f) : std::fclose(f)) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "cannot write %s: %s\n", shown,
                     std::strerror(errno));
    return ok;
}

inline void
obsCliStart(const ObsCliOptions &opts)
{
    // Resolving the active ISA here registers the simd_isa_info gauge
    // before any metrics export can run.
    const char *isa = qsim::simdIsaName(qsim::simdActiveIsa());
    if (obs::flight::configureFromSpec(opts.flightSpec))
        obs::flight::installSignalHandlers();
    if (!opts.tracePath.empty()) {
        obs::clearTrace();
        obs::startTracing();
        obs::instantEvent("qsim", "simd_isa", isa);
    }
}

/** Returns false (after printing to stderr) if an export failed. */
inline bool
obsCliFinish(const ObsCliOptions &opts)
{
    bool ok = true;
    if (!opts.tracePath.empty()) {
        obs::stopTracing();
        if (!obs::writeChromeTrace(opts.tracePath)) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         opts.tracePath.c_str());
            ok = false;
        } else {
            std::fprintf(stderr, "trace: %zu events -> %s\n",
                         obs::traceEventCount(), opts.tracePath.c_str());
            if (uint64_t dropped = obs::traceDroppedCount())
                std::fprintf(stderr,
                             "trace: %llu events dropped (buffer full)\n",
                             static_cast<unsigned long long>(dropped));
        }
    }
    if (!opts.metricsPath.empty()) {
        const bool json =
            opts.metricsPath.size() >= 5 &&
            opts.metricsPath.compare(opts.metricsPath.size() - 5, 5,
                                     ".json") == 0;
        const std::string text = json ? obs::Registry::global().jsonText()
                                      : obs::Registry::global().promText();
        if (!obs::writeTextFile(opts.metricsPath, text)) {
            std::fprintf(stderr, "cannot write metrics to '%s'\n",
                         opts.metricsPath.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace rasengan::tools

#endif // RASENGAN_TOOLS_OBS_CLI_H
