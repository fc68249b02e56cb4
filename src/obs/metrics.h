/**
 * @file
 * Typed process-wide metrics registry.
 *
 * Three instrument kinds, all safe to update concurrently from pool
 * threads with relaxed atomics (updates commute, so final values are
 * deterministic whenever the instrumented work is):
 *
 *  - Counter: monotonically increasing uint64 (events, cache hits).
 *  - Gauge: last-write-wins double (bytes in use, queue depth).
 *  - Histogram: fixed log-2 buckets.  Bucket k has upper bound
 *    2^(k + kMinExp) for k in [0, kBuckets-2]; the last bucket is
 *    +inf.  Fixed edges keep exports byte-comparable across runs and
 *    make bucket membership a cheap exponent extraction.
 *
 * Instruments are identified by (name, sorted labels) and live for the
 * process lifetime: registration hands out stable references that are
 * safe to cache in `static` locals at call sites.  resetAllForTest()
 * zeroes values but never invalidates references.
 *
 * Exports: Prometheus text exposition (promText) with full label/help
 * escaping, and a flat JSON object (jsonText) for machine diffing.
 * Both render instruments in sorted (name, labels) order so equal
 * workloads produce byte-identical files.
 */

#ifndef RASENGAN_OBS_METRICS_H
#define RASENGAN_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rasengan::obs {

/** Sorted key=value pairs attached to an instrument. */
using Labels = std::map<std::string, std::string>;

class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

class Gauge
{
  public:
    void
    set(double v)
    {
        bits_.store(encode(v), std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        uint64_t seen = bits_.load(std::memory_order_relaxed);
        while (!bits_.compare_exchange_weak(seen, encode(decode(seen) + delta),
                                            std::memory_order_relaxed)) {
        }
    }

    double value() const { return decode(bits_.load(std::memory_order_relaxed)); }

    void reset() { bits_.store(0, std::memory_order_relaxed); }

  private:
    static uint64_t
    encode(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        return bits;
    }

    static double
    decode(uint64_t bits)
    {
        double v;
        __builtin_memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::atomic<uint64_t> bits_{0};
};

class Histogram
{
  public:
    /** Smallest finite bucket upper bound is 2^kMinExp. */
    static constexpr int kMinExp = -20;
    /** Finite buckets + one +inf bucket. */
    static constexpr int kBuckets = 64;

    /** Bucket index for @p v (values <= smallest bound share bucket 0). */
    static int bucketFor(double v);

    /** Upper bound of finite bucket @p k (2^(k + kMinExp)). */
    static double
    bucketUpperBound(int k)
    {
        return std::exp2(static_cast<double>(k + kMinExp));
    }

    void observe(double v);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.value(); }

    uint64_t
    bucketCount(int k) const
    {
        return buckets_[static_cast<size_t>(k)].load(
            std::memory_order_relaxed);
    }

    /**
     * Smallest bucket upper bound at or below which at least
     * @p q (in [0,1]) of the observations fall; an upper-bound quantile
     * estimate quantized to the log-2 edges.  0 when empty.
     */
    double quantileUpperBound(double q) const;

    /**
     * Overwrite this histogram with an imported snapshot (the cluster
     * merge path): per-bucket counts, total sum, total count.  Imported
     * snapshots use last-write-wins semantics like imported gauges --
     * each batch_done carries the worker's full registry state.
     */
    void importSnapshot(const std::array<uint64_t, kBuckets> &counts,
                        double sum, uint64_t count);

    void reset();

  private:
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    Gauge sum_;
};

class Registry
{
  public:
    /** The process-wide registry every instrumented subsystem uses. */
    static Registry &global();

    /** Private registries are for tests only. */
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name, const std::string &help = "",
                     Labels labels = {});
    Gauge &gauge(const std::string &name, const std::string &help = "",
                 Labels labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help = "", Labels labels = {});

    /** Prometheus text exposition (sorted, escaped, deterministic). */
    std::string promText() const;

    /** Flat JSON: {"name{label=\"v\"}": value, ...}.  Histograms emit
     *  canonical `name_bucket{...,le="..."}` cumulative entries (edges
     *  separating observations plus +Inf, as in promText), _count and
     *  _sum, and derived _p50/_p95/_p99 quantile upper bounds
     *  (non-finite values render as quoted strings).  Sorted keys. */
    std::string jsonText() const;

    /** Zero every instrument; references stay valid. */
    void resetAllForTest();

    /**
     * Import a snapshot of another process's registry -- the merged-
     * export path for the cluster coordinator.  @p values holds parsed
     * jsonText() entries: rendered series key ("name" or
     * "name{k=\"v\"}") -> value.  Each series is re-registered here as
     * a GAUGE named @p prefix + name with @p extra merged over its
     * labels (extra wins on collision, so the coordinator's
     * worker="N" tag cannot be spoofed by the snapshot).  Counters
     * arrive as gauges deliberately: an imported value is a snapshot,
     * not a live monotone stream.
     *
     * Histogram series are reconstructed histogram-aware: a family of
     * `base_bucket{le="..."}` entries (plus its `base_count`/`base_sum`)
     * becomes a real imported HISTOGRAM named prefix + base -- the
     * cumulative counts are de-accumulated back into per-bucket counts
     * on the fixed log-2 edges, so the merged export re-derives correct
     * quantiles instead of carrying opaque per-edge gauges.  Unknown
     * `le` edges and non-monotone cumulative counts are dropped into
     * the malformed tally.
     *
     * Returns the number of series imported.  Malformed keys and
     * series whose prefixed name is already registered locally as a
     * different kind are dropped with a structured warning and counted
     * in cluster_import_skipped_total (never a crash: the snapshot is
     * another process's data).
     */
    size_t importFlat(const std::map<std::string, double> &values,
                      const std::string &prefix, const Labels &extra,
                      const std::string &help = "");

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Instrument
    {
        Kind kind;
        std::string name;
        std::string help;
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    using InstrumentKey = std::pair<std::string, std::string>;

    Instrument &findOrCreate(Kind kind, const std::string &name,
                             const std::string &help, Labels labels);

    /**
     * Gauge lookup that refuses kind collisions instead of panicking:
     * returns nullptr when (name, labels) is already registered as a
     * different kind.  Used by importFlat, whose series names come from
     * another process and must not be able to take this one down.
     */
    Gauge *tryGauge(const std::string &name, const std::string &help,
                    Labels labels);

    /** Histogram counterpart of tryGauge (importFlat's histogram path). */
    Histogram *tryHistogram(const std::string &name,
                            const std::string &help, Labels labels);

    mutable std::mutex mutex_;
    /** Keyed by (name, rendered labels); map keeps export order sorted. */
    std::map<InstrumentKey, std::unique_ptr<Instrument>> instruments_;
};

/**
 * JSON string escaping (quotes not included): the one escaper for every
 * JSON writer -- serve's result and journal lines, the Chrome trace and
 * the metrics JSON.  Quote, backslash and every byte below 0x20 are
 * escaped (RFC 8259), so any input renders as a valid JSON string.
 */
std::string jsonEscape(const std::string &raw);

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string promEscapeLabelValue(const std::string &raw);

/**
 * Parse a rendered series key -- `name` or `name{k="v",k2="v2"}`, the
 * format promText/jsonText emit -- back into name + labels (the inverse
 * of the registry's own rendering, escapes included).  Returns false on
 * malformed keys, leaving the outputs untouched.
 */
bool parseInstrumentKey(const std::string &key, std::string *name,
                        Labels *labels);

/** Escape a Prometheus HELP text (backslash, newline). */
std::string promEscapeHelp(const std::string &raw);

/** Write @p text to @p path; returns false (and warns) on I/O failure. */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace rasengan::obs

#endif // RASENGAN_OBS_METRICS_H
