/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened and closed from the benchmark's own code around
 * each call it makes into a library layer; nothing inside the library
 * is instrumented.  All spans of one run live in memory until the run
 * ends and are then written as one Chrome trace-event JSON file, which
 * Perfetto (ui.perfetto.dev) loads directly.  Single-threaded by design:
 * the traced work runs on the calling thread.
 */

#ifndef E2EBENCH_SPANS_H
#define E2EBENCH_SPANS_H

#include <map>
#include <string>
#include <vector>

namespace e2e {

class SpanRecorder
{
  public:
    struct Record
    {
        std::string name;
        std::string arg; ///< job id or other correlation label
        int parent = -1; ///< index of the enclosing span, -1 at the root
        double startUs = 0.0;
        double endUs = -1.0; ///< < startUs while still open
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const std::string &name,
              const std::string &arg = "")
            : rec_(rec), index_(rec.open(name, arg))
        {
        }
        ~Scope() { rec_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_;
    };

    SpanRecorder();

    int open(const std::string &name, const std::string &arg = "");
    /** Close span @p index and any span opened after it. */
    void close(int index);

    const std::vector<Record> &records() const { return spans_; }

    static double durationMs(const Record &r)
    {
        return (r.endUs - r.startUs) * 1e-3;
    }

    /** Durations (ms) of every closed span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /**
     * Self time (ms) of span @p index: its duration minus the part of
     * its interval covered by its direct children.
     */
    double selfMs(int index) const;

    struct NameSummary
    {
        size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /** Per-name count, total and self time. */
    std::map<std::string, NameSummary> summarize() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Record> spans_;
    std::vector<int> stack_;
    std::vector<std::vector<int>> children_;
    double epochSec_;
};

} // namespace e2e

#endif // E2EBENCH_SPANS_H
