/**
 * @file
 * Crash-safe write-ahead job journal for the serve daemon.
 *
 * Every accepted request is appended -- with its content fingerprint
 * and the full request line -- before the daemon acknowledges it, and
 * every state transition (running, done, failed, shed) is appended as
 * it happens.  Appends go through RecordLog (common/fileio), written
 * and fdatasync'd per record, so after a SIGKILL the journal is at
 * worst missing (or tearing) its final line.  Replay tolerates exactly that: malformed or truncated trailing
 * records are skipped and counted, never fatal.  An append that fails
 * (a full disk, an I/O error) is reported to the caller, so the daemon
 * never acknowledges a job it could not journal; the next append starts
 * on a fresh line, so a torn record never swallows the one after it.
 *
 * Replay semantics.  A job is *pending* when its accepted record has no
 * terminal record (done or shed) -- including jobs that were mid-run
 * when the process died.  The daemon re-runs pending jobs on restart;
 * because child seeds derive from request content (serve::JobRunner),
 * the re-run produces byte-identical result lines, and the
 * determinism-under-replay CI check diffs them against an uninterrupted
 * run.  Duplicate completions are therefore harmless: last record wins.
 *
 * Record format: one flat JSON object per line (serve/jsonl), with a
 * "type" tag:
 *
 *   {"type":"accepted","seq":N,"id":...,"fingerprint":...,"request":R}
 *   {"type":"running","seq":N,"id":...}
 *   {"type":"done","seq":N,"id":...,"result":R}    (terminal)
 *   {"type":"shed","seq":N,"id":...,"code":...,"reason":...} (terminal)
 *
 * where R is the writeRequest()/writeResult() line embedded as a JSON
 * string -- flat JSON has no nesting, and escaping keeps the parser
 * honest.  `seq` is a per-journal monotonic sequence number; records
 * reference their accepted record by seq, so duplicate client ids
 * cannot cross wires.
 */

#ifndef RASENGAN_SERVE_JOURNAL_H
#define RASENGAN_SERVE_JOURNAL_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "serve/job.h"

namespace rasengan::serve {

/** One replayed job with its terminal state (if any). */
struct JournalJob
{
    uint64_t seq = 0;
    std::string id;
    std::string fingerprint;
    std::string requestLine; ///< writeRequest() bytes as accepted
    bool started = false;    ///< a running record was seen
    bool done = false;       ///< terminal done record seen
    bool shed = false;       ///< terminal shed record seen
    std::string resultLine;  ///< writeResult() bytes when done
};

struct JournalReplay
{
    bool ok = false;
    std::string error; ///< I/O-level failure only (missing file is ok)
    std::vector<JournalJob> jobs; ///< in accepted order
    uint64_t nextSeq = 1;         ///< first unused sequence number
    /// @name Defect counters (never fatal)
    /// @{
    size_t malformedLines = 0; ///< unparsable or semantically bad lines
    size_t truncatedLines = 0; ///< torn final line (partial write)
    size_t oversizedLines = 0; ///< lines beyond the reader's cap
    /// @}

    /** Jobs with no terminal record: what a restarted daemon re-runs. */
    std::vector<const JournalJob *> pending() const;
};

/**
 * Append-only journal writer.  All append methods are thread-safe (the
 * daemon journals acceptance from its IO thread and completion from the
 * worker) and durable: each record is written and fdatasync'd before
 * the call returns.  They return false when the record could not be
 * written or synced, bumping serve_journal_append_failures_total.
 */
class Journal
{
  public:
    Journal() = default;
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open @p path for appending (creating it if absent); @p next_seq
     * seeds the sequence counter (use JournalReplay::nextSeq when
     * reopening an existing journal).  Returns false on I/O failure.
     */
    bool open(const std::string &path, uint64_t next_seq = 1,
              std::string *error = nullptr);

    bool isOpen() const { return log_.isOpen(); }

    /**
     * Journal an accepted request; returns its sequence number, or 0
     * when the record could not be written.  A failed append is
     * followed by a best-effort terminal shed record (code "journal"),
     * so a replay never re-runs a job the caller went on to reject.
     */
    uint64_t appendAccepted(const JobRequest &req,
                            const std::string &fingerprint);

    bool appendRunning(uint64_t seq, const std::string &id);

    /** Terminal: job finished (ok or failed); @p result_line is the
     *  deterministic writeResult() rendering. */
    bool appendDone(uint64_t seq, const std::string &id,
                    const std::string &result_line);

    /** Terminal: job shed/rejected with a structured reason. */
    bool appendShed(uint64_t seq, const std::string &id,
                    const std::string &code, const std::string &reason);

    void close();

    /**
     * Parse @p path and reconstruct job states.  A missing file yields
     * ok=true with no jobs (cold start).  Malformed/truncated/oversized
     * lines are counted and skipped -- crash debris must never brick a
     * restart.
     */
    static JournalReplay replay(const std::string &path);

    /**
     * Rewrite @p path keeping only records of jobs that are still
     * pending (SIGHUP maintenance: a long-lived daemon's journal would
     * otherwise grow without bound).  Atomic (replaceFileAtomically):
     * returns false and leaves the original untouched on any failure.
     * The journal must be closed (or not yet opened) when compacting.
     */
    static bool compact(const std::string &path, std::string *error);

  private:
    bool appendLine(const std::string &line);

    std::mutex mutex_;
    RecordLog log_;
    uint64_t nextSeq_ = 1;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_JOURNAL_H
