#include "serve/journal.h"

#include <fstream>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/jsonl.h"

namespace rasengan::serve {

namespace {

struct JournalCounters
{
    obs::Counter &appends = obs::Registry::global().counter(
        "serve_journal_appends_total", "Records appended to the journal");
    obs::Counter &appendFailures = obs::Registry::global().counter(
        "serve_journal_append_failures_total",
        "Journal records that could not be written or synced");
    obs::Counter &replayMalformed = obs::Registry::global().counter(
        "serve_journal_replay_malformed_total",
        "Malformed records skipped during journal replay");
};

JournalCounters &
journalCounters()
{
    static JournalCounters counters;
    return counters;
}

} // namespace

std::vector<const JournalJob *>
JournalReplay::pending() const
{
    std::vector<const JournalJob *> out;
    for (const JournalJob &job : jobs)
        if (!job.done && !job.shed)
            out.push_back(&job);
    return out;
}

bool
Journal::open(const std::string &path, uint64_t next_seq,
              std::string *error)
{
    panic_if(isOpen(), "Journal::open called twice");
    std::string why;
    if (!log_.open(path, /*sync=*/true, &why)) {
        if (error != nullptr)
            *error = "journal: " + why;
        return false;
    }
    nextSeq_ = next_seq;
    return true;
}

bool
Journal::appendLine(const std::string &line)
{
    // Caller holds mutex_.  One write + fdatasync per record is
    // affordable: journal appends are O(jobs), execution O(seconds).
    panic_if(!isOpen(), "Journal append before open");
    const bool ok = log_.append(line);
    if (ok)
        journalCounters().appends.inc();
    else
        journalCounters().appendFailures.inc();
    return ok;
}

uint64_t
Journal::appendAccepted(const JobRequest &req,
                        const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t seq = nextSeq_++;
    JsonWriter w;
    w.field("type", "accepted")
        .field("seq", seq)
        .field("id", req.id)
        .field("fingerprint", fingerprint)
        .field("request", writeRequest(req));
    if (appendLine(w.str()))
        return seq;
    JsonWriter shed;
    shed.field("type", "shed")
        .field("seq", seq)
        .field("id", req.id)
        .field("code", "journal")
        .field("reason", "journal append failed");
    appendLine(shed.str());
    return 0;
}

bool
Journal::appendRunning(uint64_t seq, const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.field("type", "running").field("seq", seq).field("id", id);
    return appendLine(w.str());
}

bool
Journal::appendDone(uint64_t seq, const std::string &id,
                    const std::string &result_line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.field("type", "done")
        .field("seq", seq)
        .field("id", id)
        .field("result", result_line);
    return appendLine(w.str());
}

bool
Journal::appendShed(uint64_t seq, const std::string &id,
                    const std::string &code, const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.field("type", "shed")
        .field("seq", seq)
        .field("id", id)
        .field("code", code)
        .field("reason", reason);
    return appendLine(w.str());
}

void
Journal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    log_.close();
}

JournalReplay
Journal::replay(const std::string &path)
{
    JournalReplay replay;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        // Cold start: no journal yet is the normal first-run state.
        replay.ok = true;
        return replay;
    }

    // seq -> index into replay.jobs; ids may repeat across requests,
    // sequence numbers never do.
    std::unordered_map<uint64_t, size_t> bySeq;
    auto debris = [&replay](size_t &counter) {
        ++counter;
        journalCounters().replayMalformed.inc();
    };
    LineReader reader(in);
    LineReader::Line line;
    while (reader.next(line)) {
        if (!line.ok) {
            if (line.oversized)
                debris(replay.oversizedLines);
            else if (line.hasNul)
                debris(replay.malformedLines); // zero-filled crash debris
            else
                debris(replay.truncatedLines);
            continue;
        }
        JsonParseResult parsed = parseFlatJson(line.text);
        FieldReader f(parsed.object);
        std::string type;
        uint64_t seq = 0;
        f.required("type", &type).required("seq", &seq);
        if (!parsed.ok || !f.ok() || seq < 1) {
            debris(replay.malformedLines);
            continue;
        }
        if (seq >= replay.nextSeq)
            replay.nextSeq = seq + 1;

        if (type == "accepted") {
            JournalJob job;
            job.seq = seq;
            if (!f.required("id", &job.id)
                     .required("fingerprint", &job.fingerprint)
                     .required("request", &job.requestLine)
                     .ok()) {
                debris(replay.malformedLines);
                continue;
            }
            bySeq[seq] = replay.jobs.size();
            replay.jobs.push_back(std::move(job));
            continue;
        }

        // Transition records must reference a known accepted record; a
        // dangling one means its accepted line was itself corrupt.
        auto it = bySeq.find(seq);
        std::string result;
        if (it == bySeq.end() ||
            (type == "done" && !f.required("result", &result).ok())) {
            debris(replay.malformedLines);
            continue;
        }
        JournalJob &job = replay.jobs[it->second];
        if (type == "running") {
            job.started = true;
        } else if (type == "done") {
            job.done = true;
            job.shed = false;
            job.resultLine = std::move(result);
        } else if (type == "shed") {
            job.shed = true;
        } else {
            debris(replay.malformedLines);
        }
    }
    replay.ok = true;
    return replay;
}

bool
Journal::compact(const std::string &path, std::string *error)
{
    JournalReplay replay = Journal::replay(path);
    if (!replay.ok) {
        if (error != nullptr)
            *error = replay.error;
        return false;
    }

    std::string contents;
    for (const JournalJob *job : replay.pending()) {
        JsonWriter w;
        w.field("type", "accepted")
            .field("seq", job->seq)
            .field("id", job->id)
            .field("fingerprint", job->fingerprint)
            .field("request", job->requestLine);
        contents += w.str();
        contents += '\n';
    }
    return replaceFileAtomically(path, contents, error);
}

} // namespace rasengan::serve
