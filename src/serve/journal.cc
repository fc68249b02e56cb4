#include "serve/journal.h"

#include <fstream>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "common/fileio.h"
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

/** Required string field or nullptr. */
const std::string *
strField(const JsonObject &obj, const char *key)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::String)
        return nullptr;
    return &it->second.str;
}

bool
seqField(const JsonObject &obj, uint64_t *out)
{
    auto it = obj.find("seq");
    if (it == obj.end() || it->second.kind != JsonValue::Kind::Number)
        return false;
    double v = it->second.num;
    if (v < 1.0 || v != static_cast<double>(static_cast<uint64_t>(v)))
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
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

Journal::~Journal() { close(); }

bool
Journal::open(const std::string &path, uint64_t next_seq,
              std::string *error)
{
    panic_if(fd_ >= 0, "Journal::open called twice");
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        if (error != nullptr)
            *error = "cannot open journal " + path + " for append";
        return false;
    }
    path_ = path;
    nextSeq_ = next_seq;
    return true;
}

bool
Journal::appendLine(const std::string &line)
{
    // Caller holds mutex_.  write() pushes the record into the kernel;
    // fdatasync makes it survive power loss, not just a SIGKILL.  One
    // syscall pair per record is affordable: journal appends are
    // O(jobs), job execution is O(seconds).
    panic_if(fd_ < 0, "Journal append before open");
    std::string record = torn_ ? "\n" + line : line;
    record += '\n';
    const bool ok = writeAll(fd_, record.data(), record.size()) &&
                    ::fdatasync(fd_) == 0;
    torn_ = !ok;
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
Journal::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0)
        ::fdatasync(fd_);
}

void
Journal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::fdatasync(fd_);
        ::close(fd_);
        fd_ = -1;
        torn_ = false;
    }
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
    LineReader reader(in);
    LineReader::Line line;
    while (reader.next(line)) {
        if (!line.ok) {
            if (line.oversized)
                ++replay.oversizedLines;
            else if (line.hasNul)
                ++replay.malformedLines; // zero-filled crash debris
            else
                ++replay.truncatedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        JsonParseResult parsed = parseFlatJson(line.text);
        if (!parsed.ok) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        const JsonObject &obj = parsed.object;
        const std::string *type = strField(obj, "type");
        uint64_t seq = 0;
        if (type == nullptr || !seqField(obj, &seq)) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        if (seq >= replay.nextSeq)
            replay.nextSeq = seq + 1;

        if (*type == "accepted") {
            const std::string *id = strField(obj, "id");
            const std::string *fp = strField(obj, "fingerprint");
            const std::string *req = strField(obj, "request");
            if (id == nullptr || fp == nullptr || req == nullptr) {
                ++replay.malformedLines;
                journalCounters().replayMalformed.inc();
                continue;
            }
            JournalJob job;
            job.seq = seq;
            job.id = *id;
            job.fingerprint = *fp;
            job.requestLine = *req;
            bySeq[seq] = replay.jobs.size();
            replay.jobs.push_back(std::move(job));
            continue;
        }

        // Transition records must reference a known accepted record; a
        // dangling one means its accepted line was itself corrupt.
        auto it = bySeq.find(seq);
        if (it == bySeq.end()) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        JournalJob &job = replay.jobs[it->second];
        if (*type == "running") {
            job.started = true;
        } else if (*type == "done") {
            const std::string *result = strField(obj, "result");
            if (result == nullptr) {
                ++replay.malformedLines;
                journalCounters().replayMalformed.inc();
                continue;
            }
            job.done = true;
            job.shed = false;
            job.resultLine = *result;
        } else if (*type == "shed") {
            job.shed = true;
        } else {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
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
