/**
 * @file
 * Serve daemon tests: journal durability and replay (including torn and
 * malformed crash debris), compaction, live socket serving with HTTP
 * probes, deadline-unmeetable shedding, kill-and-replay determinism,
 * and drain-under-load with journaled resume.
 *
 * The daemon tests drive a real Daemon over a real unix socket; the
 * "crash" cases synthesize the post-SIGKILL journal state directly (an
 * accepted record with no terminal record, a torn trailing line) rather
 * than killing a process, which keeps them deterministic and fast.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "serve/journal.h"
#include "serve/jsonl.h"

using namespace rasengan;
using namespace rasengan::serve;

namespace {

std::string
uniqueDir(const std::string &tag)
{
    static int counter = 0;
    std::string dir = ::testing::TempDir() + "rasengan_daemon_" + tag +
                      "_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter++);
    ::mkdir(dir.c_str(), 0700);
    return dir;
}

/** Spin until @p pred holds, failing the test after @p timeout. */
bool
waitFor(const std::function<bool()> &pred,
        std::chrono::seconds timeout = std::chrono::seconds(120))
{
    auto end = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < end) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

/** Minimal blocking unix-socket client for the daemon's JSONL wire. */
class UnixClient
{
  public:
    explicit UnixClient(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~UnixClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    bool connected() const { return fd_ >= 0; }

    bool sendLine(const std::string &line)
    {
        std::string framed = line + "\n";
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n =
                ::send(fd_, framed.data() + off, framed.size() - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one newline-terminated line (60 s budget). */
    bool recvLine(std::string &out)
    {
        auto end =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (std::chrono::steady_clock::now() < end) {
            size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                out = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 250) <= 0)
                continue;
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false; // peer closed mid-line
            buffer_.append(chunk, static_cast<size_t>(n));
        }
        return false;
    }

    /** Send an HTTP probe and read the whole response to EOF. */
    std::string httpGet(const std::string &path)
    {
        sendLine("GET " + path + " HTTP/1.0\r");
        std::string response = buffer_;
        char chunk[4096];
        ssize_t n;
        while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0)
            response.append(chunk, static_cast<size_t>(n));
        return response;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

JobRequest
makeRequest(const std::string &id, int iterations = 3)
{
    JobRequest req;
    req.id = id;
    req.benchmark = "F1";
    req.iterations = iterations;
    return req;
}

/** Result lines of a JSONL file keyed by their "id" field. */
std::map<std::string, std::string>
resultsById(const std::string &path)
{
    std::map<std::string, std::string> byId;
    std::ifstream in(path);
    LineReader reader(in);
    LineReader::Line line;
    while (reader.next(line)) {
        if (!line.ok)
            continue;
        JsonParseResult parsed = parseFlatJson(line.text);
        if (parsed.ok)
            byId[parsed.object["id"].str] = line.text;
    }
    return byId;
}

} // namespace

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

TEST(Journal, RoundTripsStatesAndFindsPendingJobs)
{
    const std::string path = uniqueDir("journal") + "/wal.jsonl";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, 1, &error)) << error;

    uint64_t a = journal.appendAccepted(makeRequest("a"), "fp-a");
    uint64_t b = journal.appendAccepted(makeRequest("b"), "fp-b");
    uint64_t c = journal.appendAccepted(makeRequest("c"), "fp-c");
    uint64_t d = journal.appendAccepted(makeRequest("d"), "fp-d");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(d, 4u);
    journal.appendRunning(a, "a");
    journal.appendDone(a, "a", "{\"id\":\"a\",\"ok\":true}");
    journal.appendRunning(b, "b"); // crashed mid-run: no terminal
    journal.appendShed(c, "c", "deadline-unmeetable", "too late");
    journal.close();

    JournalReplay replay = Journal::replay(path);
    ASSERT_TRUE(replay.ok) << replay.error;
    ASSERT_EQ(replay.jobs.size(), 4u);
    EXPECT_EQ(replay.nextSeq, 5u);
    EXPECT_EQ(replay.malformedLines, 0u);

    EXPECT_TRUE(replay.jobs[0].done);
    EXPECT_EQ(replay.jobs[0].resultLine, "{\"id\":\"a\",\"ok\":true}");
    EXPECT_TRUE(replay.jobs[1].started);
    EXPECT_FALSE(replay.jobs[1].done);
    EXPECT_TRUE(replay.jobs[2].shed);
    EXPECT_EQ(replay.jobs[3].fingerprint, "fp-d");

    // Pending = no terminal record: the mid-run crash victim and the
    // never-started job, in accepted order.
    std::vector<const JournalJob *> pending = replay.pending();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0]->id, "b");
    EXPECT_EQ(pending[1]->id, "d");
}

TEST(Journal, ReplayToleratesCrashDebris)
{
    const std::string path = uniqueDir("debris") + "/wal.jsonl";
    Journal journal;
    ASSERT_TRUE(journal.open(path, 1, nullptr));
    journal.appendAccepted(makeRequest("ok"), "fp");
    journal.close();

    // Crash debris: a malformed line, a transition referencing a seq
    // that was never accepted, and a torn final record (no newline).
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("not json at all\n", f);
    std::fputs("{\"type\":\"running\",\"seq\":99,\"id\":\"ghost\"}\n", f);
    std::fputs("{\"type\":\"done\",\"se", f); // torn mid-append
    std::fclose(f);

    JournalReplay replay = Journal::replay(path);
    ASSERT_TRUE(replay.ok) << replay.error; // debris is never fatal
    ASSERT_EQ(replay.jobs.size(), 1u);
    EXPECT_EQ(replay.jobs[0].id, "ok");
    EXPECT_EQ(replay.malformedLines, 2u); // bad JSON + dangling seq
    EXPECT_EQ(replay.truncatedLines, 1u);
    // Even a dangling record advances the counter: a seq gap is
    // harmless, reusing a seq that appears anywhere in the file is not.
    EXPECT_EQ(replay.nextSeq, 100u);
    EXPECT_EQ(replay.pending().size(), 1u);
}

TEST(Journal, MissingFileIsACleanColdStart)
{
    JournalReplay replay =
        Journal::replay(uniqueDir("cold") + "/never_written.jsonl");
    EXPECT_TRUE(replay.ok);
    EXPECT_TRUE(replay.jobs.empty());
    EXPECT_EQ(replay.nextSeq, 1u);
}

TEST(Journal, CompactKeepsOnlyPendingRecords)
{
    const std::string path = uniqueDir("compact") + "/wal.jsonl";
    Journal journal;
    ASSERT_TRUE(journal.open(path, 1, nullptr));
    uint64_t done = journal.appendAccepted(makeRequest("done"), "fp1");
    journal.appendDone(done, "done", "{\"id\":\"done\",\"ok\":true}");
    uint64_t shed = journal.appendAccepted(makeRequest("shed"), "fp2");
    journal.appendShed(shed, "shed", "admission", "queue full");
    journal.appendAccepted(makeRequest("pending"), "fp3");
    journal.close();

    std::string error;
    ASSERT_TRUE(Journal::compact(path, &error)) << error;

    JournalReplay replay = Journal::replay(path);
    ASSERT_TRUE(replay.ok);
    ASSERT_EQ(replay.jobs.size(), 1u);
    EXPECT_EQ(replay.jobs[0].id, "pending");
    EXPECT_EQ(replay.jobs[0].fingerprint, "fp3");
    // Sequence numbering survives compaction: the next incarnation must
    // not reuse seq 1-3.
    EXPECT_EQ(replay.nextSeq, 4u);
}

TEST(Journal, AppendsReportAFullDisk)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not writable here";
    obs::Counter &failures = obs::Registry::global().counter(
        "serve_journal_append_failures_total",
        "Journal records that could not be written or synced");
    const uint64_t before = failures.value();

    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open("/dev/full", 1, &error)) << error;
    // The accepted append fails, and so does its best-effort shed.
    EXPECT_EQ(journal.appendAccepted(makeRequest("a"), "fp-a"), 0u);
    EXPECT_FALSE(journal.appendRunning(1, "a"));
    EXPECT_FALSE(journal.appendDone(1, "a", "{\"id\":\"a\"}"));
    EXPECT_FALSE(journal.appendShed(1, "a", "admission", "queue full"));
    journal.close();
    EXPECT_EQ(failures.value() - before, 5u);
}

// ---------------------------------------------------------------------
// Daemon over a live unix socket
// ---------------------------------------------------------------------

TEST(Daemon, ServesJobsAndProbesOverAUnixSocket)
{
    const std::string dir = uniqueDir("serve");
    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    UnixClient client(dir + "/d.sock");
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.sendLine(writeRequest(makeRequest("sock-1"))));
    std::string line;
    ASSERT_TRUE(client.recvLine(line));
    JsonParseResult parsed = parseFlatJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.object["id"].str, "sock-1");
    EXPECT_TRUE(parsed.object["ok"].flag);

    // A garbage line gets a structured rejection, not a dropped
    // connection.
    ASSERT_TRUE(client.sendLine("{\"benchmark\":42}"));
    ASSERT_TRUE(client.recvLine(line));
    EXPECT_NE(line.find("\"accepted\":false"), std::string::npos);

    // HTTP probes ride the same socket on fresh connections.
    UnixClient health(dir + "/d.sock");
    EXPECT_NE(health.httpGet("/healthz").find("200"), std::string::npos);
    UnixClient ready(dir + "/d.sock");
    EXPECT_NE(ready.httpGet("/readyz").find("200"), std::string::npos);
    UnixClient metrics(dir + "/d.sock");
    std::string prom = metrics.httpGet("/metrics");
    EXPECT_NE(prom.find("serve_daemon_queue_depth"), std::string::npos);

    daemon.stop();
    DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.rejected, 1u);
}

TEST(Daemon, FramesSocketLinesLikeRequestFiles)
{
    const std::string dir = uniqueDir("framing");
    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    UnixClient client(dir + "/d.sock");
    ASSERT_TRUE(client.connected());
    // A CRLF line is the same request as its LF twin...
    ASSERT_TRUE(client.sendLine(writeRequest(makeRequest("crlf")) + "\r"));
    std::string line;
    ASSERT_TRUE(client.recvLine(line));
    JsonParseResult parsed = parseFlatJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.object["id"].str, "crlf");
    EXPECT_TRUE(parsed.object["ok"].flag);
    // ...while a raw CR inside a string is rejected, exactly as
    // rasengan_serve --requests rejects that line.
    const std::string embedded =
        "{\"id\":\"a\rb\",\"benchmark\":\"F1\",\"iterations\":5}";
    ASSERT_FALSE(parseRequest(embedded).ok);
    ASSERT_TRUE(client.sendLine(embedded));
    ASSERT_TRUE(client.recvLine(line));
    parsed = parseFlatJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_FALSE(parsed.object["accepted"].flag);
    EXPECT_EQ(parsed.object["reject_reason"].str,
              parseRequest(embedded).error);

    daemon.stop();
    EXPECT_EQ(daemon.stats().completed, 1u);
    EXPECT_EQ(daemon.stats().rejected, 1u);
}

TEST(Daemon, CountsFailedResultsMirrorAppends)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not writable here";
    const std::string dir = uniqueDir("results");
    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    options.journalPath = dir + "/ok.wal";
    options.resultsPath = "/dev/full";
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    UnixClient client(dir + "/d.sock");
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.sendLine(writeRequest(makeRequest("full"))));
    std::string line;
    ASSERT_TRUE(client.recvLine(line));
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

    daemon.stop();
    DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.resultsAppendFailures, 1u);
}

TEST(Daemon, ShedsDeadlineUnmeetableJobsAtAcceptTime)
{
    const std::string dir = uniqueDir("shed");
    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    // 1e-3 cost units/second: every deadlined job is hopeless.
    options.slo.costUnitsPerSecond = 1e-3;
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    UnixClient client(dir + "/d.sock");
    ASSERT_TRUE(client.connected());
    JobRequest doomed = makeRequest("doomed");
    doomed.deadlineMs = 50.0;
    ASSERT_TRUE(client.sendLine(writeRequest(doomed)));
    std::string line;
    ASSERT_TRUE(client.recvLine(line));
    EXPECT_NE(line.find("\"accepted\":false"), std::string::npos);
    EXPECT_NE(line.find("deadline-unmeetable"), std::string::npos);

    // No deadline, no shed: the predictor only guards deadlines.
    ASSERT_TRUE(client.sendLine(writeRequest(makeRequest("patient"))));
    ASSERT_TRUE(client.recvLine(line));
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);

    daemon.stop();
    EXPECT_EQ(daemon.stats().shed, 1u);
    EXPECT_EQ(daemon.stats().completed, 1u);
}

TEST(Daemon, ReplayAfterCrashReproducesResultsByteForByte)
{
    // Clean reference run: three jobs straight through one daemon.
    const std::string cleanDir = uniqueDir("clean");
    DaemonOptions clean;
    clean.listen = "unix:" + cleanDir + "/d.sock";
    clean.journalPath = cleanDir + "/wal.jsonl";
    clean.resultsPath = cleanDir + "/results.jsonl";
    std::vector<JobRequest> requests = {
        makeRequest("r-1"), makeRequest("r-2"), makeRequest("r-3")};
    {
        Daemon daemon(clean);
        std::string error;
        ASSERT_TRUE(daemon.start(&error)) << error;
        UnixClient client(cleanDir + "/d.sock");
        ASSERT_TRUE(client.connected());
        std::string line;
        for (const JobRequest &req : requests) {
            ASSERT_TRUE(client.sendLine(writeRequest(req)));
            ASSERT_TRUE(client.recvLine(line));
        }
        daemon.stop();
        ASSERT_EQ(daemon.stats().completed, 3u);
    }
    std::map<std::string, std::string> reference =
        resultsById(clean.resultsPath);
    ASSERT_EQ(reference.size(), 3u);

    // Synthesize what a SIGKILL leaves behind: r-1 finished, r-2 died
    // mid-run, r-3 never started, and the final append tore.
    const std::string crashDir = uniqueDir("crash");
    const std::string wal = crashDir + "/wal.jsonl";
    {
        Journal journal;
        ASSERT_TRUE(journal.open(wal, 1, nullptr));
        uint64_t s1 = journal.appendAccepted(requests[0], "fp-1");
        journal.appendRunning(s1, "r-1");
        journal.appendDone(s1, "r-1", reference["r-1"]);
        uint64_t s2 = journal.appendAccepted(requests[1], "fp-2");
        journal.appendRunning(s2, "r-2");
        journal.appendAccepted(requests[2], "fp-3");
        journal.close();
        std::FILE *f = std::fopen(wal.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"type\":\"done\",\"seq\":2,\"id\":\"r-", f);
        std::fclose(f);
    }

    // Restart on the crashed journal: only r-2 and r-3 re-run, with no
    // client attached, and their result bytes match the clean run.
    DaemonOptions recover;
    recover.listen = "unix:" + crashDir + "/d.sock";
    recover.journalPath = wal;
    recover.resultsPath = crashDir + "/results.jsonl";
    Daemon daemon(recover);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    ASSERT_TRUE(waitFor([&] { return daemon.stats().completed >= 2; }));
    daemon.stop();
    EXPECT_EQ(daemon.stats().replayed, 2u);
    EXPECT_EQ(daemon.stats().completed, 2u);

    std::map<std::string, std::string> replayed =
        resultsById(recover.resultsPath);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed["r-2"], reference["r-2"]);
    EXPECT_EQ(replayed["r-3"], reference["r-3"]);

    // The journal now carries terminal records for every job.
    JournalReplay after = Journal::replay(wal);
    ASSERT_TRUE(after.ok);
    EXPECT_TRUE(after.pending().empty());
}

TEST(Daemon, DrainUnderLoadResumesFromTheJournal)
{
    // Clean reference run for the byte comparison.
    const std::string refDir = uniqueDir("drainref");
    std::vector<JobRequest> requests;
    for (int i = 1; i <= 3; ++i)
        requests.push_back(
            makeRequest("d-" + std::to_string(i), /*iterations=*/6));
    DaemonOptions ref;
    ref.listen = "unix:" + refDir + "/d.sock";
    ref.resultsPath = refDir + "/results.jsonl";
    {
        Daemon daemon(ref);
        std::string error;
        ASSERT_TRUE(daemon.start(&error)) << error;
        UnixClient client(refDir + "/d.sock");
        ASSERT_TRUE(client.connected());
        std::string line;
        for (const JobRequest &req : requests) {
            ASSERT_TRUE(client.sendLine(writeRequest(req)));
            ASSERT_TRUE(client.recvLine(line));
        }
        daemon.stop();
    }
    std::map<std::string, std::string> reference =
        resultsById(ref.resultsPath);
    ASSERT_EQ(reference.size(), 3u);

    // Load up a journaled daemon and drain as soon as everything is
    // accepted: whatever is mid-flight gets checkpointed, whatever is
    // queued stays journaled as pending.
    const std::string dir = uniqueDir("drain");
    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    options.journalPath = dir + "/wal.jsonl";
    options.resultsPath = dir + "/results.jsonl";
    options.checkpointDir = dir;
    uint64_t firstCompleted = 0;
    {
        Daemon daemon(options);
        std::string error;
        ASSERT_TRUE(daemon.start(&error)) << error;
        UnixClient client(dir + "/d.sock");
        ASSERT_TRUE(client.connected());
        for (const JobRequest &req : requests)
            ASSERT_TRUE(client.sendLine(writeRequest(req)));
        ASSERT_TRUE(
            waitFor([&] { return daemon.stats().accepted >= 3; }));
        daemon.requestDrain();
        daemon.wait();
        DaemonStats stats = daemon.stats();
        firstCompleted = stats.completed;
        // Every accepted job is accounted for: finished, checkpointed
        // mid-run, or still queued in the journal.
        EXPECT_LE(stats.completed + stats.drainCancelled, 3u);
    }

    // The next incarnation picks up exactly the unfinished jobs.
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const uint64_t remaining = 3 - firstCompleted;
    ASSERT_TRUE(waitFor(
        [&] { return daemon.stats().completed >= remaining; }));
    daemon.stop();
    EXPECT_EQ(daemon.stats().replayed, remaining);

    // Both incarnations appended to the same results file: exactly one
    // line per job, byte-identical to the uninterrupted run.
    std::map<std::string, std::string> combined =
        resultsById(options.resultsPath);
    ASSERT_EQ(combined.size(), 3u);
    for (const JobRequest &req : requests)
        EXPECT_EQ(combined[req.id], reference[req.id]) << req.id;

    JournalReplay after = Journal::replay(options.journalPath);
    ASSERT_TRUE(after.ok);
    EXPECT_TRUE(after.pending().empty());
}

// ---------------------------------------------------------------------
// Admission/SLO policy files
// ---------------------------------------------------------------------

TEST(Policy, PartialFileOverridesOnlyNamedKeys)
{
    DaemonPolicy base;
    base.limits.maxQubits = 20;
    base.limits.maxShotsPerJob = 4096;
    base.slo.costUnitsPerSecond = 2e6;

    PolicyParseResult parsed = parsePolicyText(
        "{\"max_qubits\":12,\"cost_rate\":5e5,\"shed_margin\":0.25}",
        base);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.policy.limits.maxQubits, 12);
    EXPECT_DOUBLE_EQ(parsed.policy.slo.costUnitsPerSecond, 5e5);
    EXPECT_DOUBLE_EQ(parsed.policy.slo.shedMargin, 0.25);
    // Unnamed keys keep the baseline.
    EXPECT_EQ(parsed.policy.limits.maxShotsPerJob, 4096u);
}

TEST(Policy, RejectsUnknownKeysBadTypesAndBadFiles)
{
    DaemonPolicy base;
    EXPECT_FALSE(parsePolicyText("{\"max_qubitz\":12}", base).ok);
    EXPECT_FALSE(parsePolicyText("{\"max_qubits\":\"ten\"}", base).ok);
    EXPECT_FALSE(parsePolicyText("{\"max_shots\":-1}", base).ok);
    EXPECT_FALSE(parsePolicyText("not json", base).ok);

    // A missing file is an error, never a silent no-op.
    PolicyParseResult missing =
        loadPolicyFile("/nonexistent/rasengan-policy.json", base);
    EXPECT_FALSE(missing.ok);

    const std::string dir = uniqueDir("policy");
    {
        std::ofstream out(dir + "/p.json");
        out << "{\"max_qubits\":15}\n";
    }
    PolicyParseResult loaded = loadPolicyFile(dir + "/p.json", base);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.policy.limits.maxQubits, 15);
}

TEST(Daemon, ReloadAppliesPolicyFileAndSurvivesDefectiveOne)
{
    const std::string dir = uniqueDir("reload");
    const std::string policyPath = dir + "/policy.json";
    {
        std::ofstream out(policyPath);
        out << "{\"max_qubits\":12,\"max_shots\":2048}\n";
    }

    DaemonOptions options;
    options.listen = "unix:" + dir + "/d.sock";
    options.policyPath = policyPath;
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // The start-time load applied the file without counting a reload.
    EXPECT_EQ(daemon.policySnapshot().limits.maxQubits, 12);
    EXPECT_EQ(daemon.policySnapshot().limits.maxShotsPerJob, 2048u);
    EXPECT_EQ(daemon.policyReloads(), 0u);

    // Retune: only the named key moves, reload-derived keys persist.
    {
        std::ofstream out(policyPath);
        out << "{\"max_qubits\":14,\"cost_rate\":7e5}\n";
    }
    daemon.requestReload();
    ASSERT_TRUE(waitFor([&] { return daemon.policyReloads() == 1; }));
    DaemonPolicy live = daemon.policySnapshot();
    EXPECT_EQ(live.limits.maxQubits, 14);
    EXPECT_EQ(live.limits.maxShotsPerJob, 2048u); // kept from start
    EXPECT_DOUBLE_EQ(live.slo.costUnitsPerSecond, 7e5);

    // A defective file at reload time must keep the running policy.
    {
        std::ofstream out(policyPath);
        out << "{\"max_qubits\":\"garbage\"\n";
    }
    daemon.requestReload();
    // The reload is processed on the IO thread before it serves the
    // next request, so a job round trip bounds the wait.
    UnixClient client(dir + "/d.sock");
    ASSERT_TRUE(client.connected());
    std::string line;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(
            client.sendLine(writeRequest(makeRequest("p-" +
                                                     std::to_string(i)))));
        ASSERT_TRUE(client.recvLine(line));
    }
    EXPECT_EQ(daemon.policyReloads(), 1u); // failed reload not counted
    live = daemon.policySnapshot();
    EXPECT_EQ(live.limits.maxQubits, 14); // unchanged
    EXPECT_DOUBLE_EQ(live.slo.costUnitsPerSecond, 7e5);

    // The live policy actually gates admission: a job over the shots
    // cap carried through both reloads is rejected.
    JobRequest big = makeRequest("too-big");
    big.shots = 4096;
    big.execution = "sampled";
    ASSERT_TRUE(client.sendLine(writeRequest(big)));
    ASSERT_TRUE(client.recvLine(line));
    EXPECT_NE(line.find("\"accepted\":false"), std::string::npos);

    daemon.stop();

    // A daemon started on the defective file refuses to come up.
    Daemon broken(options);
    EXPECT_FALSE(broken.start(&error));
    EXPECT_FALSE(error.empty());
}
