/**
 * @file
 * Unit tests for src/common: BitVec, Rng, stats, timers, log formatting,
 * the checked atomic file replace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "common/bitvec.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "common/stats.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/jsonl.h"

namespace rasengan {
namespace {

TEST(BitVec, DefaultIsZero)
{
    BitVec v;
    for (int i = 0; i < kMaxBits; ++i)
        EXPECT_FALSE(v.get(i));
    EXPECT_EQ(v.popcount(), 0);
}

TEST(BitVec, SetClearFlipAssign)
{
    BitVec v;
    v.set(3);
    EXPECT_TRUE(v.get(3));
    v.flip(3);
    EXPECT_FALSE(v.get(3));
    v.flip(100);
    EXPECT_TRUE(v.get(100));
    v.clear(100);
    EXPECT_FALSE(v.get(100));
    v.assign(64, true);
    EXPECT_TRUE(v.get(64));
    v.assign(64, false);
    EXPECT_FALSE(v.get(64));
}

TEST(BitVec, HighWordIndependentOfLowWord)
{
    BitVec v;
    v.set(0);
    v.set(127);
    EXPECT_EQ(v.popcount(), 2);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(127));
    EXPECT_FALSE(v.get(63));
    EXPECT_FALSE(v.get(64));
}

TEST(BitVec, IndexRoundTrip)
{
    for (uint64_t idx : {0ull, 1ull, 5ull, 0xDEADBEEFull}) {
        EXPECT_EQ(BitVec::fromIndex(idx).toIndex(), idx);
    }
}

TEST(BitVec, StringRoundTrip)
{
    BitVec v = BitVec::fromString("01101");
    EXPECT_FALSE(v.get(0));
    EXPECT_TRUE(v.get(1));
    EXPECT_TRUE(v.get(2));
    EXPECT_FALSE(v.get(3));
    EXPECT_TRUE(v.get(4));
    EXPECT_EQ(v.toString(5), "01101");
    EXPECT_EQ(v.toVector(5), (std::vector<int>{0, 1, 1, 0, 1}));
}

TEST(BitVec, FromVectorMatchesFromString)
{
    EXPECT_EQ(BitVec::fromVector({1, 0, 1}), BitVec::fromString("101"));
}

TEST(BitVec, XorAndOr)
{
    BitVec a = BitVec::fromString("1100");
    BitVec b = BitVec::fromString("1010");
    EXPECT_EQ((a ^ b).toString(4), "0110");
    EXPECT_EQ((a & b).toString(4), "1000");
    EXPECT_EQ((a | b).toString(4), "1110");
}

TEST(BitVec, OrderingIsTotal)
{
    BitVec a = BitVec::fromIndex(1);
    BitVec b = BitVec::fromIndex(2);
    BitVec c;
    c.set(64); // high word
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_LT(a, c);
    EXPECT_EQ(a, BitVec::fromIndex(1));
}

TEST(BitVec, HashSpreads)
{
    std::set<size_t> hashes;
    for (uint64_t i = 0; i < 256; ++i)
        hashes.insert(BitVec::fromIndex(i).hash());
    // A few collisions would be tolerable; identical hashes are a bug.
    EXPECT_GT(hashes.size(), 250u);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntWithinBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(7);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(3);
    std::vector<double> weights{0.0, 10.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.weightedIndex(weights), 1u);
}

TEST(Rng, WeightedIndexEmpiricalDistribution)
{
    Rng rng(5);
    std::vector<double> weights{1.0, 3.0};
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ones += rng.weightedIndex(weights) == 1 ? 1 : 0;
    double frac = static_cast<double>(ones) / trials;
    EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng child = a.fork();
    // The child stream should differ from the parent's continuation.
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniformInt(0, 1 << 30) != child.uniformInt(0, 1 << 30);
    EXPECT_TRUE(any_diff);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Stats, ExactRankPercentileIsAlwaysASample)
{
    // Ten latencies; nearest-rank p99 must be the max, not an
    // interpolated value between the two largest samples.
    std::vector<double> xs;
    for (int i = 1; i <= 10; ++i)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 99), 10.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 100), 10.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 0), 1.0);
    // ceil(0.50 * 10) = rank 5.
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 50), 5.0);
    // ceil(0.51 * 10) = rank 6.
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 51), 6.0);
    // Input order must not matter.
    std::vector<double> shuffled{7, 2, 9, 1, 10, 4, 3, 8, 6, 5};
    EXPECT_DOUBLE_EQ(exactRankPercentile(shuffled, 99), 10.0);
    // Single sample: every percentile is that sample.
    std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(exactRankPercentile(one, 1), 42.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(one, 99), 42.0);
}

TEST(Stats, MinMax)
{
    std::vector<double> xs{3.0, -1.0, 2.0};
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 3.0);
}

TEST(Stats, RunningStatMatchesBatch)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStat rs;
    for (double x : xs)
        rs.push(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Timer, AccumulatesAcrossStartStop)
{
    Stopwatch w;
    w.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    w.stop();
    double first = w.seconds();
    EXPECT_GT(first, 0.0);
    w.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    w.stop();
    EXPECT_GT(w.seconds(), first);
    w.reset();
    EXPECT_DOUBLE_EQ(w.seconds(), 0.0);
}

TEST(Timer, ScopedTimerStops)
{
    Stopwatch w;
    {
        ScopedTimer guard(w);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    double t = w.seconds();
    EXPECT_GT(t, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_DOUBLE_EQ(w.seconds(), t);
}

TEST(FileIo, ReplaceFileAtomicallyOverwritesOrKeepsTheOriginal)
{
    const std::string dir = ::testing::TempDir() + "rasengan_fileio_" +
                            std::to_string(::getpid());
    ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
    const std::string path = dir + "/state.txt";
    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };

    std::string error;
    ASSERT_TRUE(replaceFileAtomically(path, "one\n", &error)) << error;
    ASSERT_TRUE(replaceFileAtomically(path, "two\n", &error)) << error;
    EXPECT_EQ(slurp(path), "two\n");

    // The rename step fails when the target is a non-empty directory:
    // the call reports it, removes its temp file and leaves the
    // target alone.
    const std::string busy = dir + "/busy";
    ASSERT_EQ(::mkdir(busy.c_str(), 0700), 0);
    ASSERT_TRUE(replaceFileAtomically(busy + "/inner", "x", &error));
    EXPECT_FALSE(replaceFileAtomically(busy, "lost", &error));
    EXPECT_NE(error.find("rename"), std::string::npos) << error;
    EXPECT_EQ(::access((busy + ".tmp").c_str(), F_OK), -1);
    EXPECT_EQ(slurp(busy + "/inner"), "x");

    // A temp file that cannot be created fails before touching anything.
    EXPECT_FALSE(
        replaceFileAtomically(dir + "/no/such/dir/f", "x", &error));
    EXPECT_NE(error.find("open"), std::string::npos) << error;
    EXPECT_EQ(slurp(path), "two\n");

    std::remove((busy + "/inner").c_str());
    ::rmdir(busy.c_str());
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(FileIo, RecordLogReportsAFullDiskAndStartsAFreshLineAfterATear)
{
    if (::access("/dev/full", W_OK) == 0) {
        RecordLog full;
        std::string error;
        ASSERT_TRUE(full.open("/dev/full", /*sync=*/false, &error)) << error;
        EXPECT_FALSE(full.append("{\"id\":\"a\"}"));
    }

    const std::string path = ::testing::TempDir() + "rasengan_recordlog_" +
                             std::to_string(::getpid());
    std::remove(path.c_str());
    {
        RecordLog log;
        std::string error;
        ASSERT_TRUE(log.open(path, /*sync=*/true, &error)) << error;
        EXPECT_TRUE(log.append("one"));
    }
    {
        // A torn record from a crashed writer, then a new incarnation.
        std::ofstream(path, std::ios::app) << "tor";
        RecordLog log;
        ASSERT_TRUE(log.open(path, /*sync=*/true, nullptr));
        EXPECT_TRUE(log.append("two"));
    }
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
              "one\ntortwo\n");
    std::remove(path.c_str());
    EXPECT_FALSE(RecordLog().open("/no/such/dir/log", true, nullptr));
}

TEST(JsonEscape, EveryAsciiByteRoundTripsThroughTheParser)
{
    std::string all;
    for (int c = 0; c < 0x80; ++c) {
        const std::string one(1, static_cast<char>(c));
        all += one;
        const std::string line = "{\"k\":\"" + obs::jsonEscape(one) + "\"}";
        for (unsigned char b : obs::jsonEscape(one))
            EXPECT_GE(b, 0x20) << "raw control byte for " << c;
        serve::JsonParseResult parsed = serve::parseFlatJson(line);
        ASSERT_TRUE(parsed.ok) << c << ": " << parsed.error;
        EXPECT_EQ(parsed.object.at("k").str, one) << c;
    }
    serve::JsonParseResult parsed =
        serve::parseFlatJson("{\"k\":\"" + obs::jsonEscape(all) + "\"}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.object.at("k").str, all);
}

TEST(Socket, ListenSpecsAreStrict)
{
    const std::string dir = ::testing::TempDir() + "rasengan_sock_" +
                            std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0700);
    std::string error;

    // Port grammar: decimal 0-65535, nothing else.
    for (const char *bad : {"tcp:70000", "tcp:", "tcp:7x", "tcp:-1",
                            "tcp:007", "tcp:127.0.0.1:", "tcp::80",
                            "udp:80", "unix:"}) {
        Listener l;
        EXPECT_FALSE(listenOn(bad, &l, &error)) << bad;
        EXPECT_NE(error.find(bad), std::string::npos) << error;
        EXPECT_EQ(l.fd, -1) << bad;
    }
    Listener ephemeral;
    ASSERT_TRUE(listenOn("tcp:0", &ephemeral, &error)) << error;
    EXPECT_GT(ephemeral.port, 0);
    EXPECT_TRUE(ephemeral.unixPath.empty());
    const int client =
        connectTcp("127.0.0.1:" + std::to_string(ephemeral.port), &error);
    EXPECT_GE(client, 0) << error;
    ::close(client);
    ::close(ephemeral.fd);
    EXPECT_LT(connectTcp("127.0.0.1:70000", &error), 0);
    EXPECT_LT(connectTcp("no-port", &error), 0);

    // 65535 passes the grammar (a bind can still find it taken).
    Listener top;
    if (listenOn("tcp:65535", &top, &error))
        ::close(top.fd);
    else
        EXPECT_EQ(error.find("0-65535"), std::string::npos) << error;

    // An unresolvable or non-local host is an error, never loopback.
    Listener remote;
    EXPECT_FALSE(listenOn("tcp:192.0.2.1:7744", &remote, &error));

    Listener longPath;
    EXPECT_FALSE(
        listenOn("unix:" + dir + "/" + std::string(200, 's'), &longPath,
                 &error));

    // A regular file at the socket path is never deleted.
    const std::string file = dir + "/precious.txt";
    std::ofstream(file) << "keep me\n";
    Listener overFile;
    EXPECT_FALSE(listenOn("unix:" + file, &overFile, &error));
    EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
    std::ifstream in(file);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
              "keep me\n");

    // A stale socket (its daemon gone) is replaced.
    const std::string sock = dir + "/d.sock";
    Listener first;
    ASSERT_TRUE(listenOn("unix:" + sock, &first, &error)) << error;
    EXPECT_EQ(first.unixPath, sock);
    ::close(first.fd);
    Listener second;
    EXPECT_TRUE(listenOn("unix:" + sock, &second, &error)) << error;
    ::close(second.fd);

    std::remove(sock.c_str());
    std::remove(file.c_str());
    ::rmdir(dir.c_str());
}

TEST(Logging, FormatSubstitution)
{
    EXPECT_EQ(detail::format("a {} b {}", 1, "x"), "a 1 b x");
    EXPECT_EQ(detail::format("no placeholders"), "no placeholders");
    EXPECT_EQ(detail::format("extra {} {}", 7), "extra 7 {}");
}

TEST(Logging, LevelRoundTrip)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(original);
}

TEST(Logging, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Inform), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("WARN", LogLevel::Inform), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("inform", LogLevel::Silent), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("info", LogLevel::Silent), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("Debug", LogLevel::Inform), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("0", LogLevel::Inform), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("3", LogLevel::Inform), LogLevel::Debug);
    // Unrecognised values keep the fallback.
    EXPECT_EQ(parseLogLevel("", LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("loud", LogLevel::Inform), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("7", LogLevel::Warn), LogLevel::Warn);
}

TEST(Logging, LogTailRendering)
{
    EXPECT_TRUE(LogTail().empty());
    EXPECT_EQ(LogTail().render(), "");
    EXPECT_EQ(LogTail().kv("attempt", 3).render(), " attempt=3");
    EXPECT_EQ(LogTail().kv("a", 1).kv("b", 2.5).render(), " a=1 b=2.5");
    // Values with spaces are quoted so the tail splits on whitespace.
    EXPECT_EQ(LogTail().kvText("reason", "queue full").render(),
              " reason=\"queue full\"");
    EXPECT_EQ(LogTail().kv("level", "Full").kvText("reason", "x").render(),
              " level=Full reason=x");
}

} // namespace
} // namespace rasengan
