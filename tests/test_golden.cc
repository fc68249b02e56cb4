/**
 * @file
 * Golden result digests: pins result bytes across commits.
 *
 * Fixed request lines -- every (benchmark, solver configuration) pair
 * below at seed 1 -- run through serve::JobRunner, and each job's
 * result_hash (the digest of the deterministic payload of its result
 * line) is compared with the checked-in table in
 * tests/golden/result_digests.txt.  Thread-count, ISA and worker-count
 * invariance are tested elsewhere; this table catches the change those
 * tests cannot: a commit that alters what a solve computes.
 *
 * A deliberate result change re-blesses the table by pasting the
 * "actual table" this test prints on a mismatch over the file, with the
 * reason in the commit message.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/artifact_cache.h"
#include "serve/job.h"
#include "serve/runner.h"

using namespace rasengan;
using namespace rasengan::serve;

namespace {

const char *const kTablePath = RASENGAN_GOLDEN_DIR "/result_digests.txt";

const char *const kBenchmarks[] = {"F1", "K1", "J1", "S1", "G1"};

/** Solver configurations: name -> request keys after the benchmark.
 *  Iteration counts are small so the table stays cheap in tier-1. */
const std::pair<const char *, const char *> kConfigs[] = {
    {"rasengan-exact",
     R"("algorithm":"rasengan","execution":"exact","iterations":30)"},
    {"rasengan-sampled",
     R"("algorithm":"rasengan","execution":"sampled","shots":256,)"
     R"("iterations":30)"},
    {"hea", R"("algorithm":"hea","shots":256,"iterations":30)"},
    {"pqaoa", R"("algorithm":"pqaoa","shots":256,"iterations":30)"},
    {"chocoq", R"("algorithm":"chocoq","shots":256,"iterations":30)"},
};

std::string
rowKey(const std::string &benchmark, const std::string &config)
{
    return benchmark + " " + config;
}

/** Rows of the checked-in table: "benchmark config" -> result_hash. */
std::map<std::string, std::string>
loadTable()
{
    std::map<std::string, std::string> table;
    std::ifstream in(kTablePath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string benchmark, config, hash;
        if (fields >> benchmark >> config >> hash)
            table[rowKey(benchmark, config)] = hash;
    }
    return table;
}

} // namespace

TEST(Golden, ResultDigestsMatchCheckedInTable)
{
    const std::map<std::string, std::string> expected = loadTable();
    const size_t rows = std::size(kBenchmarks) * std::size(kConfigs);

    JobRunner runner(RunnerOptions{}, std::make_shared<ArtifactCache>(0));
    std::ostringstream actual;
    actual << "# benchmark config result_hash (seed 1; see "
              "tests/test_golden.cc)\n";
    size_t mismatches = 0;
    for (const char *benchmark : kBenchmarks) {
        for (const auto &[config, keys] : kConfigs) {
            const std::string line = std::string("{\"id\":\"golden\","
                                                 "\"benchmark\":\"") +
                                     benchmark + "\",\"seed\":1," + keys +
                                     "}";
            RequestParseResult parsed = parseRequest(line);
            ASSERT_TRUE(parsed.ok) << parsed.error << ": " << line;
            PrepareOutcome prepared = runner.prepare(parsed.request);
            ASSERT_TRUE(prepared.ok) << prepared.error << ": " << line;
            JobResult result = runner.run(prepared.job);
            EXPECT_TRUE(result.ok) << result.error << ": " << line;

            const std::string key = rowKey(benchmark, config);
            actual << key << " " << result.resultHash << "\n";
            auto it = expected.find(key);
            if (it == expected.end() || it->second != result.resultHash) {
                ++mismatches;
                ADD_FAILURE() << key << ": result_hash "
                              << result.resultHash << ", table has "
                              << (it == expected.end() ? "no row"
                                                       : it->second)
                              << "\n  request: " << line
                              << "\n  result:  " << writeResult(result);
            }
        }
    }
    EXPECT_EQ(expected.size(), rows)
        << "the table has rows this test no longer runs";
    if (mismatches > 0 || expected.size() != rows)
        ADD_FAILURE() << "actual table (paste over " << kTablePath
                      << " only for a deliberate, explained result "
                         "change):\n"
                      << actual.str();
}
