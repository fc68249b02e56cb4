#include "serve/policy.h"

#include <fstream>

#include "serve/jsonl.h"

namespace rasengan::serve {

namespace {

PolicyParseResult
fail(const std::string &why)
{
    PolicyParseResult r;
    r.error = why;
    return r;
}

} // namespace

PolicyParseResult
parsePolicyText(const std::string &line, const DaemonPolicy &base)
{
    JsonParseResult parsed = parseFlatJson(line);
    if (!parsed.ok)
        return fail("policy parse error at byte " +
                    std::to_string(parsed.errorOffset) + ": " +
                    parsed.error);

    // Unknown keys are an error, like parseRequest: a typo that
    // silently kept the old limit would defeat the reload.
    PolicyParseResult out;
    out.policy = base;
    AdmissionLimits &limits = out.policy.limits;
    SloPolicy &slo = out.policy.slo;
    FieldReader f(parsed.object);
    f.optional("max_queue", &limits.maxQueuedJobs)
        .optional("max_qubits", &limits.maxQubits)
        .optional("max_shots", &limits.maxShotsPerJob)
        .optional("max_iterations", &limits.maxIterationsPerJob)
        .optional("max_job_cost", &limits.maxJobCostUnits)
        .optional("max_batch_cost", &limits.maxBatchCostUnits)
        .optional("cost_rate", &slo.costUnitsPerSecond)
        .optional("shed_margin", &slo.shedMargin)
        .noOtherKeys("policy");
    if (!f.ok())
        return fail("policy: " + f.error());
    // Range checks cover only the keys the file names: the base may
    // carry any value the command line allowed.
    auto named = [&parsed](const char *key) {
        return parsed.object.count(key) != 0;
    };
    if (named("max_qubits") && limits.maxQubits < 1)
        return fail("max_qubits must be >= 1");
    if (named("max_iterations") && limits.maxIterationsPerJob < 1)
        return fail("max_iterations must be >= 1");
    if (named("max_job_cost") && !(limits.maxJobCostUnits > 0.0))
        return fail("max_job_cost must be > 0");
    if (named("max_batch_cost") && !(limits.maxBatchCostUnits > 0.0))
        return fail("max_batch_cost must be > 0");
    if (named("cost_rate") && !(slo.costUnitsPerSecond > 0.0))
        return fail("cost_rate must be > 0");
    if (named("shed_margin") &&
        (slo.shedMargin < 0.0 || slo.shedMargin >= 1.0))
        return fail("shed_margin must be in [0, 1)");
    out.ok = true;
    return out;
}

PolicyParseResult
loadPolicyFile(const std::string &path, const DaemonPolicy &base)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return fail("cannot open policy file " + path);

    LineReader reader(in);
    LineReader::Line line;
    std::string text;
    bool found = false;
    while (reader.next(line)) {
        if (!line.ok)
            return fail("policy file " + path + " line " +
                        std::to_string(line.number) + " " + line.defect());
        if (found)
            return fail("policy file " + path +
                        " must contain exactly one object line");
        text = line.text;
        found = true;
    }
    if (!found)
        return fail("policy file " + path + " is empty");
    return parsePolicyText(text, base);
}

} // namespace rasengan::serve
