#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util.h"

namespace e2e {

namespace {

std::string
escapeJson(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

SpanRecorder::SpanRecorder() : epochSec_(nowSec()) {}

int
SpanRecorder::open(const std::string &name, const std::string &arg)
{
    Record r;
    r.name = name;
    r.arg = arg;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.startUs = (nowSec() - epochSec_) * 1e6;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(r));
    children_.emplace_back();
    if (spans_[index].parent >= 0)
        children_[spans_[index].parent].push_back(index);
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    // Spans still open above @p index (left open by an exception
    // unwinding past their manual close) end with it.
    const double now = (nowSec() - epochSec_) * 1e6;
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        spans_[top].endUs = now;
        if (top == index)
            return;
    }
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Record &r : spans_)
        if (r.name == name && r.endUs >= r.startUs)
            out.push_back(durationMs(r));
    return out;
}

double
SpanRecorder::selfMs(int index) const
{
    const Record &r = spans_[index];
    std::vector<std::pair<double, double>> iv;
    for (int c : children_[index])
        iv.emplace_back(std::max(spans_[c].startUs, r.startUs),
                        std::min(spans_[c].endUs, r.endUs));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (s > hi) {
            covered += std::max(hi - lo, 0.0);
            lo = s;
            hi = e;
        } else {
            hi = std::max(hi, e);
        }
    }
    covered += std::max(hi - lo, 0.0);
    return durationMs(r) - covered * 1e-3;
}

std::map<std::string, SpanRecorder::NameSummary>
SpanRecorder::summarize() const
{
    std::map<std::string, NameSummary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        NameSummary &s = out[spans_[i].name];
        ++s.count;
        s.totalMs += durationMs(spans_[i]);
        s.selfMs += selfMs(static_cast<int>(i));
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":1,\"args\":{\"name\":\"e2e_bench\"}}");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,\"arg\":\"%s\","
                     "\"self_ms\":%.6f}}",
                     escapeJson(r.name).c_str(), r.startUs,
                     r.endUs - r.startUs, i, r.parent,
                     escapeJson(r.arg).c_str(),
                     selfMs(static_cast<int>(i)));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace e2e
