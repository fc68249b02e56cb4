#include "cluster/protocol.h"

#include "serve/jsonl.h"

namespace rasengan::cluster {

std::string
frame(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += '\n';
    out += payload;
    out += '\n';
    return out;
}

void
FrameDecoder::poison(const std::string &why)
{
    corrupt_ = true;
    corruptReason_ = why;
    buffer_.clear();
    buffer_.shrink_to_fit();
    start_ = 0;
}

void
FrameDecoder::feed(const char *data, size_t n)
{
    if (corrupt_)
        return;
    // The header is tiny, so the only way the buffer can grow past the
    // cap is a payload a sane header promised; still, bound the header
    // scan so a peer streaming digits forever cannot balloon memory.
    buffer_.append(data, n);
}

bool
FrameDecoder::next(std::string &payload)
{
    if (corrupt_)
        return false;

    // Compact the consumed prefix once it dominates the buffer.
    if (start_ > 4096 && start_ > buffer_.size() / 2) {
        buffer_.erase(0, start_);
        start_ = 0;
    }

    // Parse the length header.
    size_t pos = start_;
    uint64_t length = 0;
    size_t digits = 0;
    while (pos < buffer_.size()) {
        char c = buffer_[pos];
        if (c == '\n')
            break;
        if (c < '0' || c > '9') {
            poison("non-digit in frame length header");
            return false;
        }
        length = length * 10 + static_cast<uint64_t>(c - '0');
        if (++digits > 10 || length > maxFrameBytes_) {
            poison("frame length " + std::to_string(length) +
                   " exceeds the cap " + std::to_string(maxFrameBytes_));
            return false;
        }
        ++pos;
    }
    if (pos >= buffer_.size()) {
        if (digits > 10) {
            poison("unterminated frame length header");
            return false;
        }
        return false; // header incomplete; need more bytes
    }
    if (digits == 0) {
        poison("empty frame length header");
        return false;
    }
    ++pos; // consume the header newline

    // Payload + its trailing newline.
    if (buffer_.size() - pos < length + 1)
        return false; // need more bytes
    if (buffer_[pos + length] != '\n') {
        poison("frame payload not terminated by newline");
        return false;
    }
    payload.assign(buffer_, pos, length);
    start_ = pos + length + 1;
    ++framesDecoded_;
    return true;
}

namespace {

MessageParseResult
fail(const std::string &why)
{
    MessageParseResult r;
    r.error = why;
    return r;
}

} // namespace

std::string
encodeMessage(const Message &msg)
{
    serve::JsonWriter w;
    w.field("type", msg.type);
    if (msg.type == "hello") {
        w.field("version", msg.version);
        w.field("worker", msg.worker);
        w.field("batch_seed", std::to_string(msg.batchSeed));
        w.field("threads", msg.threads);
        w.field("cache_bytes", msg.cacheBudgetBytes);
        if (!msg.fault.empty())
            w.field("fault", msg.fault);
        if (msg.traceSpans) {
            w.boolean("trace", true);
            w.field("trace_parent", std::to_string(msg.traceParent));
        }
    } else if (msg.type == "hello_ack") {
        w.field("version", msg.version);
        w.field("worker", msg.worker);
        w.field("now", std::to_string(msg.now));
    } else if (msg.type == "job") {
        w.field("index", msg.index);
        w.field("request", msg.request);
    } else if (msg.type == "run") {
        w.field("jobs", msg.jobs);
    } else if (msg.type == "result") {
        w.field("index", msg.index);
        w.field("result", msg.result);
        w.field("telemetry", msg.telemetry);
    } else if (msg.type == "batch_done") {
        w.field("jobs", msg.jobs);
        w.field("cache_hits", msg.cacheHits);
        w.field("cache_misses", msg.cacheMisses);
        w.field("cache_evictions", msg.cacheEvictions);
        w.field("cache_bytes_in_use", msg.cacheBytesInUse);
        if (!msg.metrics.empty())
            w.field("metrics", msg.metrics);
        if (!msg.spans.empty())
            w.field("spans", msg.spans);
        if (msg.spansDropped != 0)
            w.field("spans_dropped", msg.spansDropped);
    }
    // "drain" and "bye" carry only the type.
    return w.str();
}

MessageParseResult
parseMessage(const std::string &payload)
{
    serve::JsonParseResult parsed = serve::parseFlatJson(payload);
    if (!parsed.ok)
        return fail("frame payload: " + parsed.error);

    // Frames may come from remote workers over TCP: every number goes
    // through the checked accessors (integral, in range), never a cast.
    MessageParseResult out;
    Message &msg = out.msg;
    serve::FieldReader f(parsed.object);
    if (!f.required("type", &msg.type).ok())
        return fail("frame payload has no type");

    if (msg.type == "hello") {
        f.required("version", &msg.version)
            .required("worker", &msg.worker)
            .decimal("batch_seed", &msg.batchSeed)
            .required("threads", &msg.threads)
            .required("cache_bytes", &msg.cacheBudgetBytes)
            .optional("fault", &msg.fault)
            .optional("trace", &msg.traceSpans);
        if (msg.traceSpans)
            f.decimal("trace_parent", &msg.traceParent);
        if (f.ok() && (msg.worker < 0 || msg.threads < 0))
            return fail("hello worker and threads must be >= 0");
    } else if (msg.type == "hello_ack") {
        f.required("version", &msg.version)
            .required("worker", &msg.worker)
            .decimal("now", &msg.now);
    } else if (msg.type == "job") {
        f.required("index", &msg.index).required("request", &msg.request);
    } else if (msg.type == "run") {
        f.required("jobs", &msg.jobs);
    } else if (msg.type == "result") {
        f.required("index", &msg.index)
            .required("result", &msg.result)
            .required("telemetry", &msg.telemetry);
    } else if (msg.type == "batch_done") {
        f.required("jobs", &msg.jobs)
            .optional("cache_hits", &msg.cacheHits)
            .optional("cache_misses", &msg.cacheMisses)
            .optional("cache_evictions", &msg.cacheEvictions)
            .optional("cache_bytes_in_use", &msg.cacheBytesInUse)
            .optional("metrics", &msg.metrics)
            .optional("spans", &msg.spans)
            .optional("spans_dropped", &msg.spansDropped);
    } else if (msg.type != "drain" && msg.type != "bye") {
        return fail("unknown message type \"" + msg.type + "\"");
    }
    if (!f.ok())
        return fail(msg.type + ": " + f.error());
    out.ok = true;
    return out;
}

} // namespace rasengan::cluster
