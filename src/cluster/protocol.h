/**
 * @file
 * Wire protocol for the distributed solve cluster.
 *
 * Framing.  Every message is one length-prefixed frame:
 *
 *     <decimal payload length>\n<payload>\n
 *
 * The payload is one flat JSON object in the serve/jsonl dialect, so
 * both ends reuse parseFlatJson/JsonWriter and inherit their
 * determinism guarantees (insertion-order keys, %.17g doubles).  The
 * explicit length makes the stream robust to payloads that themselves
 * contain anything the transport might mangle, keeps the decoder
 * allocation-bounded (a corrupt header cannot demand a huge buffer:
 * lengths above the cap poison the stream immediately), and lets the
 * reader detect a torn frame -- a dead worker's last partial write --
 * as cleanly as the journal detects a torn line.
 *
 * Messages (type field):
 *
 *   coordinator -> worker
 *     hello       version, worker index, batch seed, threads, cache
 *                 budget, forwarded fault spec; when the coordinator is
 *                 tracing also trace=true + trace_parent (the span id
 *                 worker job spans open under)
 *     job         slot index + one writeRequest() line
 *     run         execute the jobs accumulated since the last run
 *     drain       finish up and exit cleanly
 *
 *   worker -> coordinator
 *     hello_ack   version echo + worker index + the worker's clock
 *                 ("now", nanoseconds) for span-timestamp alignment
 *     result      slot index + writeResult() + writeTelemetry() lines
 *     batch_done  jobs finished this cycle + cache stats + a
 *                 jsonText() snapshot of the worker's metric registry
 *                 + optional compacted span buffers (encodeSpanEvents)
 *                 when tracing
 *     bye         clean shutdown acknowledgment
 *
 * Determinism contract: result payloads are the exact writeResult()
 * bytes the worker's BatchScheduler produced, carried opaquely; the
 * coordinator never re-renders them, so the merged output is built
 * from the same bytes a single-process run would have written.
 */

#ifndef RASENGAN_CLUSTER_PROTOCOL_H
#define RASENGAN_CLUSTER_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace rasengan::cluster {

/** Bumped on any wire-incompatible change; hello/hello_ack carry it.
 *  v2: distributed tracing -- hello carries trace/trace_parent, every
 *  hello_ack carries the worker's clock (`now`, for offset alignment),
 *  batch_done may carry compacted span buffers. */
constexpr int kProtocolVersion = 2;

/**
 * Default frame cap: a request line tops out at LineReader's 1 MiB,
 * and a batch_done metrics snapshot stays far below this.  Overridable
 * via RASENGAN_CLUSTER_MAX_FRAME for pathological workloads.
 */
constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

/** Render @p payload as one frame (length header + payload + '\n'). */
std::string frame(const std::string &payload);

/**
 * Incremental frame decoder: feed() raw socket bytes, then drain
 * complete frames with next().  Never over-allocates: the payload
 * buffer grows only after a sane header promised that many bytes.  A
 * malformed header (non-digit, oversized length, missing terminator)
 * poisons the stream permanently -- framing is lost, so the peer must
 * be treated as dead; there is no resynchronization.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(size_t maxFrameBytes = kDefaultMaxFrameBytes)
        : maxFrameBytes_(maxFrameBytes)
    {
    }

    /** Append @p n raw bytes (no-op once corrupt). */
    void feed(const char *data, size_t n);

    /**
     * Pop the next complete frame payload into @p payload.  Returns
     * false when no complete frame is buffered (check corrupt() to
     * distinguish "need more bytes" from "stream is garbage").
     */
    bool next(std::string &payload);

    bool corrupt() const { return corrupt_; }
    const std::string &corruptReason() const { return corruptReason_; }

    size_t framesDecoded() const { return framesDecoded_; }

    /** Bytes buffered but not yet consumed (bounded by the cap). */
    size_t bufferedBytes() const { return buffer_.size() - start_; }

  private:
    void poison(const std::string &why);

    size_t maxFrameBytes_;
    std::string buffer_;
    size_t start_ = 0; ///< consumed prefix (compacted lazily)
    bool corrupt_ = false;
    std::string corruptReason_;
    size_t framesDecoded_ = 0;
};

/**
 * One decoded protocol message.  A flat struct rather than a variant:
 * only the fields relevant to `type` are meaningful, everything else
 * keeps its default.  encodeMessage writes only the relevant fields.
 */
struct Message
{
    std::string type;

    // hello / hello_ack
    int version = 0;
    int worker = -1;
    uint64_t batchSeed = 0;
    int threads = 0;
    uint64_t cacheBudgetBytes = 0;
    std::string fault; ///< forwarded ProcessFaultPlan spec ("" = none)
    /** hello: ship span buffers back (the coordinator is tracing). */
    bool traceSpans = false;
    /** hello: the coordinator-side span id worker job spans open under
     *  (a REMOTE parent; carried outside the request line because it is
     *  batch-scoped, not job-scoped). */
    uint64_t traceParent = 0;
    /** hello_ack: the worker's obs::nowNanos() at ack time; with the
     *  coordinator's send/receive times it yields the per-worker clock
     *  offset that aligns shipped span timestamps. */
    uint64_t now = 0;

    // job / result
    uint64_t index = 0;    ///< coordinator-side result slot
    std::string request;   ///< writeRequest() line (job)
    std::string result;    ///< writeResult() line (result)
    std::string telemetry; ///< writeTelemetry() line (result)

    // run / batch_done
    uint64_t jobs = 0; ///< jobs in the cycle (run) / finished (done)

    // batch_done cache + metrics snapshot
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t cacheBytesInUse = 0;
    std::string metrics; ///< obs jsonText() snapshot ("" = none)
    /** batch_done: obs::encodeSpanEvents() of the cycle's job span
     *  subtrees ("" = none / tracing off). */
    std::string spans;
    /** batch_done: span events the worker dropped to fit the frame cap. */
    uint64_t spansDropped = 0;
};

struct MessageParseResult
{
    bool ok = false;
    std::string error;
    Message msg;
};

/** Render @p msg as a frame payload (flat JSON, fixed key order). */
std::string encodeMessage(const Message &msg);

/** Parse and validate one frame payload. */
MessageParseResult parseMessage(const std::string &payload);

/** The frame cap from RASENGAN_CLUSTER_MAX_FRAME, else the default. */
size_t maxFrameBytesFromEnv();

} // namespace rasengan::cluster

#endif // RASENGAN_CLUSTER_PROTOCOL_H
