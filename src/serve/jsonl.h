/**
 * @file
 * Minimal flat-JSON line reader/writer for the serve request and result
 * streams.
 *
 * The request format is deliberately restricted: one JSON object per
 * line, values limited to strings, finite numbers, booleans, and null
 * -- no nested objects or arrays.  That covers every JobRequest field,
 * keeps the hand-rolled parser small enough to audit, and avoids a
 * dependency the container does not ship.  parseFlatJson reports the
 * first error with a byte offset and, like RFC 8259, rejects raw bytes
 * below 0x20 inside strings (they must be escaped).  The writer emits
 * keys in insertion order with "%.17g" doubles, so identical results
 * serialize to identical bytes (the serve determinism check diffs
 * whole files).
 */

#ifndef RASENGAN_SERVE_JSONL_H
#define RASENGAN_SERVE_JSONL_H

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

namespace rasengan::serve {

struct JsonValue
{
    enum class Kind { String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::string str;
    double num = 0.0;
    bool flag = false;
};

/** Key -> value map of one flat object (key order is irrelevant). */
using JsonObject = std::map<std::string, JsonValue>;

struct JsonParseResult
{
    bool ok = false;
    std::string error; ///< empty when ok
    size_t errorOffset = 0;
    JsonObject object;
};

/** Parse one flat JSON object line. */
JsonParseResult parseFlatJson(const std::string &line);

/**
 * Typed reads of one parsed object: the one set of field checks behind
 * every flat-JSON format (requests, journal records, policy files and
 * cluster frames, which may arrive from remote TCP workers).
 *
 * A value must have the target's kind; a number read into an integer
 * must be integral and in range (int: 32-bit signed; uint64_t: 0 to
 * 2^53, where doubles are still exact).  Full 64-bit values (seeds,
 * span ids, clocks) travel as decimal strings: decimal() reads those,
 * digits only and without wrapping.  optional() leaves the target
 * untouched when the key is absent; required() and decimal() make
 * absence an error.  The first error sticks -- later reads are no-ops
 * -- and error() names the offending key.
 */
class FieldReader
{
  public:
    explicit FieldReader(const JsonObject &obj) : obj_(obj) {}

    template <typename T>
    FieldReader &optional(const char *key, T *out)
    {
        read(key, out, false);
        return *this;
    }

    template <typename T>
    FieldReader &required(const char *key, T *out)
    {
        read(key, out, true);
        return *this;
    }

    FieldReader &decimal(const char *key, uint64_t *out);

    /** Records an error unless every key of the object was read. */
    FieldReader &noOtherKeys(const char *what);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

  private:
    /** The key's value when it has @p kind; nullptr (error recorded
     *  unless it is merely absent and optional) otherwise. */
    const JsonValue *find(const char *key, JsonValue::Kind kind,
                          const char *kindName, bool required);
    void read(const char *key, std::string *out, bool required);
    void read(const char *key, bool *out, bool required);
    void read(const char *key, double *out, bool required);
    void read(const char *key, int *out, bool required);
    void read(const char *key, uint64_t *out, bool required);
    /** A number that is integral and in [lo, hi], else nullptr. */
    const double *integer(const char *key, bool required, double lo,
                          double hi, const char *what);
    void fail(const char *key, const char *what);

    const JsonObject &obj_;
    std::vector<const char *> seen_; ///< keys read so far
    std::string error_;
};

/**
 * Incremental line framer: the one framing rule set for request files,
 * daemon sockets and journal replay.  Bytes arrive in any chunking
 * (feed()); the line sequence does not depend on it.
 *
 *  - '\n' ends a line, and one '\r' right before it is stripped, so
 *    CRLF streams frame like LF streams.  Any other control byte stays
 *    in the text for the parser to judge (parseFlatJson rejects raw
 *    control bytes inside strings).
 *  - A line longer than @p maxLineBytes is consumed to its newline but
 *    reported oversized with its text dropped: a pathological line
 *    cannot balloon memory.
 *  - A line containing a NUL byte -- binary garbage, or a journal
 *    block zero-filled by a crash mid-fsync -- is reported with
 *    `hasNul = true` and its text dropped (embedded NULs silently
 *    shorten C-string views of the text and mask trailing bytes).
 *  - A final line with no newline -- the classic torn partial write --
 *    is surfaced by finish() with `truncated = true`.
 *  - Empty lines are skipped and counted.
 *
 * The framer never throws: callers decide per line whether a defect is
 * fatal (request files), a per-line rejection (the daemon) or merely
 * counted (journal replay).
 */
class LineFramer
{
  public:
    /** Default line-length cap: generous for inline problems, small
     *  enough that a corrupt length prefix cannot eat the heap. */
    static constexpr size_t kDefaultMaxLineBytes = 1u << 20;

    explicit LineFramer(size_t maxLineBytes = kDefaultMaxLineBytes)
        : maxLineBytes_(maxLineBytes)
    {
    }

    struct Line
    {
        std::string text;       ///< contents (valid when ok)
        size_t number = 0;      ///< 1-based line number; 0 = no line
        bool ok = false;        ///< a usable, complete line
        bool oversized = false; ///< exceeded maxLineBytes; text dropped
        bool truncated = false; ///< no trailing newline (torn write)
        bool hasNul = false;    ///< contains a NUL byte; text dropped

        /** Why the line is not ok, e.g. "contains a NUL byte"; "" when
         *  it is. */
        const char *defect() const;
    };

    /**
     * Frame up to @p size bytes of @p data.  Stops right after the
     * newline of the first reportable (non-empty or defective) line and
     * returns the bytes consumed; @p out then holds that line.  When
     * all bytes were consumed without completing one, `out.number` is 0.
     */
    size_t feed(const char *data, size_t size, Line &out);

    /** End of stream: report a pending partial line as truncated.
     *  Returns false when nothing was pending. */
    bool finish(Line &out);

    size_t linesRead() const { return lineNumber_; }
    size_t emptyLines() const { return emptyLines_; }
    size_t oversizedLines() const { return oversizedLines_; }
    size_t truncatedLines() const { return truncatedLines_; }

  private:
    void append(const char *bytes, size_t n);
    /** Close the pending line into @p out; false for an empty line. */
    bool endLine(Line &out, bool sawNewline);

    size_t maxLineBytes_;
    std::string text_;
    bool pending_ = false; ///< bytes of an unfinished line were seen
    bool oversized_ = false;
    bool nul_ = false;
    size_t lineNumber_ = 0;
    size_t emptyLines_ = 0;
    size_t oversizedLines_ = 0;
    size_t truncatedLines_ = 0;
};

/** A LineFramer fed from an input stream (request files, replay). */
class LineReader : public LineFramer
{
  public:
    explicit LineReader(std::istream &in,
                        size_t maxLineBytes = kDefaultMaxLineBytes)
        : LineFramer(maxLineBytes), in_(in)
    {
    }

    /**
     * Read the next reportable line.  Returns false at end of stream;
     * otherwise fills @p out (check `out.ok`: defective lines are
     * reported, not silently skipped).
     */
    bool next(Line &out);

  private:
    std::istream &in_;
    char buf_[4096];
    size_t pos_ = 0;
    size_t len_ = 0;
};

/** Builds one flat JSON object line, keys in call order. */
class JsonWriter
{
  public:
    JsonWriter &field(const std::string &key, const std::string &value);
    JsonWriter &field(const std::string &key, const char *value);
    JsonWriter &field(const std::string &key, double value);
    JsonWriter &field(const std::string &key, int64_t value);
    JsonWriter &field(const std::string &key, uint64_t value);
    JsonWriter &field(const std::string &key, int value);
    JsonWriter &boolean(const std::string &key, bool value);

    /** The finished single-line object (no trailing newline). */
    std::string str() const;

  private:
    void prefix(const std::string &key);
    std::string body_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_JSONL_H
