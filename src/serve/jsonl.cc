#include "serve/jsonl.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace rasengan::serve {

namespace {

struct Cursor
{
    const std::string &s;
    size_t pos = 0;

    bool
    done() const
    {
        return pos >= s.size();
    }

    char
    peek() const
    {
        return done() ? '\0' : s[pos];
    }

    void
    skipWs()
    {
        while (!done() && std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }
};

JsonParseResult
fail(const Cursor &cur, const std::string &what)
{
    JsonParseResult r;
    r.ok = false;
    r.error = what;
    r.errorOffset = cur.pos;
    return r;
}

bool
parseString(Cursor &cur, std::string &out, std::string &err)
{
    if (cur.peek() != '"') {
        err = "expected '\"'";
        return false;
    }
    ++cur.pos;
    out.clear();
    while (!cur.done()) {
        char c = cur.s[cur.pos++];
        if (c == '"')
            return true;
        if (c == '\\') {
            if (cur.done()) {
                err = "unterminated escape";
                return false;
            }
            char e = cur.s[cur.pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  if (cur.pos + 4 > cur.s.size()) {
                      err = "truncated \\u escape";
                      return false;
                  }
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = cur.s[cur.pos++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else {
                          err = "bad hex digit in \\u escape";
                          return false;
                      }
                  }
                  // Requests are ASCII in practice; encode BMP code
                  // points as UTF-8 and reject surrogates.
                  if (code >= 0xD800 && code <= 0xDFFF) {
                      err = "surrogate \\u escapes unsupported";
                      return false;
                  }
                  if (code < 0x80) {
                      out.push_back(static_cast<char>(code));
                  } else if (code < 0x800) {
                      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                      out.push_back(
                          static_cast<char>(0x80 | (code & 0x3F)));
                  } else {
                      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                      out.push_back(
                          static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                      out.push_back(
                          static_cast<char>(0x80 | (code & 0x3F)));
                  }
                  break;
              }
              default:
                  err = "unknown escape character";
                  return false;
            }
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[48];
            std::snprintf(buf, sizeof(buf),
                          "unescaped control byte 0x%02x in string",
                          static_cast<unsigned char>(c));
            err = buf;
            return false;
        } else {
            out.push_back(c);
        }
    }
    err = "unterminated string";
    return false;
}

} // namespace

JsonParseResult
parseFlatJson(const std::string &line)
{
    Cursor cur{line};
    cur.skipWs();
    if (cur.peek() != '{')
        return fail(cur, "expected '{'");
    ++cur.pos;
    JsonParseResult result;
    cur.skipWs();
    if (cur.peek() == '}') {
        ++cur.pos;
        result.ok = true;
        return result;
    }
    while (true) {
        cur.skipWs();
        std::string key, err;
        if (!parseString(cur, key, err))
            return fail(cur, "key: " + err);
        cur.skipWs();
        if (cur.peek() != ':')
            return fail(cur, "expected ':' after key \"" + key + "\"");
        ++cur.pos;
        cur.skipWs();

        JsonValue value;
        char c = cur.peek();
        if (c == '"') {
            value.kind = JsonValue::Kind::String;
            if (!parseString(cur, value.str, err))
                return fail(cur, "value of \"" + key + "\": " + err);
        } else if (c == 't' && cur.s.compare(cur.pos, 4, "true") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.flag = true;
            cur.pos += 4;
        } else if (c == 'f' && cur.s.compare(cur.pos, 5, "false") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.flag = false;
            cur.pos += 5;
        } else if (c == 'n' && cur.s.compare(cur.pos, 4, "null") == 0) {
            value.kind = JsonValue::Kind::Null;
            cur.pos += 4;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const char *start = line.c_str() + cur.pos;
            char *end = nullptr;
            double v = std::strtod(start, &end);
            if (end == start || !std::isfinite(v))
                return fail(cur, "bad number for key \"" + key + "\"");
            value.kind = JsonValue::Kind::Number;
            value.num = v;
            cur.pos += static_cast<size_t>(end - start);
        } else if (c == '{' || c == '[') {
            return fail(cur, "nested values are not supported (key \"" +
                                 key + "\")");
        } else {
            return fail(cur, "unexpected value for key \"" + key + "\"");
        }
        result.object[key] = std::move(value);

        cur.skipWs();
        if (cur.peek() == ',') {
            ++cur.pos;
            continue;
        }
        if (cur.peek() == '}') {
            ++cur.pos;
            break;
        }
        return fail(cur, "expected ',' or '}'");
    }
    cur.skipWs();
    if (!cur.done())
        return fail(cur, "trailing bytes after object");
    result.ok = true;
    return result;
}

void
FieldReader::fail(const char *key, const char *what)
{
    if (error_.empty())
        error_ = std::string("\"") + key + "\" " + what;
}

const JsonValue *
FieldReader::find(const char *key, JsonValue::Kind kind,
                  const char *kindName, bool required)
{
    if (!error_.empty())
        return nullptr;
    seen_.push_back(key);
    auto it = obj_.find(key);
    if (it == obj_.end()) {
        if (required)
            fail(key, "is missing");
        return nullptr;
    }
    if (it->second.kind != kind) {
        fail(key, kindName);
        return nullptr;
    }
    return &it->second;
}

void
FieldReader::read(const char *key, std::string *out, bool required)
{
    if (const JsonValue *v =
            find(key, JsonValue::Kind::String, "must be a string", required))
        *out = v->str;
}

void
FieldReader::read(const char *key, bool *out, bool required)
{
    if (const JsonValue *v =
            find(key, JsonValue::Kind::Bool, "must be a boolean", required))
        *out = v->flag;
}

void
FieldReader::read(const char *key, double *out, bool required)
{
    // parseFlatJson admits finite numbers only.
    if (const JsonValue *v =
            find(key, JsonValue::Kind::Number, "must be a number", required))
        *out = v->num;
}

const double *
FieldReader::integer(const char *key, bool required, double lo, double hi,
                     const char *what)
{
    const JsonValue *v =
        find(key, JsonValue::Kind::Number, "must be a number", required);
    if (v != nullptr &&
        (v->num != std::floor(v->num) || v->num < lo || v->num > hi)) {
        fail(key, what);
        return nullptr;
    }
    return v != nullptr ? &v->num : nullptr;
}

void
FieldReader::read(const char *key, int *out, bool required)
{
    if (const double *v = integer(key, required, -2147483648.0,
                                  2147483647.0, "must be an integer"))
        *out = static_cast<int>(*v);
}

void
FieldReader::read(const char *key, uint64_t *out, bool required)
{
    if (const double *v = integer(key, required, 0.0, 0x1p53,
                                  "must be a non-negative integer"))
        *out = static_cast<uint64_t>(*v);
}

FieldReader &
FieldReader::decimal(const char *key, uint64_t *out)
{
    std::string text;
    read(key, &text, true);
    if (!ok())
        return *this;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE)
        fail(key, "must be a decimal string of a 64-bit unsigned integer");
    else
        *out = v;
    return *this;
}

FieldReader &
FieldReader::noOtherKeys(const char *what)
{
    if (!error_.empty())
        return *this;
    for (const auto &entry : obj_) {
        const std::string &key = entry.first;
        if (std::none_of(seen_.begin(), seen_.end(),
                         [&key](const char *k) { return key == k; })) {
            error_ = std::string("unknown ") + what + " key \"" + key + "\"";
            break;
        }
    }
    return *this;
}

void
LineFramer::append(const char *bytes, size_t n)
{
    if (n == 0)
        return;
    pending_ = true;
    if (nul_)
        return;
    if (std::memchr(bytes, '\0', n) != nullptr) {
        // NUL cannot appear in a valid JSONL record; drop the text now
        // so a zero-filled journal block cannot smuggle a prefix past
        // the parser, but keep framing to the newline.
        nul_ = true;
        text_.clear();
        text_.shrink_to_fit();
        return;
    }
    if (oversized_)
        return;
    const size_t total = text_.size() + n;
    // One byte of slack for the '\r' a CRLF line sheds at its newline.
    if (total > maxLineBytes_ &&
        !(total == maxLineBytes_ + 1 && bytes[n - 1] == '\r')) {
        oversized_ = true;
        text_.clear();
        text_.shrink_to_fit();
        return;
    }
    text_.append(bytes, n);
}

bool
LineFramer::endLine(Line &out, bool sawNewline)
{
    std::string text = std::move(text_);
    text_.clear();
    const bool nul = nul_;
    const bool oversized = oversized_ && !nul;
    pending_ = nul_ = oversized_ = false;
    if (!text.empty() && text.back() == '\r')
        text.pop_back();
    if (!nul && !oversized && text.empty()) {
        if (sawNewline) {
            ++lineNumber_;
            ++emptyLines_;
        }
        return false;
    }
    ++lineNumber_;
    out.number = lineNumber_;
    if (oversized) {
        ++oversizedLines_;
        out.oversized = true;
        return true;
    }
    if (nul)
        out.hasNul = true;
    else
        out.text = std::move(text);
    if (!sawNewline) {
        // Torn final line: a crash mid-append leaves a partial record
        // with no newline.  Report it; never parse it.
        ++truncatedLines_;
        out.truncated = true;
    }
    out.ok = !nul && sawNewline;
    return true;
}

size_t
LineFramer::feed(const char *data, size_t size, Line &out)
{
    out = Line{};
    size_t pos = 0;
    while (pos < size) {
        const char *start = data + pos;
        const char *nl =
            static_cast<const char *>(std::memchr(start, '\n', size - pos));
        const size_t take =
            nl ? static_cast<size_t>(nl - start) : size - pos;
        append(start, take);
        pos += take;
        if (nl == nullptr)
            break;
        ++pos; // the newline
        if (endLine(out, true))
            break;
    }
    return pos;
}

const char *
LineFramer::Line::defect() const
{
    return hasNul      ? "contains a NUL byte"
           : oversized ? "exceeds the line-length cap"
           : truncated ? "is truncated (no newline)"
                       : "";
}

bool
LineFramer::finish(Line &out)
{
    out = Line{};
    return pending_ && endLine(out, false);
}

bool
LineReader::next(Line &out)
{
    while (true) {
        if (pos_ == len_) {
            pos_ = len_ = 0;
            if (in_.good()) {
                in_.read(buf_, sizeof(buf_));
                len_ = static_cast<size_t>(in_.gcount());
            }
            if (len_ == 0)
                return finish(out);
        }
        pos_ += feed(buf_ + pos_, len_ - pos_, out);
        if (out.number != 0)
            return true;
    }
}

void
JsonWriter::prefix(const std::string &key)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"" + obs::jsonEscape(key) + "\":";
}

JsonWriter &
JsonWriter::field(const std::string &key, const std::string &value)
{
    prefix(key);
    body_ += "\"" + obs::jsonEscape(value) + "\"";
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, const char *value)
{
    return field(key, std::string(value));
}

JsonWriter &
JsonWriter::field(const std::string &key, double value)
{
    prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, int64_t value)
{
    prefix(key);
    body_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, uint64_t value)
{
    prefix(key);
    body_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, int value)
{
    return field(key, static_cast<int64_t>(value));
}

JsonWriter &
JsonWriter::boolean(const std::string &key, bool value)
{
    prefix(key);
    body_ += value ? "true" : "false";
    return *this;
}

std::string
JsonWriter::str() const
{
    return "{" + body_ + "}";
}

} // namespace rasengan::serve
