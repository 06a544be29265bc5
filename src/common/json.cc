#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace commguard
{

namespace
{

template <typename Integer>
void
appendInteger(std::string &out, Integer value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/** Shortest-exact double form (round-trips via strtod). */
void
appendDouble(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        // JSON has no Infinity/NaN literals; non-finite doubles are
        // emitted as tagged strings and mapped back by the consumers
        // that expect them (metric snapshots, quality gauges).
        out += std::isnan(value) ? "\"nan\""
                                 : (value > 0 ? "\"inf\"" : "\"-inf\"");
        return;
    }
    char buf[40];
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    out += buf;
}

// ------------------------------------------------------------------
// Recursive-descent parser.
// ------------------------------------------------------------------

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &message)
    {
        if (error.empty()) {
            error = message + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                const std::string hex = text.substr(pos, 4);
                pos += 4;
                const long code = std::strtol(hex.c_str(), nullptr, 16);
                // Basic-multilingual-plane code points only; enough
                // for the ASCII control characters we emit.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool integral = true;
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        const std::string token = text.substr(start, pos - start);
        if (token.empty())
            return fail("expected number");
        if (integral) {
            errno = 0;
            if (token[0] == '-') {
                const std::int64_t v =
                    std::strtoll(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            } else {
                const Count v =
                    std::strtoull(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            }
        }
        out = Json(std::strtod(token.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(Json &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            Json::Object object;
            skipSpace();
            if (consume('}')) {
                out = Json(std::move(object));
                return true;
            }
            while (true) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json value;
                if (!parseValue(value))
                    return false;
                object.emplace(std::move(key), std::move(value));
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            out = Json(std::move(object));
            return true;
        }
        if (c == '[') {
            ++pos;
            Json::Array array;
            skipSpace();
            if (consume(']')) {
                out = Json(std::move(array));
                return true;
            }
            while (true) {
                Json value;
                if (!parseValue(value))
                    return false;
                array.push_back(std::move(value));
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            out = Json(std::move(array));
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = Json(true);
            return true;
        }
        if (literal("false")) {
            out = Json(false);
            return true;
        }
        if (literal("null")) {
            out = Json(nullptr);
            return true;
        }
        return parseNumber(out);
    }
};

} // namespace

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    // Copy runs of plain characters in one append; escape the rest.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char *escape = nullptr;
        switch (c) {
          case '"': escape = "\\\""; break;
          case '\\': escape = "\\\\"; break;
          case '\n': escape = "\\n"; break;
          case '\r': escape = "\\r"; break;
          case '\t': escape = "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
        }
        out.append(text, plain, i - plain);
        plain = i + 1;
        if (escape != nullptr) {
            out += escape;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        }
    }
    out.append(text, plain, text.size() - plain);
    out += '"';
}

void
appendJsonCount(std::string &out, Count value)
{
    appendInteger(out, value);
}

double
Json::number() const
{
    if (holds<double>())
        return std::get<double>(_value);
    if (holds<Count>())
        return static_cast<double>(std::get<Count>(_value));
    return static_cast<double>(std::get<std::int64_t>(_value));
}

Count
Json::counter() const
{
    if (holds<Count>())
        return std::get<Count>(_value);
    if (holds<std::int64_t>()) {
        const std::int64_t v = std::get<std::int64_t>(_value);
        return v < 0 ? 0 : static_cast<Count>(v);
    }
    const double v = std::get<double>(_value);
    return v < 0.0 ? 0 : static_cast<Count>(v);
}

const Json *
Json::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    const auto it = obj().find(key);
    return it == obj().end() ? nullptr : &it->second;
}

void
Json::append(std::string &out) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += boolean() ? "true" : "false";
    } else if (holds<Count>()) {
        appendInteger(out, std::get<Count>(_value));
    } else if (holds<std::int64_t>()) {
        appendInteger(out, std::get<std::int64_t>(_value));
    } else if (holds<double>()) {
        appendDouble(out, std::get<double>(_value));
    } else if (isString()) {
        appendJsonString(out, str());
    } else if (isArray()) {
        out += '[';
        bool first = true;
        for (const Json &item : arr()) {
            if (!first)
                out += ',';
            first = false;
            item.append(out);
        }
        out += ']';
    } else {
        out += '{';
        bool first = true;
        for (const auto &[key, value] : obj()) {
            if (!first)
                out += ',';
            first = false;
            appendJsonString(out, key);
            out += ':';
            value.append(out);
        }
        out += '}';
    }
}

std::string
Json::dump() const
{
    std::string out;
    append(out);
    return out;
}

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser parser{text, 0, {}};
    if (!parser.parseValue(out)) {
        if (error)
            *error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " +
                     std::to_string(parser.pos);
        return false;
    }
    return true;
}

bool
Json::operator==(const Json &other) const
{
    // Numbers compare by value across representations so that a
    // parsed document equals the one that produced it.
    if (isNumber() && other.isNumber()) {
        if (holds<Count>() && other.holds<Count>())
            return std::get<Count>(_value) ==
                   std::get<Count>(other._value);
        return number() == other.number();
    }
    return _value == other._value;
}

} // namespace commguard
