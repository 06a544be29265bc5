/**
 * @file
 * Minimal JSON value type: build, serialize, and parse.
 *
 * One shared implementation backs every machine-readable artifact the
 * project emits — the per-run JSONL records of the sweep engine, the
 * schema-versioned BENCH_*.json reports of the figure programs, and the
 * metric-snapshot round-trip used by the schema self-check. Keeping a
 * parser next to the writer is what makes exporter drift testable: what
 * we write, we can read back and compare.
 *
 * Scope: standard JSON with two deliberate choices. Numbers keep
 * 64-bit integer precision (counters exceed the double-exact range in
 * long runs), and object keys are stored sorted so serialization is
 * canonical — equal values produce byte-identical text.
 */

#ifndef COMMGUARD_COMMON_JSON_HH
#define COMMGUARD_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hh"

namespace commguard
{

/**
 * Append @p text to @p out as a quoted JSON string literal. This is
 * the escaper Json::dump() uses, so writers that stream JSON text
 * directly produce the same bytes as the DOM.
 */
void appendJsonString(std::string &out, std::string_view text);

/** Append the decimal digits of @p value to @p out. */
void appendJsonCount(std::string &out, Count value);

/**
 * An immutable-by-convention JSON document node.
 */
class Json
{
  public:
    using Object = std::map<std::string, Json>;
    using Array = std::vector<Json>;

    Json() : _value(nullptr) {}
    Json(std::nullptr_t) : _value(nullptr) {}
    Json(bool value) : _value(value) {}
    Json(double value) : _value(value) {}
    Json(Count value) : _value(value) {}
    Json(int value) : _value(static_cast<std::int64_t>(value)) {}
    Json(std::int64_t value) : _value(value) {}
    Json(const char *value) : _value(std::string(value)) {}
    Json(std::string value) : _value(std::move(value)) {}
    Json(Object value) : _value(std::move(value)) {}
    Json(Array value) : _value(std::move(value)) {}

    static Json object() { return Json(Object{}); }
    static Json array() { return Json(Array{}); }

    bool isNull() const { return holds<std::nullptr_t>(); }
    bool isBool() const { return holds<bool>(); }
    bool isNumber() const
    {
        return holds<double>() || holds<Count>() ||
               holds<std::int64_t>();
    }
    /** An integer >= 0, so counter() reads it exactly. */
    bool isCount() const
    {
        return holds<Count>() ||
               (holds<std::int64_t>() && std::get<std::int64_t>(_value) >= 0);
    }
    bool isString() const { return holds<std::string>(); }
    bool isObject() const { return holds<Object>(); }
    bool isArray() const { return holds<Array>(); }

    bool boolean() const { return std::get<bool>(_value); }
    const std::string &str() const
    {
        return std::get<std::string>(_value);
    }
    const Object &obj() const { return std::get<Object>(_value); }
    Object &obj() { return std::get<Object>(_value); }
    const Array &arr() const { return std::get<Array>(_value); }
    Array &arr() { return std::get<Array>(_value); }

    /** Numeric value widened to double (any number representation). */
    double number() const;

    /** Numeric value as an unsigned 64-bit counter (exact). */
    Count counter() const;

    /** Object member access; inserts null members on mutation. */
    Json &operator[](const std::string &key)
    {
        return obj()[key];
    }

    /** Object member lookup; returns nullptr when absent. */
    const Json *find(const std::string &key) const;

    /** Append to an array value. */
    void push(Json value) { arr().push_back(std::move(value)); }

    /** Canonical single-line serialization (sorted object keys). */
    std::string dump() const;
    void write(std::ostream &os) const { os << dump(); }

    /**
     * Parse one JSON document. Returns false (and sets @p error when
     * given) on malformed input or trailing garbage.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

    bool operator==(const Json &other) const;

  private:
    template <typename T>
    bool
    holds() const
    {
        return std::holds_alternative<T>(_value);
    }

    void append(std::string &out) const;

    std::variant<std::nullptr_t, bool, double, Count, std::int64_t,
                 std::string, Object, Array>
        _value;
};

} // namespace commguard

#endif // COMMGUARD_COMMON_JSON_HH
