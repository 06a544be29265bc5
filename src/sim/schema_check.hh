/**
 * @file
 * The steps every artifact schema check shares.
 *
 * Each exported artifact has one schema check, beside its writer: run
 * records and BENCH documents (sim/run_export.hh), forensics sections
 * and Perfetto traces (sim/trace_export.hh), telemetry streams
 * (sim/telemetry_export.hh), service streams (sim/service_driver.hh),
 * the scenario catalogue (sim/scenario.hh) and fuzz repro bundles
 * (sim/fuzz.hh). Every check takes the artifact's text and returns its
 * errors; tools/jsonl_check is a table of them. They share parsing
 * with the object check, the version check, the JSONL line loop and a
 * typed member lookup, so no check reads a value before its kind.
 */

#ifndef COMMGUARD_SIM_SCHEMA_CHECK_HH
#define COMMGUARD_SIM_SCHEMA_CHECK_HH

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"

namespace commguard::sim
{

/** What a check found wrong; empty means valid. */
using SchemaErrors = std::vector<std::string>;

/** A whole-artifact check: the artifact's text in, its errors out. */
using SchemaCheck = SchemaErrors (*)(const std::string &text);

/** The kind a schema declares for a member. */
enum class JsonKind
{
    Any,  //!< Present; its value is never read.
    Number,
    Count,  //!< An integer >= 0 (Json::isCount()).
    Bool,
    String,
    Object,
    Array,
};

/** One required member of a JSON object. */
struct SchemaMember
{
    const char *key;
    JsonKind kind;
};

/**
 * @p object's member @p member.key when it has @p member.kind;
 * otherwise nullptr and one error appended to @p errors.
 */
const Json *typedMember(const Json &object, const SchemaMember &member,
                        SchemaErrors &errors);

/**
 * Every member of @p table in @p object, in table order (for a
 * structured binding); nullopt when any is missing or of another kind.
 */
template <std::size_t N>
std::optional<std::array<const Json *, N>>
requireMembers(const Json &object, const SchemaMember (&table)[N],
               SchemaErrors &errors)
{
    std::array<const Json *, N> values{};
    bool complete = true;
    for (std::size_t i = 0; i < N; ++i) {
        values[i] = typedMember(object, table[i], errors);
        complete &= values[i] != nullptr;
    }
    if (!complete)
        return std::nullopt;
    return values;
}

/** Whether every member of @p object is a count (errors otherwise). */
bool checkCountMembers(const Json &object, SchemaErrors &errors);

/** Whether @p object's @p key is the count @p version. */
bool checkVersion(const Json &object, const char *key, int version,
                  SchemaErrors &errors);

/** @p text parsed as one JSON object; nullopt and an error otherwise. */
std::optional<Json> parseObject(const std::string &text,
                                SchemaErrors &errors);

/** Append @p from to @p to, each error prefixed with "@p where: ". */
void appendErrors(SchemaErrors &to, const std::string &where,
                  const SchemaErrors &from);

/**
 * The JSONL line loop: each line of @p text must parse as one JSON
 * object, which goes to @p check_record with its 1-based line number.
 * Errors come back prefixed with "line N: "; no lines is an error.
 */
SchemaErrors checkJsonlLines(
    const std::string &text,
    const std::function<SchemaErrors(const Json &record,
                                     std::size_t line)> &check_record);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_SCHEMA_CHECK_HH
