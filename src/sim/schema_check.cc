#include "sim/schema_check.hh"

#include <sstream>

namespace commguard::sim
{

namespace
{

/** Name and test of each JsonKind, in enum order (Any: no test). */
const struct
{
    const char *name;
    bool (Json::*is)() const;
} kKinds[] = {
    {"value", nullptr},          {"number", &Json::isNumber},
    {"count", &Json::isCount},   {"boolean", &Json::isBool},
    {"string", &Json::isString}, {"object", &Json::isObject},
    {"array", &Json::isArray},
};

} // namespace

const Json *
typedMember(const Json &object, const SchemaMember &member,
            SchemaErrors &errors)
{
    const auto &kind = kKinds[static_cast<std::size_t>(member.kind)];
    const Json *value = object.find(member.key);
    if (value == nullptr) {
        errors.push_back(std::string("missing ") + kind.name + " '" +
                         member.key + "'");
        return nullptr;
    }
    if (kind.is != nullptr && !(value->*kind.is)()) {
        std::string shown = value->dump();
        if (shown.size() > 40)
            shown = shown.substr(0, 37) + "...";
        errors.push_back(
            std::string("'") + member.key + "' is not a " + kind.name +
            (member.kind == JsonKind::Count ? " (an integer >= 0)" : "") +
            ": " + shown);
        return nullptr;
    }
    return value;
}

bool
checkCountMembers(const Json &object, SchemaErrors &errors)
{
    bool all = true;
    for (const auto &[key, value] : object.obj())
        all &= typedMember(object, {key.c_str(), JsonKind::Count},
                           errors) != nullptr;
    return all;
}

bool
checkVersion(const Json &object, const char *key, int version,
             SchemaErrors &errors)
{
    const Json *value =
        typedMember(object, {key, JsonKind::Count}, errors);
    if (value == nullptr)
        return false;
    if (value->counter() == static_cast<Count>(version))
        return true;
    errors.push_back(std::string(key) + " " + value->dump() + " != " +
                     std::to_string(version));
    return false;
}

std::optional<Json>
parseObject(const std::string &text, SchemaErrors &errors)
{
    Json parsed;
    std::string error;
    if (!Json::parse(text, parsed, &error))
        errors.push_back("parse error: " + error);
    else if (!parsed.isObject())
        errors.push_back("not a JSON object");
    else
        return parsed;
    return std::nullopt;
}

void
appendErrors(SchemaErrors &to, const std::string &where,
             const SchemaErrors &from)
{
    for (const std::string &error : from)
        to.push_back(where + ": " + error);
}

SchemaErrors
checkJsonlLines(
    const std::string &text,
    const std::function<SchemaErrors(const Json &record,
                                     std::size_t line)> &check_record)
{
    SchemaErrors errors;
    std::istringstream in(text);
    std::size_t line = 0;
    for (std::string content; std::getline(in, content);) {
        SchemaErrors line_errors;
        ++line;
        if (const std::optional<Json> record =
                parseObject(content, line_errors))
            line_errors = check_record(*record, line);
        appendErrors(errors, "line " + std::to_string(line), line_errors);
    }
    if (line == 0)
        errors.push_back("contains no records");
    return errors;
}

} // namespace commguard::sim
