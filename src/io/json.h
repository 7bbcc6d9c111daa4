// Minimal self-contained JSON value, parser, and writer.
//
// asilkit has no third-party dependencies, so model serialization ships
// its own JSON implementation: a strict RFC 8259 subset (UTF-8 assumed
// opaque, \uXXXX escapes decoded to UTF-8, no comments, no trailing
// commas).  Numbers are stored as double; integral values round-trip
// exactly up to 2^53.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/error.h"

namespace asilkit::io {

class Json;

/// Malformed JSON text.  Carries the byte offset of the offending
/// character (0-based) with its 1-based line and column, so callers can
/// point at the input without parsing the message.
class JsonParseError : public IoError {
public:
    JsonParseError(const std::string& what, std::size_t offset, std::size_t line,
                   std::size_t column)
        : IoError("json parse error at line " + std::to_string(line) + ", column " +
                  std::to_string(column) + " (byte " + std::to_string(offset) + "): " + what),
          offset_(offset),
          line_(line),
          column_(column) {}

    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::size_t offset_;
    std::size_t line_;
    std::size_t column_;
};

using JsonArray = std::vector<Json>;
/// std::map keeps keys ordered: serialization is deterministic.
using JsonObject = std::map<std::string, Json>;

class Json {
public:
    enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(double d) : value_(d) {}
    Json(int i) : value_(static_cast<double>(i)) {}
    Json(unsigned i) : value_(static_cast<double>(i)) {}
    Json(std::int64_t i) : value_(static_cast<double>(i)) {}
    Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
    Json(const char* s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}
    Json(std::string_view s) : value_(std::string(s)) {}
    Json(JsonArray a) : value_(std::move(a)) {}
    Json(JsonObject o) : value_(std::move(o)) {}

    [[nodiscard]] static Json array() { return Json(JsonArray{}); }
    [[nodiscard]] static Json object() { return Json(JsonObject{}); }

    [[nodiscard]] Type type() const noexcept { return static_cast<Type>(value_.index()); }
    [[nodiscard]] bool is_null() const noexcept { return type() == Type::Null; }
    [[nodiscard]] bool is_bool() const noexcept { return type() == Type::Bool; }
    [[nodiscard]] bool is_number() const noexcept { return type() == Type::Number; }
    [[nodiscard]] bool is_string() const noexcept { return type() == Type::String; }
    [[nodiscard]] bool is_array() const noexcept { return type() == Type::Array; }
    [[nodiscard]] bool is_object() const noexcept { return type() == Type::Object; }

    // Checked accessors (throw IoError on type mismatch).
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] std::int64_t as_int() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const JsonArray& as_array() const;
    [[nodiscard]] JsonArray& as_array();
    [[nodiscard]] const JsonObject& as_object() const;
    [[nodiscard]] JsonObject& as_object();

    // Object convenience.
    [[nodiscard]] bool contains(const std::string& key) const;
    /// Checked member access (throws IoError when absent / not an object).
    [[nodiscard]] const Json& at(const std::string& key) const;
    /// Mutating access; creates members on demand (converts Null->Object).
    Json& operator[](const std::string& key);
    /// Optional member: null Json when absent.
    [[nodiscard]] const Json& get_or_null(const std::string& key) const;

    // Array convenience.
    void push_back(Json v);
    [[nodiscard]] std::size_t size() const;

    /// Serialize; indent < 0 -> compact single-line.
    [[nodiscard]] std::string dump(int indent = -1) const;

    /// Arrays and objects nested deeper than this are refused.  parse()
    /// itself keeps open containers on the heap, but destroying,
    /// comparing and dumping a Json recurse once per level, so accepted
    /// documents stay shallow enough for any thread's stack.
    static constexpr std::size_t kMaxParseDepth = 2048;

    /// Strict parse of a complete document.  Throws JsonParseError (an
    /// IoError) with byte offset and line/column on malformed input,
    /// including nesting deeper than kMaxParseDepth.
    [[nodiscard]] static Json parse(std::string_view text);

    friend bool operator==(const Json&, const Json&) = default;

private:
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// Reads and parses a JSON file.
[[nodiscard]] Json load_json_file(const std::string& path);

/// Writes `dump(2)` plus trailing newline.
void save_json_file(const Json& value, const std::string& path);

}  // namespace asilkit::io
