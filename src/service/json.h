// Minimal JSON values for the service wire protocol.
//
// The daemon speaks newline-delimited JSON (service/wire.h); nothing else
// in the repo needs general JSON *parsing* (exporters emit JSON by hand),
// so this is a deliberately small recursive-descent implementation: the
// full value grammar (null / bool / number / string / array / object), one
// value per parse, errors as std::invalid_argument with a byte offset.
//
// Numbers keep integer precision: an unsigned integer literal is stored as
// uint64 (seeds and interaction counts exceed the 2^53 double-exact range),
// a negative integer as int64, and anything with a fraction or exponent as
// double.  `as_u64` accepts only the first; cross-kind access throws with
// the caller-supplied field name, so wire-level type errors read as
// "submit: 'seed' must be an unsigned integer" rather than a bad_variant.

#ifndef POPPROTO_SERVICE_JSON_H
#define POPPROTO_SERVICE_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "observe/jsonl_writer.h"

namespace popproto::service {

class JsonValue {
public:
    enum class Kind { kNull, kBool, kUInt, kInt, kDouble, kString, kArray, kObject };

    /// Object members keep insertion order (the wire docs show canonical
    /// field order, and deterministic serialization makes tests exact).
    using Object = std::vector<std::pair<std::string, JsonValue>>;
    using Array = std::vector<JsonValue>;

    JsonValue() : kind_(Kind::kNull) {}
    explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
    explicit JsonValue(std::uint64_t value) : kind_(Kind::kUInt), uint_(value) {}
    explicit JsonValue(std::int64_t value) : kind_(Kind::kInt), int_(value) {}
    explicit JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}
    explicit JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
    explicit JsonValue(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
    explicit JsonValue(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_object() const { return kind_ == Kind::kObject; }
    bool is_array() const { return kind_ == Kind::kArray; }
    bool is_string() const { return kind_ == Kind::kString; }

    /// Typed accessors; throw std::invalid_argument naming `what` when the
    /// value has a different kind (or, for as_u64, a negative/fractional
    /// number).
    bool as_bool(const std::string& what) const;
    std::uint64_t as_u64(const std::string& what) const;
    double as_double(const std::string& what) const;
    const std::string& as_string(const std::string& what) const;
    const Array& as_array(const std::string& what) const;
    const Object& as_object(const std::string& what) const;

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue* find(const std::string& key) const;

    /// Compact serialization (no whitespace), suitable for one-line wire
    /// frames.  Strings are escaped per jsonl_writer conventions.
    std::string to_string() const;
    void append_to(std::string& out) const;

private:
    Kind kind_;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/// Parses exactly one JSON value from `text` (trailing whitespace allowed,
/// trailing tokens are an error).  Throws std::invalid_argument with the
/// byte offset of the problem: "json: offset 17: expected ':'".
JsonValue parse_json(const std::string& text);

/// The one JSON string escaper (observe/jsonl_writer.h), shared with the
/// JSONL trace.
using popproto::json_quote;

}  // namespace popproto::service

#endif  // POPPROTO_SERVICE_JSON_H
