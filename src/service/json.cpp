#include "service/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace popproto::service {

namespace {

[[noreturn]] void type_error(const std::string& what, const char* expected) {
    throw std::invalid_argument(what + " must be " + expected);
}

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse() {
        JsonValue value = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after value");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw std::invalid_argument("json: offset " + std::to_string(pos_) + ": " + message);
    }

    void skip_whitespace() {
        while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* literal) {
        std::size_t len = 0;
        while (literal[len] != '\0') ++len;
        if (text_.compare(pos_, len, literal) != 0) return false;
        pos_ += len;
        return true;
    }

    JsonValue parse_value() {
        skip_whitespace();
        const char c = peek();
        switch (c) {
            case '{':
                return parse_object();
            case '[':
                return parse_array();
            case '"':
                return JsonValue(parse_string());
            case 't':
                if (consume_literal("true")) return JsonValue(true);
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return JsonValue(false);
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return JsonValue();
                fail("invalid literal");
            default:
                return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue::Object members;
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(members));
        }
        while (true) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            members.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue(std::move(members));
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue::Array elements;
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(elements));
        }
        while (true) {
            elements.push_back(parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue(std::move(elements));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char escape = text_[pos_++];
            switch (escape) {
                case '"':
                    out.push_back('"');
                    break;
                case '\\':
                    out.push_back('\\');
                    break;
                case '/':
                    out.push_back('/');
                    break;
                case 'b':
                    out.push_back('\b');
                    break;
                case 'f':
                    out.push_back('\f');
                    break;
                case 'n':
                    out.push_back('\n');
                    break;
                case 'r':
                    out.push_back('\r');
                    break;
                case 't':
                    out.push_back('\t');
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad hex digit in \\u escape");
                    }
                    // UTF-8 encode the code point (surrogate pairs are not
                    // combined — the wire protocol is ASCII in practice).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default:
                    fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") fail("invalid number");
        if (integral && token[0] != '-') {
            std::uint64_t value = 0;
            const auto [ptr, ec] =
                std::from_chars(token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size())
                return JsonValue(value);
            fail("unsigned integer out of range: " + token);
        }
        if (integral) {
            std::int64_t value = 0;
            const auto [ptr, ec] =
                std::from_chars(token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size())
                return JsonValue(value);
            fail("integer out of range: " + token);
        }
        try {
            return JsonValue(std::stod(token));
        } catch (const std::exception&) {
            fail("invalid number: " + token);
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool(const std::string& what) const {
    if (kind_ != Kind::kBool) type_error(what, "a boolean");
    return bool_;
}

std::uint64_t JsonValue::as_u64(const std::string& what) const {
    if (kind_ == Kind::kUInt) return uint_;
    if (kind_ == Kind::kInt && int_ >= 0) return static_cast<std::uint64_t>(int_);
    type_error(what, "an unsigned integer");
}

double JsonValue::as_double(const std::string& what) const {
    switch (kind_) {
        case Kind::kDouble:
            return double_;
        case Kind::kUInt:
            return static_cast<double>(uint_);
        case Kind::kInt:
            return static_cast<double>(int_);
        default:
            type_error(what, "a number");
    }
}

const std::string& JsonValue::as_string(const std::string& what) const {
    if (kind_ != Kind::kString) type_error(what, "a string");
    return string_;
}

const JsonValue::Array& JsonValue::as_array(const std::string& what) const {
    if (kind_ != Kind::kArray) type_error(what, "an array");
    return array_;
}

const JsonValue::Object& JsonValue::as_object(const std::string& what) const {
    if (kind_ != Kind::kObject) type_error(what, "an object");
    return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const auto& [member_key, value] : object_) {
        if (member_key == key) return &value;
    }
    return nullptr;
}

void JsonValue::append_to(std::string& out) const {
    switch (kind_) {
        case Kind::kNull:
            out += "null";
            return;
        case Kind::kBool:
            out += bool_ ? "true" : "false";
            return;
        case Kind::kUInt:
            out += std::to_string(uint_);
            return;
        case Kind::kInt:
            out += std::to_string(int_);
            return;
        case Kind::kDouble: {
            char buffer[32];
            std::snprintf(buffer, sizeof buffer, "%.17g", double_);
            out += buffer;
            return;
        }
        case Kind::kString:
            out += json_quote(string_);
            return;
        case Kind::kArray: {
            out += '[';
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i != 0) out += ',';
                array_[i].append_to(out);
            }
            out += ']';
            return;
        }
        case Kind::kObject: {
            out += '{';
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i != 0) out += ',';
                out += json_quote(object_[i].first);
                out += ':';
                object_[i].second.append_to(out);
            }
            out += '}';
            return;
        }
    }
}

std::string JsonValue::to_string() const {
    std::string out;
    append_to(out);
    return out;
}

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace popproto::service
