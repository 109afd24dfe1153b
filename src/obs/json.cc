#include "obs/json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "obs/error.h"

namespace sddd::obs {

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json", 0,
                     why + " at offset " + std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < text_.size() &&
           (text_[i_] == ' ' || text_[i_] == '\t' || text_[i_] == '\n' ||
            text_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= text_.size()) fail("unexpected end of input");
    return text_[i_];
  }
  void expect(char c) {
    if (i_ >= text_.size() || text_[i_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++i_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  void literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.substr(i_, n) != word) fail(std::string("expected ") + word);
    i_ += n;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = peek() == 't';
    literal(v.boolean ? "true" : "false");
    return v;
  }

  JsonValue number() {
    const std::size_t start = i_;
    while (i_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[i_])) != 0 ||
            text_[i_] == '-' || text_[i_] == '+' || text_[i_] == '.' ||
            text_[i_] == 'e' || text_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    const std::string token(text_.substr(start, i_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    if (token.find_first_not_of("0123456789") == std::string::npos) {
      v.integer = std::strtoull(token.c_str(), nullptr, 10);
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= text_.size()) fail("unterminated string");
      const char c = text_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= text_.size()) fail("unterminated escape");
      const char e = text_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (i_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          // The renderer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 for completeness.
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

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view text_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around the cursor
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace sddd::obs
