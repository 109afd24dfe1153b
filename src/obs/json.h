// json.h - The one JSON reader, the decoding half of codec.h's writer: the
// serve path (store/wire.h) decodes its frames with it and the run ledger
// (ledger.h) its records.  Objects, arrays, strings (with the escapes
// append_json_string emits), numbers, bools and null; not a validator (it
// accepts trailing garbage after the top-level value, which both callers'
// framing already excludes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sddd::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A number token of decimal digits only also keeps its value as read
  /// by strtoull, so 64-bit counters and seeds survive past 2^53.
  std::optional<std::uint64_t> integer;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
  /// String member with default.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  /// Numeric member with default (also accepts integral-valued doubles).
  double get_number(const std::string& key, double fallback = 0.0) const;
};

/// Deepest array/object nesting parse_json accepts.  The reader recurses
/// once per level, so this bounds its stack on a hostile frame; the
/// deepest frame the repository writes (a diagnose response inside its
/// trace envelope) nests 7 levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one JSON document.  Throws sddd::ParseError on malformed input,
/// including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace sddd::obs
