// The one JSON reader and writer: the serving wire protocol (newline-
// delimited JSON over stdio or TCP), the run log and the obs_check artifact
// validator all go through it. Zero-dependency by design: a recursive-
// descent parser into a small variant type plus a comma-managing writer.
//
// The parser is strict RFC 8259. Numbers follow the RFC grammar
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?) and must be finite
// doubles, so hex, inf/nan/Infinity, a leading '+', leading zeros, a bare
// '.' and overflowing values such as 1e999 are refused. Strings refuse raw
// control bytes (below 0x20); whitespace is space, tab, LF and CR only.
// Nesting is capped at 32 levels.
//
// Floats are emitted with %.9g, which round-trips every float bit pattern
// through decimal — the parity checks in scripts/check_serve.sh compare
// server output against `ktcli evaluate --json` output literally. JSON has
// no NaN or infinity, so the writer emits those as null.
#ifndef KT_CORE_JSON_H_
#define KT_CORE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kt {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  // True when the number was written with neither a fraction nor an
  // exponent ("7", not "7.0" or "7e0").
  bool number_is_integral = false;
  std::string string_value;
  std::vector<JsonValue> array;
  // Insertion-ordered; duplicate keys keep the first occurrence on Find.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  // Safe number -> int64 conversion: false when this value is not a
  // number or lies outside int64 range (where the raw double cast would
  // be undefined behaviour). NaN fails; fractional values truncate.
  bool ToInt(int64_t* out) const;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults (object-only helpers).
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
};

// Parses exactly one JSON value (trailing non-space content is an error).
// On failure returns false and fills *error with a position-annotated
// message.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// Escapes `s` per RFC 8259 and appends the quoted result to *out.
void AppendJsonString(std::string* out, const std::string& s);

// Single-line JSON writer with automatic comma placement.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  // Starts an object member; follow with exactly one value call (or
  // BeginObject/BeginArray).
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Float(float value);   // %.9g — float round-trip safe; null
                                    // if not finite
  JsonWriter& Double(double value); // %.17g — double round-trip safe; null
                                    // if not finite
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  std::string out_;
  // true when the next emission at this depth needs a leading comma.
  std::vector<bool> need_comma_;
  bool after_key_ = false;
};

}  // namespace kt

#endif  // KT_CORE_JSON_H_
