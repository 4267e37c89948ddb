#include "core/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace kt {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& member : object) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

bool JsonValue::ToInt(int64_t* out) const {
  if (!IsNumber()) return false;
  // Both bounds are exactly representable doubles: -2^63 is INT64_MIN and
  // 2^63 is the first value past INT64_MAX. Outside [-2^63, 2^63) — which
  // also catches NaN — the cast below would be undefined behaviour.
  if (!(number >= -9223372036854775808.0 && number < 9223372036854775808.0)) {
    return false;
  }
  *out = static_cast<int64_t>(number);
  return true;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  int64_t value = 0;
  return (v != nullptr && v->ToInt(&value)) ? value : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsNumber()) ? v->number : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsString()) ? v->string_value : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsBool()) ? v->bool_value : fallback;
}

namespace {

// Recursive-descent parser. Depth is bounded so a hostile request of
// nothing but '[' cannot blow the stack.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // Consumes a run of decimal digits; returns how many.
  size_t Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  bool Accept(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return Literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return Literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Fail("truncated escape");
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by this protocol; lone surrogates encode as-is).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control byte in string");
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  // RFC 8259 grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?. The
  // validated span then goes to strtod, which must consume exactly it (it
  // would read "0x10" as 16) and yield a finite value.
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Accept('-');
    if (!Accept('0') && Digits() == 0) return Fail("expected value");
    bool integral = true;
    if (Accept('.')) {
      integral = false;
      if (Digits() == 0) return Fail("malformed number");
    }
    if (Accept('e') || Accept('E')) {
      integral = false;
      if (!Accept('+')) Accept('-');
      if (Digits() == 0) return Fail("malformed number");
    }
    const char* begin = text_.c_str() + start;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end != text_.c_str() + pos_ || !std::isfinite(value)) {
      return Fail("malformed number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    out->number_is_integral = integral;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text, error).Parse(out);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_.push_back(',');
    need_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  MaybeComma();
  AppendJsonString(&out_, name);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  MaybeComma();
  AppendJsonString(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Float(float value) {
  if (!std::isfinite(value)) return Null();
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) return Null();
  MaybeComma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

}  // namespace kt
