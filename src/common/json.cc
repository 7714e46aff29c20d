#include "src/common/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dcc {
namespace json {

Value Value::OfBool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::OfNumber(double n) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

Value Value::OfString(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::MakeArray() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::MakeObject() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

void Value::PushBack(Value v) {
  if (type_ != Type::kArray) {
    *this = MakeArray();
  }
  array_.push_back(std::move(v));
}

void Value::Set(const std::string& key, Value v) {
  if (type_ != Type::kObject) {
    *this = MakeObject();
  }
  object_[key] = std::move(v);
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_.find(key);
  return it != object_.end() ? &it->second : nullptr;
}

Value* Value::Member(const std::string& key) {
  if (is_null()) {
    *this = MakeObject();
  }
  return is_object() ? &object_[key] : nullptr;
}

void Value::Remove(const std::string& key) { object_.erase(key); }

Value* Value::Element(size_t i) {
  return is_array() && i < array_.size() ? &array_[i] : nullptr;
}

double Value::Number(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::string Value::String(const std::string& key,
                          const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Run(Value* out, std::string* error) {
    bool ok = ParseValue(out, 0) && (SkipWhitespace(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = error_.empty() ? "trailing characters" : error_;
      *error += " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool Fail(const char* message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = Type::kString;
        return ParseString(&out->string_);
      case 't':
        out->type_ = Type::kBool;
        out->bool_ = true;
        return ConsumeLiteral("true") || Fail("bad literal");
      case 'f':
        out->type_ = Type::kBool;
        out->bool_ = false;
        return ConsumeLiteral("false") || Fail("bad literal");
      case 'n':
        out->type_ = Type::kNull;
        return ConsumeLiteral("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out, int depth) {
    out->type_ = Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      Value member;
      if (!ParseValue(&member, depth + 1)) {
        return false;
      }
      out->object_[key] = std::move(member);
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out, int depth) {
    out->type_ = Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      Value element;
      if (!ParseValue(&element, depth + 1)) {
        return false;
      }
      out->array_.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
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
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    if (!std::isdigit(static_cast<unsigned char>(
            pos_ < text_.size() ? text_[pos_] : '\0'))) {
      return Fail("bad number");
    }
    const size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      return Fail("bad number");  // RFC 8259: no leading zeros.
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out->type_ = Type::kNumber;
    out->number_ = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                               nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool Parse(std::string_view text, Value* out, std::string* error) {
  *out = Value();
  Parser parser(text);
  return parser.Run(out, error);
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
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

void AppendNumber(double n, std::string* out) {
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(n));
    *out += buf;
    return;
  }
  if (!std::isfinite(n)) {
    *out += "null";  // JSON has no Inf/NaN; match common-practice lowering.
    return;
  }
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, n);
    if (std::strtod(buf, nullptr) == n) {
      break;
    }
  }
  *out += buf;
}

void AppendValue(const Value& value, int indent, int depth, std::string* out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int levels) {
    if (!pretty) {
      return;
    }
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * levels, ' ');
  };
  switch (value.type()) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += value.AsBool() ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(value.AsNumber(), out);
      break;
    case Type::kString:
      AppendEscaped(value.AsString(), out);
      break;
    case Type::kArray: {
      const auto& items = value.AsArray();
      if (items.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const Value& item : items) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        newline_pad(depth + 1);
        AppendValue(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      const auto& members = value.AsObject();
      if (members.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : members) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        newline_pad(depth + 1);
        AppendEscaped(key, out);
        out->push_back(':');
        if (pretty) {
          out->push_back(' ');
        }
        AppendValue(member, indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Write(const Value& value, int indent) {
  std::string out;
  AppendValue(value, indent, 0, &out);
  return out;
}

}  // namespace json
}  // namespace dcc
