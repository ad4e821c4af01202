#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace sirep::obs::json {

void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

const Value* Value::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

template <typename Int>
bool ParseInt(const Value& v, Int* out) {
  if (v.type != Value::Type::kNumber) return false;
  const char* end = v.raw.data() + v.raw.size();
  const auto [ptr, ec] = std::from_chars(v.raw.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    Value value;
    SIREP_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing data after JSON value");
    return value;
  }

 private:
  /// Deeper documents are rejected instead of recursing without bound.
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("bad JSON: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Next(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end");
    const size_t begin = pos_;
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ParseObject(out, depth);
        break;
      case '[':
        status = ParseArray(out, depth);
        break;
      case '"':
        out->type = Value::Type::kString;
        status = ParseString(&out->str);
        break;
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        status = ParseLiteral("true");
        break;
      case 'f':
        out->type = Value::Type::kBool;
        status = ParseLiteral("false");
        break;
      case 'n':
        status = ParseLiteral("null");
        break;
      default:
        status = ParseNumber(out);
        break;
    }
    out->raw = text_.substr(begin, pos_ - begin);
    return status;
  }

  Status ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("malformed literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status ParseNumber(Value* out) {
    const size_t begin = pos_;
    const auto digits = [&] {
      const size_t start = pos_;
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      return pos_ > start;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return Error("malformed number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return Error("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return Error("malformed number");
    }
    out->type = Value::Type::kNumber;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + begin, text_.data() + pos_,
                        out->number);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return Error("number out of range");
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      switch (const char esc = text_[pos_++]) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const char* last = first + std::min<size_t>(4, text_.size() - pos_);
          const auto [ptr, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc() || ptr != first + 4) {
            return Error("malformed \\u escape");
          }
          // AppendString escapes only control characters; any other
          // text travels as raw UTF-8.
          if (code >= 0x80) return Error("unsupported \\u escape");
          pos_ += 4;
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return Status::OK();
  }

  Status ParseObject(Value* out, int depth) {
    out->type = Value::Type::kObject;
    ++pos_;  // '{'
    if (Next('}')) return Status::OK();
    do {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      SIREP_RETURN_IF_ERROR(ParseString(&key));
      if (!Next(':')) return Error("expected ':'");
      Value value;
      SIREP_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
    } while (Next(','));
    if (!Next('}')) return Error("expected ',' or '}'");
    return Status::OK();
  }

  Status ParseArray(Value* out, int depth) {
    out->type = Value::Type::kArray;
    ++pos_;  // '['
    if (Next(']')) return Status::OK();
    do {
      Value value;
      SIREP_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
    } while (Next(','));
    if (!Next(']')) return Error("expected ',' or ']'");
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool Value::AsU64(uint64_t* out) const { return ParseInt(*this, out); }
bool Value::AsI64(int64_t* out) const { return ParseInt(*this, out); }

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace sirep::obs::json
