#include "io/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace tabbin {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  auto it = object_.find(key);
  return it == object_.end() ? kNull : it->second;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.as_number() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.as_string() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.as_bool() : fallback;
}

namespace {

void EscapeTo(const std::string& s, std::ostringstream* out) {
  (*out) << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        (*out) << "\\\"";
        break;
      case '\\':
        (*out) << "\\\\";
        break;
      case '\n':
        (*out) << "\\n";
        break;
      case '\r':
        (*out) << "\\r";
        break;
      case '\t':
        (*out) << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          (*out) << buf;
        } else {
          (*out) << c;
        }
    }
  }
  (*out) << '"';
}

void DumpTo(const Json& j, std::ostringstream* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      (*out) << "null";
      break;
    case Json::Type::kBool:
      (*out) << (j.as_bool() ? "true" : "false");
      break;
    case Json::Type::kNumber: {
      double d = j.as_number();
      if (d == static_cast<int64_t>(d) && std::fabs(d) < 1e15) {
        (*out) << static_cast<int64_t>(d);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        (*out) << buf;
      }
      break;
    }
    case Json::Type::kString:
      EscapeTo(j.as_string(), out);
      break;
    case Json::Type::kArray: {
      (*out) << '[';
      for (size_t i = 0; i < j.array_size(); ++i) {
        if (i) (*out) << ',';
        DumpTo(j.at(i), out);
      }
      (*out) << ']';
      break;
    }
    case Json::Type::kObject: {
      (*out) << '{';
      bool first = true;
      for (const auto& [k, v] : j.object_items()) {
        if (!first) (*out) << ',';
        first = false;
        EscapeTo(k, out);
        (*out) << ':';
        DumpTo(v, out);
      }
      (*out) << '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Parse() {
    SkipWs();
    TABBIN_ASSIGN_OR_RETURN(Json v, ParseValue());
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::ParseError("trailing characters at " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Status::ParseError(std::string("expected '") + c + "' at " +
                                std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  Result<Json> ParseValue() {
    if (pos_ >= s_.size()) return Status::ParseError("unexpected end");
    const char c = s_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        TABBIN_ASSIGN_OR_RETURN(std::string str, ParseString());
        return Json::Str(std::move(str));
      }
      case 't':
        TABBIN_RETURN_IF_ERROR(ConsumeWord("true"));
        return Json::Bool(true);
      case 'f':
        TABBIN_RETURN_IF_ERROR(ConsumeWord("false"));
        return Json::Bool(false);
      case 'n':
        TABBIN_RETURN_IF_ERROR(ConsumeWord("null"));
        return Json::Null();
      default:
        return ParseNumberValue();
    }
  }

  Status ConsumeWord(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        return Status::ParseError(std::string("expected '") + word + "'");
      }
      ++pos_;
    }
    return Status::OK();
  }

  Result<Json> ParseNumberValue() {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError("invalid value at " + std::to_string(start));
    }
    try {
      return Json::Number(std::stod(s_.substr(start, pos_ - start)));
    } catch (...) {
      return Status::ParseError("invalid number at " + std::to_string(start));
    }
  }

  // The four hex digits of a \u escape.
  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > s_.size()) return Status::ParseError("bad \\u");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Status::ParseError("bad \\u digit");
      }
    }
    return code;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<std::string> ParseString() {
    TABBIN_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return Status::ParseError("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            TABBIN_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Status::ParseError("lone low surrogate \\u");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // A high surrogate must be followed by a low one; the
              // pair encodes one astral code point (4 UTF-8 bytes).
              if (s_.compare(pos_, 2, "\\u") != 0) {
                return Status::ParseError("unpaired high surrogate \\u");
              }
              pos_ += 2;
              TABBIN_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Status::ParseError("unpaired high surrogate \\u");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            AppendUtf8(code, &out);
            break;
          }
          default:
            return Status::ParseError("unknown escape");
        }
      } else {
        out += c;
      }
    }
    TABBIN_RETURN_IF_ERROR(Expect('"'));
    return out;
  }

  Result<Json> ParseArray() {
    TABBIN_RETURN_IF_ERROR(Expect('['));
    Json arr = Json::Array();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      SkipWs();
      TABBIN_ASSIGN_OR_RETURN(Json v, ParseValue());
      arr.Append(std::move(v));
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    TABBIN_RETURN_IF_ERROR(Expect(']'));
    return arr;
  }

  Result<Json> ParseObject() {
    TABBIN_RETURN_IF_ERROR(Expect('{'));
    Json obj = Json::Object();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipWs();
      TABBIN_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      TABBIN_RETURN_IF_ERROR(Expect(':'));
      SkipWs();
      TABBIN_ASSIGN_OR_RETURN(Json v, ParseValue());
      obj.Set(key, std::move(v));
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    TABBIN_RETURN_IF_ERROR(Expect('}'));
    return obj;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::ostringstream out;
  DumpTo(*this, &out);
  return out.str();
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace tabbin
