#include "hylo/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace hylo::obs {

namespace {

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Shortest-ish number rendering: integers without a fraction, everything
/// else with enough digits to round-trip a double.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // JSON has no Infinity/NaN literals; health probes produce non-finite
  // values by design (NaN = "probe not applicable", Inf = singular factor),
  // so emit the sentinel strings that Json::to_double maps back.
  if (std::isnan(v)) return "\"NaN\"";
  if (std::isinf(v)) return v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    HYLO_CHECK(pos_ == text_.size(),
               "trailing characters at offset " << pos_);
    return v;
  }

 private:
  Json parse_value() {
    skip_ws();
    HYLO_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    switch (text_[pos_]) {
      case '{': return nested(&Parser::parse_object);
      case '[': return nested(&Parser::parse_array);
      case '"': return Json(parse_string());
      case 't': expect("true"); return Json(true);
      case 'f': expect("false"); return Json(false);
      case 'n': expect("null"); return Json();
      default: return parse_number();
    }
  }

  // One more array or object level, refused past Json::kMaxDepth so that
  // hostile input cannot exhaust the stack.
  Json nested(Json (Parser::*parse)()) {
    HYLO_CHECK(++depth_ <= Json::kMaxDepth,
               "JSON nesting depth " << depth_ << " is past the limit "
                                     << Json::kMaxDepth << " at offset "
                                     << pos_);
    Json v = (this->*parse)();
    --depth_;
    return v;
  }

  Json parse_object() {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      HYLO_CHECK(peek() == '"', "expected key string at offset " << pos_);
      std::string key = parse_string();
      skip_ws();
      HYLO_CHECK(peek() == ':', "expected ':' at offset " << pos_);
      ++pos_;
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      HYLO_CHECK(peek() == '}', "expected ',' or '}' at offset " << pos_);
      ++pos_;
      return obj;
    }
  }

  Json parse_array() {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      HYLO_CHECK(peek() == ']', "expected ',' or ']' at offset " << pos_);
      ++pos_;
      return arr;
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      HYLO_CHECK(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      HYLO_CHECK(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          HYLO_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else HYLO_CHECK(false, "bad hex digit in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          HYLO_CHECK(false, "bad escape '\\" << e << "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    HYLO_CHECK(pos_ > start, "expected value at offset " << start);
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    HYLO_CHECK(end != nullptr && *end == '\0',
               "bad number '" << tok << "' at offset " << start);
    return Json(v);
  }

  void expect(const char* word) {
    const std::size_t n = std::string(word).size();
    HYLO_CHECK(text_.compare(pos_, n, word) == 0,
               "expected '" << word << "' at offset " << pos_);
    pos_ += n;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Json::dump(std::ostream& os) const {
  switch (type_) {
    case Type::kNull: os << "null"; break;
    case Type::kBool: os << (bool_ ? "true" : "false"); break;
    case Type::kNumber: os << format_number(num_); break;
    case Type::kString: os << json_escape(str_); break;
    case Type::kArray: {
      os << '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) os << ',';
        arr_[i].dump(os);
      }
      os << ']';
      break;
    }
    case Type::kObject: {
      os << '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) os << ',';
        os << json_escape(obj_[i].first) << ':';
        obj_[i].second.dump(os);
      }
      os << '}';
      break;
    }
  }
}

double Json::to_double() const {
  if (type_ == Type::kNumber) return num_;
  if (type_ == Type::kNull) return std::numeric_limits<double>::quiet_NaN();
  HYLO_CHECK(type_ == Type::kString,
             "to_double on non-numeric JSON value");
  if (str_ == "NaN") return std::numeric_limits<double>::quiet_NaN();
  if (str_ == "Infinity") return std::numeric_limits<double>::infinity();
  if (str_ == "-Infinity") return -std::numeric_limits<double>::infinity();
  HYLO_CHECK(false, "string '" << str_ << "' is not a numeric sentinel");
}

std::string Json::dump() const {
  std::ostringstream oss;
  dump(oss);
  return oss.str();
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace hylo::obs
