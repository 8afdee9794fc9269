#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace hios {

bool Json::as_bool() const {
  HIOS_CHECK(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  HIOS_CHECK(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

int64_t Json::as_int() const { return static_cast<int64_t>(std::llround(as_number())); }

int64_t Json::as_int_in(int64_t lo, int64_t hi, const char* what) const {
  HIOS_CHECK(is_number(), what << " must be a number");
  const double x = std::get<double>(value_);
  // [-2^63, 2^63) is where the conversion to int64_t is defined.
  HIOS_CHECK(std::trunc(x) == x && x >= -0x1p63 && x < 0x1p63 &&
                 static_cast<int64_t>(x) >= lo && static_cast<int64_t>(x) <= hi,
             what << " must be an integer in [" << lo << ", " << hi << "] (got " << x
                  << ")");
  return static_cast<int64_t>(x);
}

const std::string& Json::as_string() const {
  HIOS_CHECK(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  HIOS_CHECK(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  HIOS_CHECK(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  HIOS_CHECK(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  HIOS_CHECK(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  HIOS_CHECK(it != obj.end(), "Json: missing key '" << key << "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

namespace {

void escape_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void number_to(double v, std::string& out) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

}  // namespace

std::string Json::dump(bool pretty) const {
  std::string out;
  // Recursive lambda over the variant.
  auto emit = [&](auto&& self, const Json& node, int depth) -> void {
    auto indent = [&](int d) {
      if (pretty) {
        out.push_back('\n');
        out.append(static_cast<std::size_t>(d) * 2, ' ');
      }
    };
    if (node.is_null()) {
      out += "null";
    } else if (node.is_bool()) {
      out += node.as_bool() ? "true" : "false";
    } else if (node.is_number()) {
      number_to(node.as_number(), out);
    } else if (node.is_string()) {
      escape_to(node.as_string(), out);
    } else if (node.is_array()) {
      const auto& arr = node.as_array();
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out.push_back(',');
        indent(depth + 1);
        self(self, arr[i], depth + 1);
      }
      if (!arr.empty()) indent(depth);
      out.push_back(']');
    } else {
      const auto& obj = node.as_object();
      out.push_back('{');
      std::size_t i = 0;
      for (const auto& [key, value] : obj) {
        if (i++) out.push_back(',');
        indent(depth + 1);
        escape_to(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        self(self, value, depth + 1);
      }
      if (!obj.empty()) indent(depth);
      out.push_back('}');
    }
  };
  emit(emit, *this, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    HIOS_CHECK(pos_ == text_.size(), "Json: trailing characters at offset " << pos_);
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    skip_ws();
    HIOS_CHECK(pos_ < text_.size(), "Json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    HIOS_CHECK(peek() == c, "Json: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': return parse_literal("true", Json(true));
      case 'f': return parse_literal("false", Json(false));
      case 'n': return parse_literal("null", Json(nullptr));
      default: return parse_number();
    }
  }

  Json parse_literal(const char* word, Json value) {
    for (const char* p = word; *p; ++p) {
      HIOS_CHECK(pos_ < text_.size() && text_[pos_] == *p,
                 "Json: bad literal at offset " << pos_);
      ++pos_;
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    HIOS_CHECK(pos_ > start, "Json: invalid number at offset " << start);
    double value = 0.0;
    auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    HIOS_CHECK(ec == std::errc() && end == text_.data() + pos_,
               "Json: invalid number '" << text_.substr(start, pos_ - start) << "'");
    return Json(value);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      HIOS_CHECK(pos_ < text_.size(), "Json: unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        HIOS_CHECK(pos_ < text_.size(), "Json: unterminated escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            HIOS_CHECK(pos_ + 4 <= text_.size(), "Json: bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else HIOS_CHECK(false, "Json: bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (no surrogate-pair support needed for our data).
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
          default: HIOS_CHECK(false, "Json: unknown escape '\\" << esc << "'");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      if (consume(']')) break;
      expect(',');
    }
    return Json(std::move(arr));
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      expect(':');
      obj[key] = parse_value();
      if (consume('}')) break;
      expect(',');
    }
    return Json(std::move(obj));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace hios
