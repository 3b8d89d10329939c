#include "report/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace dmf::report {

namespace {

/// Appends `text` to `out` JSON-escaped. Runs of bytes that need no escape
/// (everything but '"', '\\' and control bytes below 0x20; UTF-8 multibyte
/// sequences pass through) are copied with one append each.
void appendEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* p = run; p != end; ++p) {
    const auto ch = static_cast<unsigned char>(*p);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(run, p);
    run = p + 1;
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[ch >> 4],
                               kHex[ch & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(run, end);
}

/// set() and push() reserve this many children up front, so a typical
/// response object fills without regrowing its vector per field.
constexpr std::size_t kReservedChildren = 8;

}  // namespace

std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  appendEscaped(out, text);
  return out;
}

Json Json::string(std::string value) {
  Json j(Kind::kString);
  j.text_ = std::move(value);
  return j;
}

Json Json::number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Json::number: non-finite value");
  }
  Json j(Kind::kNumber);
  j.num_ = value;
  return j;
}

Json Json::number(std::uint64_t value) {
  Json j(Kind::kUnsigned);
  j.unsigned_ = value;
  return j;
}

Json Json::boolean(bool value) {
  Json j(Kind::kBool);
  j.bool_ = value;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::set: not an object");
  }
  if (fields_.empty()) fields_.reserve(kReservedChildren);
  fields_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::set(const std::string& key, std::uint64_t value) {
  return set(key, Json::number(value));
}

Json& Json::set(const std::string& key, double value) {
  return set(key, Json::number(value));
}

Json& Json::set(const std::string& key, std::string value) {
  return set(key, Json::string(std::move(value)));
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::push: not an array");
  }
  if (items_.empty()) items_.reserve(kReservedChildren);
  items_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kObject) return fields_.size();
  if (kind_ == Kind::kArray) return items_.size();
  return 0;
}

bool Json::contains(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [name, value] : fields_) {
    if (name == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::at(key): not an object");
  }
  for (const auto& [name, value] : fields_) {
    if (name == key) return value;
  }
  throw std::out_of_range("Json::at: no key '" + key + "'");
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::at(index): not an array");
  }
  if (index >= items_.size()) {
    throw std::out_of_range("Json::at: index " + std::to_string(index) +
                            " out of range");
  }
  return items_[index];
}

std::vector<std::string> Json::keys() const {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::keys: not an object");
  }
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& [name, value] : fields_) out.push_back(name);
  return out;
}

const std::string& Json::asString() const {
  if (kind_ != Kind::kString) {
    throw std::logic_error("Json::asString: not a string");
  }
  return text_;
}

double Json::asDouble() const {
  if (kind_ == Kind::kNumber) return num_;
  if (kind_ == Kind::kUnsigned) return static_cast<double>(unsigned_);
  throw std::logic_error("Json::asDouble: not a number");
}

std::uint64_t Json::asUint() const {
  if (kind_ == Kind::kUnsigned) return unsigned_;
  if (kind_ == Kind::kNumber) {
    if (num_ < 0.0 || num_ != std::floor(num_) ||
        num_ >= 18446744073709551616.0) {
      throw std::logic_error("Json::asUint: number is not a uint64");
    }
    return static_cast<std::uint64_t>(num_);
  }
  throw std::logic_error("Json::asUint: not a number");
}

bool Json::asBool() const {
  if (kind_ != Kind::kBool) {
    throw std::logic_error("Json::asBool: not a boolean");
  }
  return bool_;
}

namespace {

/// Recursive-descent reader over the serialized text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  /// Containers deeper than this are rejected rather than risking a stack
  /// overflow in the recursive descent (each level costs two stack frames).
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth) parser_.fail("nesting too deep");
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser_;
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("Json::parse: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consumeLiteral(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parseValue() {
    skipSpace();
    switch (peek()) {
      case '{': {
        const DepthGuard guard(*this);
        return parseObject();
      }
      case '[': {
        const DepthGuard guard(*this);
        return parseArray();
      }
      case '"':
        return Json::string(parseString());
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return Json::null();
      default:
        return parseNumber();
    }
  }

  Json parseObject() {
    expect('{');
    Json object = Json::object();
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skipSpace();
      std::string key = parseString();
      skipSpace();
      expect(':');
      object.set(key, parseValue());
      skipSpace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parseArray() {
    expect('[');
    Json array = Json::array();
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push(parseValue());
      skipSpace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char hex = text_[pos_++];
      code <<= 4;
      if (hex >= '0' && hex <= '9') {
        code |= static_cast<unsigned>(hex - '0');
      } else if (hex >= 'a' && hex <= 'f') {
        code |= static_cast<unsigned>(hex - 'a' + 10);
      } else if (hex >= 'A' && hex <= 'F') {
        code |= static_cast<unsigned>(hex - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    return code;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
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
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = parseHex4();
          // Surrogate halves are not code points. A high surrogate must be
          // followed by a \u low surrogate (the pair decodes to one
          // supplementary-plane character); anything else — a lone high,
          // a lone low, a high followed by a non-surrogate — is malformed
          // input, not something to smuggle through as CESU-8. The daemon
          // parses untrusted request bodies with this function.
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u low surrogate");
            }
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// RFC 8259 number grammar: -? (0 | [1-9][0-9]*) frac? exp?. std::stod
  /// would happily take "+5", ".5", "1." and "0x1p3" — the daemon parses
  /// untrusted request bodies, so anything the grammar does not produce is
  /// rejected here instead of leniently coerced.
  [[nodiscard]] static bool matchesNumberGrammar(const std::string& token) {
    std::size_t i = 0;
    const auto digits = [&token, &i]() {
      const std::size_t first = i;
      while (i < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[i])) != 0) {
        ++i;
      }
      return i > first;
    };
    if (i < token.size() && token[i] == '-') ++i;
    if (i >= token.size()) return false;
    if (token[i] == '0') {
      ++i;  // no leading zeros: "0" may only be followed by '.' or exponent
    } else if (!digits()) {
      return false;
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == token.size();
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    if (!matchesNumberGrammar(token)) fail("malformed number");
    const bool integral =
        token.find_first_of(".eE") == std::string::npos && token[0] != '-';
    if (integral) {
      std::uint64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return Json::number(value);
      }
    }
    try {
      std::size_t used = 0;
      const double value = std::stod(token, &used);
      if (used != token.size()) fail("malformed number");
      return Json::number(value);
    } catch (const std::invalid_argument&) {
      fail("malformed number");
    } catch (const std::out_of_range&) {
      fail("number out of range");
    }
  }

  const std::string& text_;
  int depth_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

std::string Json::dump(unsigned indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

void Json::dumpTo(std::string& out, unsigned indent, unsigned depth) const {
  const auto newline = [&out, indent](unsigned levels) {
    if (indent == 0) return;
    out += '\n';
    out.append(std::size_t{levels} * indent, ' ');
  };
  switch (kind_) {
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        out += '"';
        appendEscaped(out, fields_[i].first);
        out += indent > 0 ? "\": " : "\":";
        fields_[i].second.dumpTo(out, indent, depth + 1);
      }
      if (!fields_.empty()) newline(depth);
      out += '}';
      break;
    }
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        items_[i].dumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kString:
      out += '"';
      appendEscaped(out, text_);
      out += '"';
      break;
    case Kind::kNumber: {
      char buffer[32];
      const int length =
          std::snprintf(buffer, sizeof(buffer), "%.10g", num_);
      out.append(buffer, static_cast<std::size_t>(length));
      break;
    }
    case Kind::kUnsigned: {
      char buffer[24];
      const auto result =
          std::to_chars(buffer, buffer + sizeof(buffer), unsigned_);
      out.append(buffer, result.ptr);
      break;
    }
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNull:
      out += "null";
      break;
  }
}

}  // namespace dmf::report
