#include "util/jsonl.hpp"

#include <cstdio>

namespace olp::jsonl {

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // printable ASCII and UTF-8 continuation bytes verbatim
        }
    }
  }
  return out;
}

namespace {

/// True when s[pos..pos+3] are 4 hex digits.
bool is_hex4(const std::string& s, std::size_t pos) {
  if (pos + 4 > s.size()) return false;
  for (std::size_t i = pos; i < pos + 4; ++i) {
    const char c = s[i];
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F')) {
      return false;
    }
  }
  return true;
}

/// Containers well_formed() follows before giving up on a document.
constexpr int kMaxDepth = 64;

/// Syntax-checking cursor over one JSON text (well_formed()).
struct Parser {
  const std::string& s;
  std::size_t pos = 0;
  std::string* error;

  bool fail_here(const std::string& message) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r')) {
      ++pos;
    }
  }

  bool expect(char c) {
    if (pos >= s.size() || s[pos] != c) {
      return fail_here(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  /// Scans a JSON string literal (cursor on the opening quote) past its
  /// closing quote: control characters must be escaped and every escape
  /// must be one JSON defines.
  bool scan_string() {
    if (!expect('"')) return false;
    while (pos < s.size() && s[pos] != '"') {
      if (static_cast<unsigned char>(s[pos]) < 0x20) {
        return fail_here("unescaped control character in string");
      }
      if (s[pos] == '\\') {
        if (++pos >= s.size()) break;
        switch (s[pos]) {
          case '"':
          case '\\':
          case '/':
          case 'b':
          case 'f':
          case 'n':
          case 'r':
          case 't':
            break;
          case 'u':
            if (!is_hex4(s, pos + 1)) return fail_here("invalid \\u escape");
            pos += 4;
            break;
          default:
            return fail_here("unknown escape");
        }
      }
      ++pos;
    }
    if (pos >= s.size()) return fail_here("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  /// One scalar: true/false/null or a number following the strict JSON
  /// grammar (no inf/nan/hex, no leading zeros, no bare trailing dot).
  bool scan_scalar() {
    if (s.compare(pos, 4, "true") == 0 || s.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
      return true;
    }
    const char c = s[pos];
    if (c != '-' && (c < '0' || c > '9')) {
      return fail_here("unexpected character");
    }
    std::size_t p = pos;
    if (s[p] == '-') ++p;
    if (p >= s.size() || s[p] < '0' || s[p] > '9') {
      return fail_here("malformed number");
    }
    if (s[p] == '0') {
      ++p;  // a leading zero must stand alone
    } else {
      while (p < s.size() && s[p] >= '0' && s[p] <= '9') ++p;
    }
    if (p < s.size() && s[p] == '.') {
      ++p;
      if (p >= s.size() || s[p] < '0' || s[p] > '9') {
        return fail_here("malformed number (digits required after '.')");
      }
      while (p < s.size() && s[p] >= '0' && s[p] <= '9') ++p;
    }
    if (p < s.size() && (s[p] == 'e' || s[p] == 'E')) {
      ++p;
      if (p < s.size() && (s[p] == '+' || s[p] == '-')) ++p;
      if (p >= s.size() || s[p] < '0' || s[p] > '9') {
        return fail_here("malformed number (digits required in exponent)");
      }
      while (p < s.size() && s[p] >= '0' && s[p] <= '9') ++p;
    }
    pos = p;
    return true;
  }

  /// Any JSON value, nested objects and arrays included (syntax only).
  bool scan_value(int depth) {
    skip_ws();
    if (pos >= s.size()) return fail_here("expected value");
    const char open = s[pos];
    if (open == '"') return scan_string();
    if (open != '{' && open != '[') return scan_scalar();
    if (depth >= kMaxDepth) return fail_here("nesting too deep");
    const char close = open == '{' ? '}' : ']';
    ++pos;
    skip_ws();
    if (pos < s.size() && s[pos] == close) {
      ++pos;
      return true;
    }
    while (true) {
      if (open == '{') {
        skip_ws();
        if (!scan_string()) return false;
        skip_ws();
        if (!expect(':')) return false;
      }
      if (!scan_value(depth + 1)) return false;
      skip_ws();
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      return expect(close);
    }
  }

  /// Only whitespace may follow the document.
  bool at_end() {
    skip_ws();
    return pos == s.size() || fail_here("trailing characters after document");
  }
};

}  // namespace

bool well_formed(const std::string& text, std::string* error) {
  Parser p{text, 0, error};
  return p.scan_value(0) && p.at_end();
}

}  // namespace olp::jsonl
