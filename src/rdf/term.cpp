#include "rdf/term.hpp"

#include <cstdlib>
#include <optional>

#include "util/escape_scan.hpp"

namespace turbo::rdf {

namespace {

/// Appends code point `cp` (assumed valid: <= 0x10FFFF, not a surrogate)
/// UTF-8 encoded.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Parses exactly `n` hex digits of s starting at `i`; nullopt when the
/// input is too short or any digit is not hex.
std::optional<uint32_t> ParseHex(std::string_view s, size_t i, size_t n) {
  if (i + n > s.size()) return std::nullopt;
  uint32_t v = 0;
  for (size_t k = 0; k < n; ++k) {
    char c = s[i + k];
    uint32_t d;
    if (c >= '0' && c <= '9')
      d = c - '0';
    else if (c >= 'a' && c <= 'f')
      d = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F')
      d = 10 + (c - 'A');
    else
      return std::nullopt;
    v = (v << 4) | d;
  }
  return v;
}

}  // namespace

void AppendEscapedNTriples(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  size_t clean = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = util::FindEscapeByte(s, 0); i < s.size();
       i = util::FindEscapeByte(s, clean)) {
    out->append(s.data() + clean, i - clean);
    clean = i + 1;
    const unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default: {
        // Remaining C0 controls have no ECHAR; the spec's way to write them
        // is a \uXXXX numeric escape. Bytes >= 0x20 (including multi-byte
        // UTF-8 sequences) pass through untouched.
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(esc, sizeof esc);
      }
    }
  }
  out->append(s.data() + clean, s.size() - clean);
}

std::string EscapeNTriples(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscapedNTriples(s, &out);
  return out;
}

std::string UnescapeNTriples(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    char e = s[i + 1];
    switch (e) {
      case '\\': out += '\\'; ++i; break;
      case '"': out += '"'; ++i; break;
      case '\'': out += '\''; ++i; break;
      case 'n': out += '\n'; ++i; break;
      case 'r': out += '\r'; ++i; break;
      case 't': out += '\t'; ++i; break;
      case 'b': out += '\b'; ++i; break;
      case 'f': out += '\f'; ++i; break;
      case 'u':
      case 'U': {
        // UCHAR: \uXXXX or \UXXXXXXXX, UTF-8-encoded into the lexical form.
        const size_t ndigits = e == 'u' ? 4 : 8;
        std::optional<uint32_t> cp = ParseHex(s, i + 2, ndigits);
        if (!cp) {
          // Malformed (truncated or non-hex digits): keep the sequence
          // verbatim rather than guessing — the '\\' goes out here and the
          // following chars flow through the loop untouched.
          out += s[i];
          break;
        }
        if (*cp > 0x10FFFF || (*cp >= 0xD800 && *cp <= 0xDFFF)) {
          // Out of range / lone surrogate: not encodable; replace.
          AppendUtf8(0xFFFD, &out);
        } else {
          AppendUtf8(*cp, &out);
        }
        i += 1 + ndigits;
        break;
      }
      default:
        // Unknown escape: historical behaviour, drop the backslash.
        out += e;
        ++i;
    }
  }
  return out;
}

void Term::AppendNTriples(std::string* out) const {
  switch (kind) {
    case TermKind::kIri:
      *out += '<';
      *out += lexical;
      *out += '>';
      return;
    case TermKind::kBlank:
      *out += "_:";
      *out += lexical;
      return;
    case TermKind::kLiteral:
      *out += '"';
      AppendEscapedNTriples(lexical, out);
      *out += '"';
      if (!lang.empty()) {
        *out += '@';
        *out += lang;
      } else if (!datatype.empty()) {
        *out += "^^<";
        *out += datatype;
        *out += '>';
      }
      return;
  }
}

std::string Term::ToNTriples() const {
  std::string out;
  out.reserve(lexical.size() + datatype.size() + lang.size() + 8);
  AppendNTriples(&out);
  return out;
}

std::optional<double> Term::NumericValue() const {
  if (kind != TermKind::kLiteral || lexical.empty()) return std::nullopt;
  // Cheap reject before strtod: bulk loads numeric-probe every literal once,
  // and most literals (names, emails, phone strings) are not numbers. Keep
  // strtod's leading-whitespace tolerance and its INF/NAN spellings.
  size_t first = lexical.find_first_not_of(" \t\n\r\f\v");
  if (first == std::string::npos) return std::nullopt;
  char c0 = lexical[first];
  if (!(c0 == '-' || c0 == '+' || c0 == '.' || (c0 >= '0' && c0 <= '9') || c0 == 'i' ||
        c0 == 'I' || c0 == 'n' || c0 == 'N'))
    return std::nullopt;
  const char* begin = lexical.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  // Require that the whole lexical form was consumed (no "12abc").
  while (*end == ' ') ++end;
  if (*end != '\0') return std::nullopt;
  return v;
}

}  // namespace turbo::rdf
