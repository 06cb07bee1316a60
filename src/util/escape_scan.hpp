// The scan both string escapers (JSON results and N-Triples) share: find
// the next byte that needs an escape, eight bytes per step.
//
// JSON string literals and N-Triples literals escape the same byte set —
// the C0 controls (< 0x20), '"' and '\' — and differ only in what they
// write for it. Nearly every term in a result is clean, so the escapers
// call this once per run of clean bytes and append the run with one copy.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace turbo::util {

namespace escape_scan_detail {

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

/// The high bit of each byte of `w` that is < 0x20, '"' or '\'. Borrows
/// only carry upward, so flags can be spurious only above a true match: the
/// lowest flag is exact, which is all FindEscapeByte reads.
inline uint64_t EscapeFlags(uint64_t w) {
  const uint64_t quote = w ^ (kOnes * '"');
  const uint64_t slash = w ^ (kOnes * '\\');
  const uint64_t control = (w - kOnes * 0x20) & ~w;
  const uint64_t is_quote = (quote - kOnes) & ~quote;
  const uint64_t is_slash = (slash - kOnes) & ~slash;
  return (control | is_quote | is_slash) & kHighs;
}

inline bool NeedsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

}  // namespace escape_scan_detail

/// Index of the first byte of `s` at or after `from` that is a C0 control,
/// '"' or '\'; s.size() when there is none.
inline size_t FindEscapeByte(std::string_view s, size_t from) {
  using namespace escape_scan_detail;
  const size_t n = s.size();
  size_t i = from;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= n; i += 8) {
      uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      if (const uint64_t f = EscapeFlags(w)) return i + std::countr_zero(f) / 8;
    }
    if (i < n) {
      // Pad the short tail with clean bytes and scan it as one word.
      uint64_t w = kOnes * 'a';
      std::memcpy(&w, s.data() + i, n - i);
      if (const uint64_t f = EscapeFlags(w)) return i + std::countr_zero(f) / 8;
    }
  } else {
    for (; i < n; ++i)
      if (NeedsEscape(static_cast<unsigned char>(s[i]))) return i;
  }
  return n;
}

}  // namespace turbo::util
