//===- support/Parse.h - Checked, exception-free number parsing -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict integer parsing shared by every user-facing text surface (the
/// CLI option parser, the litmus repro parser). All parsers return
/// nullopt — never throw, never saturate, never silently truncate — on
/// empty input, trailing garbage, out-of-range magnitudes, or (for the
/// unsigned variants) a leading minus sign. `std::atoi`'s "malformed
/// becomes 0" and `static_cast<unsigned>(-1)`'s wrap-around are exactly
/// the bugs this module exists to keep out of option handling.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_SUPPORT_PARSE_H
#define TXDPOR_SUPPORT_PARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace txdpor {

/// Parses a signed decimal integer; the whole token must be consumed.
/// The first character must be a digit or '-': no leading whitespace
/// (which strtoll would skip, letting " 5" through) and no '+' form.
inline std::optional<int64_t> parseInt(const std::string &Tok) {
  if (Tok.empty() ||
      !(Tok.front() == '-' || (Tok.front() >= '0' && Tok.front() <= '9')))
    return std::nullopt;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Tok.c_str(), &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return std::nullopt;
  return static_cast<int64_t>(V);
}

/// Parses a non-negative decimal integer. The first character must be a
/// digit: a literal '-' is rejected outright, and so is leading
/// whitespace — strtoull skips it and then happily wraps " -1" to
/// 2^64 - 1, which is exactly the silent-wrap class this header bans.
inline std::optional<uint64_t> parseUInt(const std::string &Tok) {
  if (Tok.empty() || Tok.front() < '0' || Tok.front() > '9')
    return std::nullopt;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Tok.c_str(), &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return std::nullopt;
  return static_cast<uint64_t>(V);
}

/// parseUInt additionally bounded to fit an `unsigned` (the CLI's session
/// and thread counts); \p Max tightens the bound further when a domain
/// has one (e.g. percentages).
inline std::optional<unsigned>
parseBoundedUInt(const std::string &Tok, uint64_t Max = 0xffffffffu) {
  std::optional<uint64_t> V = parseUInt(Tok);
  if (!V || *V > Max || *V > 0xffffffffu)
    return std::nullopt;
  return static_cast<unsigned>(*V);
}

/// Parses a token of decimal digits only — no sign, no whitespace, nothing
/// after them — whose value fits 32 bits: the uid and variable spelling of
/// the history and trace grammars, where strtoul's sign handling and
/// silent truncation to 32 bits once let "-1.5" and "0.4294967297" pass.
inline std::optional<uint32_t> parseDecimalU32(std::string_view Tok) {
  if (Tok.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Tok) {
    if (C < '0' || C > '9')
      return std::nullopt;
    V = V * 10 + static_cast<uint64_t>(C - '0');
    if (V > 0xffffffffu)
      return std::nullopt;
  }
  return static_cast<uint32_t>(V);
}

} // namespace txdpor

#endif // TXDPOR_SUPPORT_PARSE_H
