// Small string helpers shared across modules (SQL generation, the CLI
// tokenizer, and benchmark table printers).

#ifndef ORPHEUS_COMMON_STR_UTIL_H_
#define ORPHEUS_COMMON_STR_UTIL_H_

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace orpheus {

// Joins `parts` with `sep`: Join({"a","b"}, ", ") == "a, b".
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single character, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

// Splits on runs of whitespace, dropping empty fields (shell-style).
std::vector<std::string> SplitWhitespace(std::string_view text);

// ASCII-lowercases a copy.
std::string ToLower(std::string_view text);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

// Case-insensitive ASCII equality (SQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view text, std::string_view prefix);

// Strict parse of a user-typed number: all of `text`, within [lo, hi]
// (so never NaN or infinite); no surrounding whitespace, '+' or suffix.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!(lo <= value && value <= hi)) return std::nullopt;
  return value;
}

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Renders 12345678 as "12,345,678" for benchmark tables.
std::string WithThousandsSep(int64_t value);

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_STR_UTIL_H_
