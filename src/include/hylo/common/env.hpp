#pragma once
/// \file env.hpp
/// hylo::env — the one reader of the HYLO_* environment, and the strict
/// field parsers every configuration spec shares (DESIGN.md §17, README
/// "Configuration"). Every value is parsed whole: a field with trailing
/// characters, a non-integer where an integer is due, a non-finite real, or
/// a value outside its range is rejected, never truncated or clamped.

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hylo/common/check.hpp"

namespace hylo::env {

/// Every environment variable the library, its benches and its tools read.
/// A set HYLO_* variable outside this list is a misspelling.
inline constexpr std::string_view kCatalogue[] = {
    "HYLO_AUDIT",     "HYLO_BENCH_SCALE", "HYLO_CKPT_DIR",
    "HYLO_CKPT_EVERY", "HYLO_CKPT_KEEP",  "HYLO_COMM",
    "HYLO_FAULTS",    "HYLO_HEALTH",      "HYLO_KERNEL",
    "HYLO_NUM_THREADS", "HYLO_RECOVER",   "HYLO_TELEMETRY_DIR",
};

/// The value of catalogue variable `name`, or nullopt when it is unset. An
/// empty value means unset.
std::optional<std::string> get(std::string_view name);

/// Throws hylo::Error naming the first set HYLO_* variable that is not in
/// kCatalogue.
void reject_unknown_names();

/// get(name) passed through `parse`. A parse failure is rethrown as a
/// hylo::Error that starts with the variable and its value.
template <typename Parse>
auto read(std::string_view name, Parse parse)
    -> std::optional<decltype(parse(std::string()))> {
  const std::optional<std::string> value = get(name);
  if (!value.has_value()) return std::nullopt;
  try {
    return parse(*value);
  } catch (const Error& e) {
    throw Error(std::string(name) + "='" + *value + "': " + e.what());
  }
}

/// The whole of `text` as a decimal integer in [lo, hi]: no sign on an
/// unsigned type, no '+', no spaces, no fraction or exponent.
template <typename Int>
Int parse_int(std::string_view text, Int lo, Int hi, std::string_view what) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  HYLO_CHECK(ec == std::errc() && stop == end && v >= lo && v <= hi,
             "" << what << " '" << text << "' is not an integer in [" << lo
                << ", " << hi << "]");
  return v;
}

/// The whole of `text` as a finite real in [lo, hi].
double parse_real(std::string_view text, double lo, double hi,
                  std::string_view what);

/// An on/off word, any case: 1|true|on|yes or 0|false|off|no.
bool parse_switch(std::string_view text);

/// `text` cut at every `sep`; n separators give n + 1 fields.
std::vector<std::string> split(std::string_view text, char sep);

/// `text` with ASCII letters lowercased.
std::string lower(std::string_view text);

}  // namespace hylo::env
