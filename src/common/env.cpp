#include "hylo/common/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

extern char** environ;  // POSIX: the process environment

namespace hylo::env {

namespace {
bool catalogued(std::string_view name) {
  return std::find(std::begin(kCatalogue), std::end(kCatalogue), name) !=
         std::end(kCatalogue);
}
}  // namespace

std::optional<std::string> get(std::string_view name) {
  HYLO_CHECK(catalogued(name), "" << name << " is not in the catalogue");
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

void reject_unknown_names() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::string_view name = entry.substr(0, entry.find('='));
    HYLO_CHECK(!name.starts_with("HYLO_") || catalogued(name),
               "unknown environment variable "
                   << name << " (README \"Configuration\" lists the HYLO_* "
                              "settings)");
  }
}

double parse_real(std::string_view text, double lo, double hi,
                  std::string_view what) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  HYLO_CHECK(ec == std::errc() && stop == end && std::isfinite(v) && v >= lo &&
                 v <= hi,
             "" << what << " '" << text << "' is not a finite number in ["
                << lo << ", " << hi << "]");
  return v;
}

bool parse_switch(std::string_view text) {
  const std::string v = lower(text);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  HYLO_CHECK(v == "0" || v == "false" || v == "off" || v == "no",
             "'" << text << "' is not a switch (1|true|on|yes|0|false|off|no)");
  return false;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (std::size_t start = 0;;) {
    const std::size_t at = text.find(sep, start);
    out.emplace_back(text.substr(start, at - start));
    if (at == std::string_view::npos) return out;
    start = at + 1;
  }
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

}  // namespace hylo::env
