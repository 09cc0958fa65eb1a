#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace dear::common {

void Cli::add(std::string name, Kind kind, std::string fallback, std::string help) {
  std::string value = fallback;
  options_.push_back(
      Option{std::move(name), kind, std::move(fallback), std::move(help), std::move(value)});
}

void Cli::add_int(std::string name, std::uint64_t fallback, std::string help) {
  add(std::move(name), Kind::kInt, std::to_string(fallback), std::move(help));
}

void Cli::add_double(std::string name, double fallback, std::string help) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", fallback);
  add(std::move(name), Kind::kDouble, buffer, std::move(help));
}

void Cli::add_string(std::string name, std::string fallback, std::string help) {
  add(std::move(name), Kind::kString, std::move(fallback), std::move(help));
}

void Cli::add_flag(std::string name, std::string help) {
  add(std::move(name), Kind::kBool, "false", std::move(help));
}

const Cli::Option& Cli::require(std::string_view name, Kind kind) const {
  for (const Option& option : options_) {
    if (option.name == name && option.kind == kind) {
      return option;
    }
  }
  throw std::logic_error("Cli: option '" + std::string(name) +
                         "' was not registered (with this type)");
}

namespace {

/// Whole-string numeric parses: "10O0" or "1.5x" are typos, not values,
/// and must be rejected rather than silently truncated. Integers are
/// decimal digits only, so "-1" cannot wrap to 2^64 - 1.
[[nodiscard]] bool parses_as_int(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  (void)std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

[[nodiscard]] bool parses_as_double(const std::string& text) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  (void)std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

[[nodiscard]] bool parses_as_bool(const std::string& text) {
  return text == "true" || text == "false" || text == "1" || text == "0" || text == "yes" ||
         text == "no";
}

[[nodiscard]] bool starts_with_dashes(std::string_view token) {
  return token.rfind("--", 0) == 0;
}

}  // namespace

bool Cli::assign(std::string_view name, std::string value) {
  for (Option& option : options_) {
    if (option.name != name) {
      continue;
    }
    bool value_ok = true;
    switch (option.kind) {
      case Kind::kInt:
        value_ok = parses_as_int(value);
        break;
      case Kind::kDouble:
        value_ok = parses_as_double(value);
        break;
      case Kind::kBool:
        value_ok = parses_as_bool(value);
        break;
      case Kind::kString:
        break;
    }
    if (!value_ok) {
      std::fprintf(stderr, "%s: invalid value '%s' for --%s\n", program_.c_str(), value.c_str(),
                   option.name.c_str());
      return false;
    }
    option.value = std::move(value);
    option.set = true;
    return true;
  }
  std::fprintf(stderr, "%s: unknown flag --%.*s\n", program_.c_str(),
               static_cast<int>(name.size()), name.data());
  return false;
}

bool Cli::parse(int argc, const char* const* argv) {
  std::vector<std::pair<std::string_view, std::string>> passed;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!starts_with_dashes(token)) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(), argv[i]);
      ok = false;
      continue;
    }
    const std::string_view body = token.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      passed.emplace_back(body.substr(0, eq), std::string(body.substr(eq + 1)));
    } else if (i + 1 < argc && !starts_with_dashes(argv[i + 1])) {
      passed.emplace_back(body, argv[++i]);
    } else {
      passed.emplace_back(body, "true");
    }
  }
  for (const auto& [name, value] : passed) {
    if (name == "help") {
      std::fputs(usage().c_str(), stdout);
      exit_code_ = 0;
      return false;
    }
  }
  for (auto& [name, value] : passed) {
    ok = assign(name, std::move(value)) && ok;
  }
  if (!ok) {
    std::fputs(usage().c_str(), stderr);
    exit_code_ = 1;
    return false;
  }
  return true;
}

std::uint64_t Cli::get_int(std::string_view name) const {
  return std::strtoull(require(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double Cli::get_double(std::string_view name) const {
  return std::strtod(require(name, Kind::kDouble).value.c_str(), nullptr);
}

std::string Cli::get_string(std::string_view name) const {
  return require(name, Kind::kString).value;
}

bool Cli::get_flag(std::string_view name) const {
  const std::string& value = require(name, Kind::kBool).value;
  return value == "true" || value == "1" || value == "yes";
}

bool Cli::was_set(std::string_view name) const {
  for (const Option& option : options_) {
    if (option.name == name) {
      return option.set;
    }
  }
  return false;
}

std::string Cli::usage() const {
  std::string out = program_ + " — " + summary_ + "\n\nOptions:\n";
  for (const Option& option : options_) {
    std::string left = "  --" + option.name;
    switch (option.kind) {
      case Kind::kInt:
        left += " N";
        break;
      case Kind::kDouble:
        left += " F";
        break;
      case Kind::kString:
        left += " S";
        break;
      case Kind::kBool:
        break;
    }
    if (left.size() < 28) {
      left.resize(28, ' ');
    } else {
      left += ' ';
    }
    out += left + option.help;
    if (option.kind != Kind::kBool) {
      out += " (default: " + option.fallback + ")";
    }
    out += '\n';
  }
  out += "  --help                    print this help\n";
  return out;
}

}  // namespace dear::common
