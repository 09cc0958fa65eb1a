// Declarative command-line interface shared by the examples and the
// report-style benchmark harnesses.
//
// Every program declares its options once (name, default, help text) and
// gets --help output, typed access and strict parsing for free: unknown
// flags, stray positional arguments and malformed values are rejected
// instead of silently running the defaults.
//
//   common::Cli cli("acc_demo", "Runs the DEAR adaptive cruise chain.");
//   cli.add_int("scans", 5000, "radar scans to simulate");
//   cli.add_flag("local-transport", "deploy over the in-process binding");
//   if (!cli.parse(argc, argv)) return cli.exit_code();
//   const std::uint64_t scans = cli.get_int("scans");
//
// Token grammar: `--name=value`, `--name value` (when the next token does
// not start with `--`), and bare `--name` (boolean true). Integer options
// are unsigned counts, seeds and worker numbers: a leading `-` and values
// beyond 64 bits are rejected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dear::common {

class Cli {
 public:
  Cli(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  // --- option registration (before parse) -----------------------------------
  void add_int(std::string name, std::uint64_t fallback, std::string help);
  void add_double(std::string name, double fallback, std::string help);
  void add_string(std::string name, std::string fallback, std::string help);
  /// Boolean option, false unless passed (--name or --name=true).
  void add_flag(std::string name, std::string help);

  /// Parses argv. Returns false when the program should exit instead of
  /// running: --help was requested (exit_code 0), or an unknown flag, a
  /// positional argument or a malformed value was passed (usage printed to
  /// stderr, exit_code 1).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] int exit_code() const noexcept { return exit_code_; }

  // --- typed access (after parse) -------------------------------------------
  [[nodiscard]] std::uint64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] std::string get_string(std::string_view name) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;
  /// True when the user passed the option explicitly.
  [[nodiscard]] bool was_set(std::string_view name) const;

  /// The generated usage text (what --help prints).
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind : std::uint8_t { kInt, kDouble, kString, kBool };

  struct Option {
    std::string name;
    Kind kind;
    std::string fallback;
    std::string help;
    /// The passed value once parse() saw the option; else the fallback.
    std::string value;
    bool set{false};
  };

  void add(std::string name, Kind kind, std::string fallback, std::string help);
  [[nodiscard]] bool assign(std::string_view name, std::string value);
  const Option& require(std::string_view name, Kind kind) const;

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  int exit_code_{0};
};

}  // namespace dear::common
