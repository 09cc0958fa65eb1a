#include "scenario/spec_json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <system_error>
#include <vector>

namespace dear::scenario {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Names the key whose value is being parsed, so type errors point at
  /// the offending field ("key 'frames': expected number ...").
  void set_context(std::string context) { context_ = std::move(context); }

  void fail(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      error_ = (context_.empty() ? std::string() : "key '" + context_ + "': ") + message +
               " (at offset " + std::to_string(pos_) + ")";
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  [[nodiscard]] std::string parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return {};
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          default:
            c = escaped;
            break;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return {};
    }
    ++pos_;  // closing quote
    return out;
  }

  /// Scans one JSON number (RFC 8259 grammar: no nan/inf, hex, leading
  /// '+' or leading zeros) and returns its text; empty after a failure.
  [[nodiscard]] std::string_view parse_number_text() {
    skip_ws();
    const std::size_t begin = pos_;
    const auto peek = [this](char c) { return pos_ < text_.size() && text_[pos_] == c; };
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ > from;
    };
    if (peek('-')) {
      ++pos_;
    }
    if (peek('0')) {
      ++pos_;
    } else if (!digits()) {
      pos_ = begin;
      fail("expected number");
      return {};
    }
    bool well_formed = true;
    if (peek('.')) {
      ++pos_;
      well_formed = digits();
    }
    if (well_formed && (peek('e') || peek('E'))) {
      ++pos_;
      if (peek('+') || peek('-')) {
        ++pos_;
      }
      well_formed = digits();
    }
    if (!well_formed || peek('.') ||
        (pos_ < text_.size() && std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0)) {
      fail("malformed number");
      return {};
    }
    return text_.substr(begin, pos_ - begin);
  }

  [[nodiscard]] bool parse_bool() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected boolean");
    return false;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_{0};
  bool failed_{false};
  std::string error_;
  std::string context_;
};

/// The file's fields in file order: the spec's own three, then the knob
/// table (scenario/knobs.hpp).
template <typename Spec, typename Visitor>
void for_each_field(Spec& spec, Visitor&& visit) {
  visit(KnobKey{{}, "name"}, spec.name);
  visit(KnobKey{{}, "index"}, spec.index);
  visit(KnobKey{{}, "workload"}, spec.workload);
  for_each_knob(spec, visit);
}

// --- typed readers: one per field type ---------------------------------------

void read_value(Parser& parser, std::string& out, const KnobKey& /*key*/) {
  out = parser.parse_string();
}

void read_value(Parser& parser, bool& out, const KnobKey& /*key*/) { out = parser.parse_bool(); }

/// Enumerations are written as their to_string() name.
template <typename Enum>
void read_enum(Parser& parser, Enum& out, std::initializer_list<Enum> values, const char* what) {
  const std::string name = parser.parse_string();
  for (const Enum value : values) {
    if (name == to_string(value)) {
      out = value;
      return;
    }
  }
  if (!parser.failed()) {
    parser.fail("unknown " + std::string(what) + " '" + name + "'");
  }
}

void read_value(Parser& parser, Workload& out, const KnobKey& /*key*/) {
  read_enum(parser, out, {Workload::kBrakeDear, Workload::kBrakeNondet, Workload::kAcc},
            "workload");
}

void read_value(Parser& parser, Transport& out, const KnobKey& /*key*/) {
  read_enum(parser, out, {Transport::kSomeIp, Transport::kLocal}, "transport");
}

void read_value(Parser& parser, double& out, const KnobKey& key) {
  const std::string_view text = parser.parse_number_text();
  if (parser.failed()) {
    return;
  }
  double value = 0.0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size() || !std::isfinite(value)) {
    parser.fail("number out of range");
  } else if (key.probability && !(value >= 0.0 && value <= 1.0)) {
    parser.fail("probability must lie in [0, 1]");
  } else {
    out = value;
  }
}

/// Counts, seeds and nanosecond durations: a plain non-negative integer
/// literal that fits the field's type (no fraction, no exponent).
template <std::integral T>
void read_value(Parser& parser, T& out, const KnobKey& /*key*/) {
  const std::string_view text = parser.parse_number_text();
  if (parser.failed()) {
    return;
  }
  if (text.find_first_not_of("0123456789") != std::string_view::npos) {
    parser.fail("expected a non-negative integer");
    return;
  }
  T value{};
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    parser.fail("integer out of range");
    return;
  }
  out = value;
}

/// Reads the value of field `object.name` into `spec`; false when the
/// file format has no such field.
bool read_field(Parser& parser, ScenarioSpec& spec, std::string_view object,
                std::string_view name) {
  bool found = false;
  for_each_field(spec, [&](const KnobKey& key, auto& field) {
    if (!found && key.object == object && key.name == name) {
      found = true;
      read_value(parser, field, key);
    }
  });
  return found;
}

/// True when `name` is one of the file format's nested objects.
bool is_nested_object(const ScenarioSpec& spec, std::string_view name) {
  bool found = false;
  for_each_field(spec, [&](const KnobKey& key, const auto& /*field*/) {
    found = found || (!key.object.empty() && key.object == name);
  });
  return found;
}

/// Parses `{"key": value, ...}`, handing each key to read_member, which
/// returns false for a key it does not know. `object` names the enclosing
/// nested object (empty at top level) in errors and key contexts.
template <typename ReadMember>
void parse_members(Parser& parser, std::string_view object, ReadMember&& read_member) {
  const std::string scope = object.empty() ? std::string() : std::string(object) + " ";
  const std::string path = object.empty() ? std::string() : std::string(object) + ".";
  parser.expect('{');
  if (parser.failed() || parser.consume('}')) {
    return;
  }
  std::vector<std::string> seen;
  do {
    parser.set_context({});
    const std::string key = parser.parse_string();
    parser.expect(':');
    if (parser.failed()) {
      return;
    }
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      parser.fail("duplicate " + scope + "key '" + key + "'");
      return;
    }
    seen.push_back(key);
    parser.set_context(path + key);
    if (!read_member(key)) {
      parser.set_context({});
      parser.fail("unknown " + scope + "key '" + key + "'");
      return;
    }
  } while (!parser.failed() && parser.consume(','));
  if (!parser.failed()) {
    parser.set_context({});
    parser.expect('}');
  }
}

// --- writers -------------------------------------------------------------------

void write_string(std::string& out, std::string_view value) {
  out += '"';
  out += value;
  out += '"';
}

void write_value(std::string& out, const std::string& value) { write_string(out, value); }
void write_value(std::string& out, Workload value) { write_string(out, to_string(value)); }
void write_value(std::string& out, Transport value) { write_string(out, to_string(value)); }
void write_value(std::string& out, bool value) { out += value ? "true" : "false"; }

void write_value(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out += buffer;
}

template <std::integral T>
void write_value(std::string& out, T value) {
  out += std::to_string(value);
}

}  // namespace

std::string spec_to_json(const ScenarioSpec& spec) {
  std::string out = "{";
  std::string_view open;  // nested object being written; empty at top level
  for_each_field(spec, [&](const KnobKey& key, const auto& value) {
    if (!open.empty() && key.object == open) {
      out += ", ";
    } else {
      if (!open.empty()) {
        out += '}';
      }
      out += out.size() == 1 ? "\n  " : ",\n  ";
      if (!key.object.empty()) {
        write_string(out, key.object);
        out += ": {";
      }
      open = key.object;
    }
    write_string(out, key.name);
    out += ": ";
    write_value(out, value);
  });
  if (!open.empty()) {
    out += '}';
  }
  out += "\n}\n";
  return out;
}

std::optional<ScenarioSpec> spec_from_json(std::string_view text, std::string* error) {
  Parser parser(text);
  ScenarioSpec spec;
  parse_members(parser, {}, [&](const std::string& key) {
    if (!is_nested_object(spec, key)) {
      return read_field(parser, spec, {}, key);
    }
    parse_members(parser, key, [&](const std::string& member) {
      return read_field(parser, spec, key, member);
    });
    return true;
  });
  parser.set_context({});
  if (!parser.failed() && !parser.at_end()) {
    parser.fail("trailing content after the scenario object");
  }
  if (parser.failed()) {
    if (error != nullptr) {
      *error = parser.error();
    }
    return std::nullopt;
  }
  return spec;
}

}  // namespace dear::scenario
