// Flat JSON (de)serialization of ScenarioSpec — the file format consumed
// by `dear_lint --scenario` and emitted for reproducibility alongside
// analysis reports. No external JSON dependency: the format is one object
// with three nested objects ("sensor_faults", "service_faults", "retry"),
// read and written from the knob table (scenario/knobs.hpp) by a small
// recursive-descent reader. Unknown keys are rejected so a typo in a
// scenario file fails loudly instead of silently linting the defaults, and
// so are numbers a field cannot hold: counts, seeds and durations must be
// non-negative integer literals in the field's range, every number a
// finite JSON number, and probabilities must lie in [0, 1].
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "scenario/spec.hpp"

namespace dear::scenario {

/// Serializes every knob (durations in ns). Round-trips through
/// spec_from_json bit-exactly for the integer fields and to six
/// significant digits (%.6g) for the doubles.
[[nodiscard]] std::string spec_to_json(const ScenarioSpec& spec);

/// Parses a scenario file: fields default to ScenarioSpec{} values and
/// may be overridden individually. Returns std::nullopt and fills
/// `error` on malformed input or unknown keys.
[[nodiscard]] std::optional<ScenarioSpec> spec_from_json(std::string_view text,
                                                         std::string* error = nullptr);

}  // namespace dear::scenario
