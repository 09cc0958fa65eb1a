// ScenarioSpec JSON round-trip — the dear_lint --scenario file format.
#include "scenario/spec_json.hpp"

#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <string>

namespace dear::scenario {
namespace {

using namespace dear::literals;

/// A spec with every knob moved off its default.
ScenarioSpec every_knob_spec() {
  ScenarioSpec spec;
  spec.index = 42;
  spec.name = "round-trip";
  spec.workload = Workload::kAcc;
  spec.transport = Transport::kLocal;
  spec.frames = 1234;
  spec.platform_seed = 77;
  spec.sensor_seed = 88;
  spec.clock_drift_ppm = 12.5;
  spec.svc_latency_min = 10_us;
  spec.svc_latency_max = 3_ms;
  spec.net_drop_probability = 0.125;
  spec.net_duplicate_probability = 0.25;
  spec.net_in_order = true;
  spec.exec_time_scale = 1.5;
  spec.deadline_scale = 0.75;
  spec.sensor_faults.drop_probability = 0.01;
  spec.sensor_faults.stuck_probability = 0.02;
  spec.sensor_faults.noise_probability = 0.03;
  spec.service_faults.crash_at = 1000_ms;
  spec.service_faults.restart_after = 500_ms;
  spec.service_faults.call_error_probability = 0.02;
  spec.service_faults.call_omission_probability = 0.03;
  spec.service_faults.churn_period = 200_ms;
  spec.retry.max_attempts = 3;
  spec.retry.backoff_base = 6_ms;
  spec.retry.timeout = 5_ms;
  spec.fault_seed = 99;
  spec.camera_payload_bytes = 1024 * 1024;
  return spec;
}

TEST(SpecJson, RoundTripsEveryKnob) {
  const ScenarioSpec spec = every_knob_spec();
  std::string error;
  const auto parsed = spec_from_json(spec_to_json(spec), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->index, spec.index);
  EXPECT_EQ(parsed->name, spec.name);
  EXPECT_EQ(parsed->workload, spec.workload);
  EXPECT_EQ(parsed->transport, spec.transport);
  EXPECT_EQ(parsed->frames, spec.frames);
  EXPECT_EQ(parsed->platform_seed, spec.platform_seed);
  EXPECT_EQ(parsed->sensor_seed, spec.sensor_seed);
  EXPECT_DOUBLE_EQ(parsed->clock_drift_ppm, spec.clock_drift_ppm);
  EXPECT_EQ(parsed->svc_latency_min, spec.svc_latency_min);
  EXPECT_EQ(parsed->svc_latency_max, spec.svc_latency_max);
  EXPECT_DOUBLE_EQ(parsed->net_drop_probability, spec.net_drop_probability);
  EXPECT_DOUBLE_EQ(parsed->net_duplicate_probability, spec.net_duplicate_probability);
  EXPECT_EQ(parsed->net_in_order, spec.net_in_order);
  EXPECT_DOUBLE_EQ(parsed->exec_time_scale, spec.exec_time_scale);
  EXPECT_DOUBLE_EQ(parsed->deadline_scale, spec.deadline_scale);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.drop_probability, spec.sensor_faults.drop_probability);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.stuck_probability, spec.sensor_faults.stuck_probability);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.noise_probability, spec.sensor_faults.noise_probability);
  EXPECT_EQ(parsed->service_faults, spec.service_faults);
  EXPECT_EQ(parsed->retry, spec.retry);
  EXPECT_EQ(parsed->fault_seed, spec.fault_seed);
  EXPECT_EQ(parsed->camera_payload_bytes, spec.camera_payload_bytes);
}

// --- golden output: the file format is pinned byte for byte -----------------
// Key order, %.6g doubles and one-line nested objects are part of the
// format; a change here breaks every scenario file already written.

TEST(SpecJson, GoldenOutputOfEveryKnobSpec) {
  EXPECT_EQ(spec_to_json(every_knob_spec()), R"({
  "name": "round-trip",
  "index": 42,
  "workload": "acc",
  "transport": "local",
  "frames": 1234,
  "platform_seed": 77,
  "sensor_seed": 88,
  "clock_drift_ppm": 12.5,
  "svc_latency_min_ns": 10000,
  "svc_latency_max_ns": 3000000,
  "net_drop_probability": 0.125,
  "net_duplicate_probability": 0.25,
  "net_in_order": true,
  "exec_time_scale": 1.5,
  "deadline_scale": 0.75,
  "sensor_faults": {"drop_probability": 0.01, "stuck_probability": 0.02, "noise_probability": 0.03},
  "service_faults": {"crash_at_ns": 1000000000, "restart_after_ns": 500000000, "call_error_probability": 0.02, "call_omission_probability": 0.03, "churn_period_ns": 200000000},
  "retry": {"max_attempts": 3, "backoff_base_ns": 6000000, "timeout_ns": 5000000},
  "fault_seed": 99,
  "camera_payload_bytes": 1048576
}
)");
}

TEST(SpecJson, GoldenOutputOfDefaultSpec) {
  EXPECT_EQ(spec_to_json(ScenarioSpec{}), R"({
  "name": "",
  "index": 0,
  "workload": "dear",
  "transport": "someip",
  "frames": 2000,
  "platform_seed": 1,
  "sensor_seed": 5000,
  "clock_drift_ppm": 30,
  "svc_latency_min_ns": 5000,
  "svc_latency_max_ns": 50000,
  "net_drop_probability": 0,
  "net_duplicate_probability": 0,
  "net_in_order": false,
  "exec_time_scale": 1,
  "deadline_scale": 1,
  "sensor_faults": {"drop_probability": 0, "stuck_probability": 0, "noise_probability": 0},
  "service_faults": {"crash_at_ns": 0, "restart_after_ns": 0, "call_error_probability": 0, "call_omission_probability": 0, "churn_period_ns": 0},
  "retry": {"max_attempts": 0, "backoff_base_ns": 0, "timeout_ns": 0},
  "fault_seed": 1,
  "camera_payload_bytes": 0
}
)");
}

// --- the knob table drives both directions -----------------------------------

/// Moves one knob off its current value to one the file format keeps
/// exactly (integers bit-exact, doubles within %.6g).
struct MoveOffDefault {
  void operator()(const KnobKey& /*key*/, bool& value) const { value = !value; }
  void operator()(const KnobKey& /*key*/, Transport& value) const {
    value = value == Transport::kSomeIp ? Transport::kLocal : Transport::kSomeIp;
  }
  void operator()(const KnobKey& key, double& value) const {
    value = key.probability ? (value == 0.375 ? 0.625 : 0.375) : value + 2.5;
  }
  template <std::integral T>
  void operator()(const KnobKey& /*key*/, T& value) const {
    value += 17;
  }
};

TEST(SpecJson, EveryTableKnobRoundTripsOffItsDefault) {
  const ScenarioSpec defaults;
  std::size_t knobs = 0;
  for_each_knob(defaults, [&knobs](const KnobKey& /*key*/, const auto& /*field*/) { ++knobs; });
  ASSERT_GT(knobs, 0u);

  // One knob at a time: each is part of operator== and survives the file.
  for (std::size_t i = 0; i < knobs; ++i) {
    ScenarioSpec spec;
    std::string name;
    std::size_t at = 0;
    for_each_knob(spec, [&](const KnobKey& key, auto& field) {
      if (at++ == i) {
        MoveOffDefault{}(key, field);
        name = std::string(key.object) + "/" + std::string(key.name);
      }
    });
    EXPECT_NE(spec, defaults) << name;
    std::string error;
    const auto parsed = spec_from_json(spec_to_json(spec), &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    EXPECT_EQ(*parsed, spec) << name;
  }

  // All knobs at once.
  ScenarioSpec spec;
  spec.index = 3;
  spec.name = "all-knobs";
  spec.workload = Workload::kBrakeNondet;
  for_each_knob(spec, MoveOffDefault{});
  const auto parsed = spec_from_json(spec_to_json(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

TEST(SpecJson, IntegersRoundTripExactlyAcrossTheirWholeRange) {
  ScenarioSpec spec;
  spec.platform_seed = 0xfedcba9876543211ULL;  // not representable as a double
  spec.sensor_seed = 18446744073709551615ULL;
  spec.svc_latency_max = 9223372036854775807LL;
  spec.retry.max_attempts = 4294967295U;
  const auto parsed = spec_from_json(spec_to_json(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

// --- hostile numbers: the parser reads files from outside the program -------

TEST(SpecJson, HostileNumbersAreRejectedNamingTheKey) {
  struct Case {
    const char* json;
    const char* key;
    const char* reason;
  };
  const Case cases[] = {
      {R"({"frames": -1})", "key 'frames'", "expected a non-negative integer"},
      {R"({"retry": {"max_attempts": -3}})", "key 'retry.max_attempts'",
       "expected a non-negative integer"},
      {R"({"frames": 2.5})", "key 'frames'", "expected a non-negative integer"},
      {R"({"frames": 0x10})", "key 'frames'", "malformed number"},
      {R"({"net_drop_probability": nan})", "key 'net_drop_probability'", "expected number"},
      {R"({"net_drop_probability": 7})", "key 'net_drop_probability'",
       "probability must lie in [0, 1]"},
      {R"({"frames": 1e3})", "key 'frames'", "expected a non-negative integer"},
      {R"({"frames": +5})", "key 'frames'", "expected number"},
      {R"({"frames": 010})", "key 'frames'", "malformed number"},
      {R"({"frames": 18446744073709551616})", "key 'frames'", "integer out of range"},
      {R"({"retry": {"max_attempts": 4294967296}})", "key 'retry.max_attempts'",
       "integer out of range"},
      {R"({"svc_latency_max_ns": 9223372036854775808})", "key 'svc_latency_max_ns'",
       "integer out of range"},
      {R"({"service_faults": {"crash_at_ns": -1000}})", "key 'service_faults.crash_at_ns'",
       "expected a non-negative integer"},
      {R"({"clock_drift_ppm": 1e400})", "key 'clock_drift_ppm'", "number out of range"},
      {R"({"deadline_scale": inf})", "key 'deadline_scale'", "expected number"},
      {R"({"exec_time_scale": -Infinity})", "key 'exec_time_scale'", "expected number"},
      {R"({"exec_time_scale": 1.})", "key 'exec_time_scale'", "malformed number"},
      {R"({"sensor_faults": {"drop_probability": -0.5}})", "key 'sensor_faults.drop_probability'",
       "probability must lie in [0, 1]"},
      {R"({"service_faults": {"call_error_probability": 1.5}})",
       "key 'service_faults.call_error_probability'", "probability must lie in [0, 1]"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(spec_from_json(c.json, &error).has_value()) << c.json;
    EXPECT_NE(error.find(c.key), std::string::npos) << c.json << " -> " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.json << " -> " << error;
  }
}

TEST(SpecJson, NumbersAtTheEdgesOfTheirRangeAreAccepted) {
  const auto parsed = spec_from_json(
      R"({"frames": 0, "net_drop_probability": 1, "net_duplicate_probability": 0,
          "clock_drift_ppm": -12.5e-1, "deadline_scale": 2E+0,
          "sensor_faults": {"noise_probability": 1.0e-3}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frames, 0u);
  EXPECT_DOUBLE_EQ(parsed->net_drop_probability, 1.0);
  EXPECT_DOUBLE_EQ(parsed->clock_drift_ppm, -1.25);
  EXPECT_DOUBLE_EQ(parsed->deadline_scale, 2.0);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.noise_probability, 0.001);
}

TEST(SpecJson, CameraPayloadBytesParsesAndRejectsWrongTypes) {
  const auto parsed = spec_from_json(R"({"camera_payload_bytes": 65536})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->camera_payload_bytes, 65536u);
  EXPECT_EQ(ScenarioSpec{}.camera_payload_bytes, 0u);  // idle default

  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"camera_payload_bytes": "lots"})", &error).has_value());
  EXPECT_NE(error.find("key 'camera_payload_bytes'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected number"), std::string::npos) << error;
  // Misspelled key: rejected like any other unknown key, named in the error.
  EXPECT_FALSE(spec_from_json(R"({"camera_payload_byte": 1})", &error).has_value());
  EXPECT_NE(error.find("camera_payload_byte"), std::string::npos) << error;
}

TEST(SpecJson, OmittedFieldsKeepDefaults) {
  const auto parsed = spec_from_json(R"({"workload": "nondet", "frames": 10})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workload, Workload::kBrakeNondet);
  EXPECT_EQ(parsed->frames, 10U);
  const ScenarioSpec defaults;
  EXPECT_EQ(parsed->transport, defaults.transport);
  EXPECT_EQ(parsed->platform_seed, defaults.platform_seed);
  EXPECT_DOUBLE_EQ(parsed->deadline_scale, defaults.deadline_scale);
}

TEST(SpecJson, EmptyObjectIsTheDefaultSpec) {
  const auto parsed = spec_from_json("{}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workload, ScenarioSpec{}.workload);
}

TEST(SpecJson, UnknownKeyIsRejected) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"frmes": 10})", &error).has_value());
  EXPECT_NE(error.find("frmes"), std::string::npos);
}

TEST(SpecJson, UnknownEnumValueIsRejected) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"workload": "bogus"})", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(spec_from_json(R"({"transport": "carrier-pigeon"})").has_value());
}

TEST(SpecJson, MalformedInputIsRejected) {
  EXPECT_FALSE(spec_from_json("").has_value());
  EXPECT_FALSE(spec_from_json("{").has_value());
  EXPECT_FALSE(spec_from_json(R"({"frames": })").has_value());
  EXPECT_FALSE(spec_from_json(R"({"frames": 1} trailing)").has_value());
  EXPECT_FALSE(spec_from_json(R"({"name": "unterminated)").has_value());
}

// --- error paths: the message must name the offending key ------------------

TEST(SpecJson, WrongTypedFieldNamesTheKey) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"frames": "ten"})", &error).has_value());
  EXPECT_NE(error.find("key 'frames'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected number"), std::string::npos) << error;

  EXPECT_FALSE(spec_from_json(R"({"name": 5})", &error).has_value());
  EXPECT_NE(error.find("key 'name'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected string"), std::string::npos) << error;

  EXPECT_FALSE(spec_from_json(R"({"net_in_order": 1})", &error).has_value());
  EXPECT_NE(error.find("key 'net_in_order'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected boolean"), std::string::npos) << error;
}

TEST(SpecJson, WrongTypedNestedFieldNamesThePath) {
  std::string error;
  EXPECT_FALSE(
      spec_from_json(R"({"sensor_faults": {"drop_probability": "lots"}})", &error).has_value());
  EXPECT_NE(error.find("sensor_faults.drop_probability"), std::string::npos) << error;
}

TEST(SpecJson, DuplicateKeyIsRejected) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"frames": 1, "frames": 2})", &error).has_value());
  EXPECT_NE(error.find("duplicate key 'frames'"), std::string::npos) << error;
}

TEST(SpecJson, DuplicateSensorFaultsKeyIsRejected) {
  std::string error;
  EXPECT_FALSE(spec_from_json(
                   R"({"sensor_faults": {"drop_probability": 0.1, "drop_probability": 0.2}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate sensor_faults key 'drop_probability'"), std::string::npos)
      << error;
}

TEST(SpecJson, ErrorsReportTheOffset) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"frames": })", &error).has_value());
  EXPECT_NE(error.find("at offset"), std::string::npos) << error;
}

TEST(SpecJson, NestedServiceFaultsAndRetryParse) {
  const auto parsed = spec_from_json(
      R"({"service_faults": {"crash_at_ns": 1000000, "churn_period_ns": 2000000},
          "retry": {"max_attempts": 2, "timeout_ns": 5000000}, "fault_seed": 7})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->service_faults.crash_at, 1_ms);
  EXPECT_EQ(parsed->service_faults.restart_after, 0);
  EXPECT_EQ(parsed->service_faults.churn_period, 2_ms);
  EXPECT_EQ(parsed->retry.max_attempts, 2u);
  EXPECT_EQ(parsed->retry.backoff_base, 0);
  EXPECT_EQ(parsed->retry.timeout, 5_ms);
  EXPECT_EQ(parsed->fault_seed, 7u);
}

TEST(SpecJson, UnknownServiceFaultsOrRetryKeyIsRejected) {
  std::string error;
  EXPECT_FALSE(spec_from_json(R"({"service_faults": {"crash_time": 1}})", &error).has_value());
  EXPECT_NE(error.find("unknown service_faults key 'crash_time'"), std::string::npos) << error;
  EXPECT_FALSE(spec_from_json(R"({"retry": {"attempts": 3}})", &error).has_value());
  EXPECT_NE(error.find("unknown retry key 'attempts'"), std::string::npos) << error;
}

TEST(SpecJson, NestedSensorFaultsParse) {
  const auto parsed = spec_from_json(
      R"({"sensor_faults": {"drop_probability": 0.5, "noise_probability": 0.25}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.drop_probability, 0.5);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.stuck_probability, 0.0);
  EXPECT_DOUBLE_EQ(parsed->sensor_faults.noise_probability, 0.25);
}

}  // namespace
}  // namespace dear::scenario
