#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/stats.hpp"

namespace dear::bench {

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

Harness::Harness(std::string name, std::string summary)
    : name_(std::move(name)), cli_(name_, std::move(summary)) {
  cli_.add_string("json", "", "write the dear-bench-v1 JSON report to this file");
  cli_.add_int("warmup", 3, "untimed runs per case before measurement");
  cli_.add_int("repeats", 20, "timed runs per case");
  cli_.add_flag("quick", "trim workloads to smoke-test size (ctest/CI)");
}

bool Harness::parse(int argc, const char* const* argv) {
  if (!cli_.parse(argc, argv)) {
    return false;
  }
  warmup_ = cli_.get_int("warmup");
  repeats_ = std::max<std::uint64_t>(cli_.get_int("repeats"), 1);
  quick_ = cli_.get_flag("quick");
  if (quick_) {
    warmup_ = std::min<std::uint64_t>(warmup_, 1);
    repeats_ = std::min<std::uint64_t>(repeats_, 5);
  }
  return true;
}

CaseResult& Harness::measure(const std::string& name, std::uint64_t ops_per_call,
                             const std::function<void()>& fn) {
  for (std::uint64_t i = 0; i < warmup_; ++i) {
    fn();
  }
  std::vector<double> samples;
  samples.reserve(repeats_);
  for (std::uint64_t i = 0; i < repeats_; ++i) {
    const double start = now_ns();
    fn();
    samples.push_back((now_ns() - start) / static_cast<double>(std::max<std::uint64_t>(
                                               ops_per_call, 1)));
  }
  CaseResult& result = record(name, samples);
  result.iterations = repeats_ * ops_per_call;
  return result;
}

CaseResult& Harness::record(const std::string& name, const std::vector<double>& samples_ns,
                            double throughput_per_s) {
  common::QuantileSketch sketch;
  double sum = 0.0;
  for (const double sample : samples_ns) {
    sketch.add(sample);
    sum += sample;
  }
  CaseResult result;
  result.name = name;
  result.iterations = samples_ns.size();
  if (!samples_ns.empty()) {
    result.p50_ns = sketch.quantile(0.50);
    result.p99_ns = sketch.quantile(0.99);
    result.mean_ns = sum / static_cast<double>(samples_ns.size());
  }
  result.throughput_per_s =
      throughput_per_s > 0.0
          ? throughput_per_s
          : (result.mean_ns > 0.0 ? 1e9 / result.mean_ns : 0.0);
  cases_.push_back(std::move(result));
  return cases_.back();
}

void Harness::gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back(GateResult{name, ok, false, detail});
}

void Harness::gate_skipped(const std::string& name, const std::string& detail) {
  gates_.push_back(GateResult{name, true, true, detail});
}

namespace {

void json_escape_into(std::string& out, const std::string& in) {
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

void json_number_into(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no inf/nan; null keeps the document valid
    return;
  }
  char buffer[64];
  // %.17g round-trips doubles; integral in-range values print without a
  // fraction. The range check precedes the cast (out-of-range
  // double->long long is undefined behavior).
  if (value > -1e15 && value < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  out += buffer;
}

}  // namespace

bool Harness::write_json(const std::string& path) const {
  std::string out;
  out += "{\n  \"schema\": \"dear-bench-v1\",\n  \"bench\": \"";
  json_escape_into(out, name_);
  out += "\",\n  \"quick\": ";
  out += quick_ ? "true" : "false";
  out += ",\n  \"host_cores\": ";
  json_number_into(out, static_cast<double>(std::thread::hardware_concurrency()));
  out += ",\n  \"results\": [";
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const CaseResult& c = cases_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    json_escape_into(out, c.name);
    out += "\", \"iterations\": ";
    json_number_into(out, static_cast<double>(c.iterations));
    out += ", \"p50_ns\": ";
    json_number_into(out, c.p50_ns);
    out += ", \"p99_ns\": ";
    json_number_into(out, c.p99_ns);
    out += ", \"mean_ns\": ";
    json_number_into(out, c.mean_ns);
    out += ", \"throughput_per_s\": ";
    json_number_into(out, c.throughput_per_s);
    out += ", \"counters\": {";
    for (std::size_t k = 0; k < c.counters.size(); ++k) {
      out += k == 0 ? "" : ", ";
      out += "\"";
      json_escape_into(out, c.counters[k].first);
      out += "\": ";
      json_number_into(out, c.counters[k].second);
    }
    out += "}}";
  }
  out += "\n  ],\n  \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const GateResult& g = gates_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    json_escape_into(out, g.name);
    out += "\", \"ok\": ";
    out += g.ok ? "true" : "false";
    out += ", \"skipped\": ";
    out += g.skipped ? "true" : "false";
    out += ", \"detail\": \"";
    json_escape_into(out, g.detail);
    out += "\"}";
  }
  out += "\n  ],\n  \"all_gates_ok\": ";
  out += std::all_of(gates_.begin(), gates_.end(),
                     [](const GateResult& g) { return g.ok; })
             ? "true"
             : "false";
  out += "\n}\n";

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.flush();
  if (!file) {
    std::fprintf(stderr, "%s: cannot write JSON report to '%s'\n", name_.c_str(), path.c_str());
    return false;
  }
  return true;
}

int Harness::finish() {
  std::printf("\n%s (%s mode, warmup %llu, repeats %llu)\n", name_.c_str(),
              quick_ ? "quick" : "full", static_cast<unsigned long long>(warmup_),
              static_cast<unsigned long long>(repeats_));
  std::printf("  %-44s %12s %12s %12s %16s\n", "case", "p50(ns)", "p99(ns)", "mean(ns)",
              "ops/s");
  for (const CaseResult& c : cases_) {
    std::printf("  %-44s %12.1f %12.1f %12.1f %16.0f\n", c.name.c_str(), c.p50_ns, c.p99_ns,
                c.mean_ns, c.throughput_per_s);
  }

  bool all_ok = true;
  for (const GateResult& g : gates_) {
    std::printf("  gate %-39s %s  %s\n", g.name.c_str(),
                g.skipped ? "SKIP" : (g.ok ? "PASS" : "FAIL"), g.detail.c_str());
    all_ok = all_ok && g.ok;
  }

  std::string path = cli_.get_string("json");
  if (path.empty()) {
    path = default_json_path_;
  }
  if (!path.empty()) {
    // A missing report is a failure in its own right: the JSON artifact is
    // what CI uploads and what makes the perf trajectory diffable.
    if (write_json(path)) {
      std::printf("  json report: %s\n", path.c_str());
    } else {
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace dear::bench
