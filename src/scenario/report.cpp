#include "scenario/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/digest.hpp"

namespace dear::scenario {

namespace {

void append_format(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_format(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) {
    out.append(buffer, std::min(static_cast<std::size_t>(written), sizeof(buffer) - 1));
  }
}

/// Minimal JSON string escaping (names contain only [-/a-z0-9.] today,
/// but the report must not silently produce invalid JSON if that drifts).
[[nodiscard]] std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

}  // namespace

common::RunningStats CampaignReport::nondet_prevalence() const {
  common::RunningStats stats;
  for (const ScenarioResult& result : results) {
    if (result.spec.workload == Workload::kBrakeNondet) {
      stats.add(result.outcome.error_prevalence_percent());
    }
  }
  return stats;
}

std::uint64_t CampaignReport::report_digest() const {
  std::uint64_t digest = campaign_seed;
  for (const ScenarioResult& result : results) {
    common::mix_digest(digest, result.spec.index);
    common::mix_digest(digest, result.outcome.output_digest);
    common::mix_digest(digest, result.outcome.tag_digest);
    common::mix_digest(digest, result.outcome.samples_in);
    common::mix_digest(digest, result.outcome.samples_out);
    common::mix_digest(digest, result.outcome.app_errors);
    common::mix_digest(digest, result.outcome.protocol_errors);
    common::mix_digest(digest, result.outcome.wrong_outputs);
  }
  common::mix_digest(digest, violations.size());
  return digest;
}

std::string CampaignReport::to_json() const {
  std::string out;
  out.reserve(512 + results.size() * 384);
  out += "{\n";
  append_format(out, "  \"campaign\": \"%s\",\n", json_escape(name).c_str());
  append_format(out, "  \"campaign_seed\": %" PRIu64 ",\n", campaign_seed);
  append_format(out, "  \"workers\": %zu,\n", workers);
  append_format(out, "  \"scenario_count\": %zu,\n", results.size());
  append_format(out, "  \"wall_seconds\": %.3f,\n", wall_seconds);
  append_format(out, "  \"scenarios_per_second\": %.2f,\n", scenarios_per_second());
  append_format(out, "  \"determinism_groups\": %zu,\n", determinism_groups);
  append_format(out, "  \"determinism_checked_runs\": %zu,\n", determinism_checked_runs);
  append_format(out, "  \"report_digest\": \"%016" PRIx64 "\",\n", report_digest());
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    append_format(out, "%s\"%s\"", i == 0 ? "" : ", ", json_escape(violations[i]).c_str());
  }
  out += "],\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& row = results[i];
    const RunOutcome& o = row.outcome;
    out += "    {";
    append_format(out, "\"index\": %" PRIu64 ", ", row.spec.index);
    append_format(out, "\"name\": \"%s\", ", json_escape(row.spec.name).c_str());
    append_format(out, "\"workload\": \"%s\", ",
                  std::string(to_string(row.spec.workload)).c_str());
    append_format(out, "\"transport\": \"%s\", ",
                  std::string(to_string(row.spec.transport)).c_str());
    append_format(out, "\"platform_seed\": %" PRIu64 ", ", row.spec.platform_seed);
    append_format(out, "\"sensor_seed\": %" PRIu64 ", ", row.spec.sensor_seed);
    append_format(out, "\"samples_in\": %" PRIu64 ", ", o.samples_in);
    append_format(out, "\"samples_out\": %" PRIu64 ", ", o.samples_out);
    append_format(out, "\"app_errors\": %" PRIu64 ", ", o.app_errors);
    append_format(out, "\"protocol_errors\": %" PRIu64 ", ", o.protocol_errors);
    append_format(out, "\"wrong_outputs\": %" PRIu64 ", ", o.wrong_outputs);
    append_format(out, "\"sensor_faults\": %" PRIu64 ", ", o.sensor_faults_injected);
    append_format(out, "\"ft_crash_drops\": %" PRIu64 ", ", o.ft.crash_drops);
    append_format(out, "\"ft_call_faults\": %" PRIu64 ", ", o.ft.call_faults);
    append_format(out, "\"ft_retries\": %" PRIu64 ", ", o.ft.retries);
    append_format(out, "\"ft_degraded_ticks\": %" PRIu64 ", ", o.ft.degraded_ticks);
    append_format(out, "\"ft_failovers\": %" PRIu64 ", ", o.ft.failovers);
    append_format(out, "\"error_prevalence_percent\": %.4f, ", o.error_prevalence_percent());
    append_format(out, "\"output_digest\": \"%016" PRIx64 "\", ", o.output_digest);
    append_format(out, "\"tag_digest\": \"%016" PRIx64 "\", ", o.tag_digest);
    append_format(out, "\"latency_mean_ns\": %.0f, ", o.latency_mean_ns);
    append_format(out, "\"latency_max_ns\": %.0f, ", o.latency_max_ns);
    append_format(out, "\"deadline_violations\": %" PRIu64 ", ", o.deadline_violations);
    append_format(out, "\"deterministic_group\": %s, ",
                  row.determinism_checked ? "true" : "false");
    if (row.timing.evaluated) {
      append_format(out, "\"predicted_deadline_miss\": %s, ",
                    row.timing.predicted_deadline_miss ? "true" : "false");
      append_format(out, "\"chain_latency_max_ns\": %" PRId64 ", ",
                    row.timing.chain_latency_max_ns);
      append_format(out, "\"chain_budget_ns\": %" PRId64 ", ", row.timing.chain_budget_ns);
      append_format(out, "\"budget_exceeded\": %s, ",
                    row.timing.budget_exceeded ? "true" : "false");
    }
    if (row.obs.sampled) {
      append_format(out, "\"obs\": {\"worker\": %u, \"sim_events\": %" PRIu64
                         ", \"net_packets\": %" PRIu64 ", \"net_drops\": %" PRIu64
                         ", \"net_dups\": %" PRIu64 ", \"msgs_sent\": %" PRIu64
                         ", \"msgs_received\": %" PRIu64 ", \"wire_bytes\": %" PRIu64
                         ", \"shelf_locks\": %" PRIu64 "}, ",
                    row.obs.worker, row.obs.sim_events, row.obs.net_packets, row.obs.net_drops,
                    row.obs.net_dups, row.obs.msgs_sent, row.obs.msgs_received,
                    row.obs.wire_bytes, row.obs.shelf_locks);
    }
    append_format(out, "\"wall_seconds\": %.4f", row.wall_seconds);
    out += i + 1 < results.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string CampaignReport::to_table() const {
  std::string out;
  out.reserve(256 + results.size() * 160);
  append_format(out, "campaign '%s': %zu scenarios, %zu workers, %.2fs (%.1f scenarios/s)\n",
                name.c_str(), results.size(), workers, wall_seconds, scenarios_per_second());
  append_format(out, "  %-5s %-44s %9s %9s %8s %8s %8s %9s %16s\n", "#", "scenario", "in", "out",
                "appErr", "protoErr", "wrong", "prev(%)", "outputDigest");
  for (const ScenarioResult& row : results) {
    const RunOutcome& o = row.outcome;
    std::string label = row.spec.name;
    if (label.size() > 44) {
      label.resize(44);
    }
    append_format(out, "  %-5" PRIu64 " %-44s %9" PRIu64 " %9" PRIu64 " %8" PRIu64 " %8" PRIu64
                       " %8" PRIu64 " %9.3f %016" PRIx64 "%s\n",
                  row.spec.index, label.c_str(), o.samples_in, o.samples_out, o.app_errors,
                  o.protocol_errors, o.wrong_outputs, o.error_prevalence_percent(),
                  o.output_digest, row.determinism_checked ? " *" : "");
  }
  // Static-vs-dynamic timing cross-check: the analyzer's predicted worst
  // chain latency next to the latency the run actually observed, one row
  // per timing-annotated scenario with latency tracking.
  bool timing_header = false;
  for (const ScenarioResult& row : results) {
    if (!row.timing.evaluated || row.outcome.latency_max_ns <= 0.0) {
      continue;
    }
    if (!timing_header) {
      append_format(out, "  %-5s %-44s %14s %14s %9s\n", "#", "timing (static vs observed)",
                    "predicted_ns", "observed_ns", "ratio");
      timing_header = true;
    }
    const double predicted = static_cast<double>(row.timing.chain_latency_max_ns);
    append_format(out, "  %-5" PRIu64 " %-44s %14" PRId64 " %14.0f %9.2f\n", row.spec.index,
                  row.spec.name.size() > 44 ? row.spec.name.substr(0, 44).c_str()
                                            : row.spec.name.c_str(),
                  row.timing.chain_latency_max_ns, row.outcome.latency_max_ns,
                  predicted > 0.0 ? row.outcome.latency_max_ns / predicted : 0.0);
  }
  const common::RunningStats nondet = nondet_prevalence();
  if (nondet.count() > 0) {
    append_format(out,
                  "  nondet error prevalence over %" PRIu64
                  " runs: min %.3f%%  mean %.3f%%  max %.3f%%\n",
                  nondet.count(), nondet.min(), nondet.mean(), nondet.max());
  }
  append_format(out, "  determinism: %zu runs in %zu digest groups, %zu violation(s)\n",
                determinism_checked_runs, determinism_groups, violations.size());
  for (const std::string& violation : violations) {
    append_format(out, "  VIOLATION: %s\n", violation.c_str());
  }
  append_format(out, "  report digest: %016" PRIx64 "  (* = digest-invariance checked)\n",
                report_digest());
  return out;
}

}  // namespace dear::scenario
