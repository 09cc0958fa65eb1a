#include "obs/obs_cli.hpp"

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/obs.hpp"

namespace dear::obs {
namespace {

bool write_file(const std::string& path, const std::string& contents, const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s file %s\n", what, path.c_str());
    return false;
  }
  out << contents;
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace

void register_cli_options(common::Cli& cli) {
  cli.add_string("metrics-out", "", "write the metrics-report-v1 snapshot JSON to this file");
  cli.add_string("trace-out", "", "write the Chrome trace-event JSON to this file");
  cli.add_string("trace-categories", "default",
                 "span categories: default | all | none | csv of "
                 "campaign,scenario,tag,reaction");
}

bool configure_from_cli(const common::Cli& cli) {
  Registry& registry = Registry::instance();
  if (!cli.get_string("metrics-out").empty()) {
    registry.set_metrics_enabled(true);
  }
  if (!cli.get_string("trace-out").empty()) {
    std::uint32_t mask = kDefaultSpanMask;
    if (!parse_span_mask(cli.get_string("trace-categories"), mask)) {
      std::fprintf(stderr, "unknown --trace-categories '%s'\n",
                   cli.get_string("trace-categories").c_str());
      return false;
    }
    registry.set_span_mask(mask);
  }
  return true;
}

bool export_from_cli(const common::Cli& cli) {
  const std::string metrics_path = cli.get_string("metrics-out");
  const std::string trace_path = cli.get_string("trace-out");
  const Registry& registry = Registry::instance();
  if (!metrics_path.empty() &&
      !write_file(metrics_path, registry.snapshot().to_json(), "metrics report")) {
    return false;
  }
  if (!trace_path.empty() &&
      !write_file(trace_path, registry.chrome_trace_json(), "trace")) {
    return false;
  }
  return true;
}

}  // namespace dear::obs
