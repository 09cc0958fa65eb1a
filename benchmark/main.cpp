// dear_e2e — end-to-end benchmark: command line, sampling loop, output.
//
//   dear_e2e --workload W [--seed S] [--seconds T] [--samples N] [--traced]
//            [--out R.json] [--trace-out T.json] [--expect-digest HEX]
//
// Untraced runs time samples of the workload with observability off:
// five warm-up samples, then steps of {set-up batch, timed sample,
// calibration kernel} until T seconds have passed (and at least ten
// samples ran, unless --samples caps them). They report the end-to-end
// metrics, each step's times divided by the host's speed as the
// calibration kernel measured it (calibration.cpp); the raw wall-clock
// medians print alongside.
//
// --traced runs 30 (or N) rounds of {untraced sample, sample with obs
// metrics and the default span mask on, same-input sample of the other
// brake pipeline}, then the parallel-scaling pairs, then times every
// layer's public functions from outside for the rest of T. It reports the
// per-layer work counts, call costs, ledger and ratios.
//
// Every metric prints as `name workload value unit`; the correctness
// checks make the exit status (nonzero when any operation failed).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hpp"
#include "obs/obs.hpp"

namespace dear::e2e {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Kept here rather than taken from common/stats: the benchmark must not
// move when the repository folds its statistics helpers.
Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) {
    return q;
  }
  std::sort(values.begin(), values.end());
  const auto at = [&values](double fraction) {
    const double position = fraction * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double weight = position - static_cast<double>(lower);
    return values[lower] + (values[upper] - values[lower]) * weight;
  };
  q.p25 = at(0.25);
  q.p50 = at(0.50);
  q.p75 = at(0.75);
  q.p90 = at(0.90);
  return q;
}

namespace {

constexpr std::uint64_t kWarmupSamples = 5;
constexpr std::size_t kMinSamples = 10;
constexpr std::size_t kTracedRounds = 30;
constexpr std::size_t kScalingPairs = 5;
constexpr std::size_t kMaxWorkers = 4;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  std::size_t samples{0};
  bool traced{false};
  std::string out_path;
  std::string trace_path;
  std::uint64_t expected_digest{0};
};

void usage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: dear_e2e --workload W [--seed S] [--seconds T] [--samples N] [--traced]\n"
               "                [--out R.json] [--trace-out T.json] [--expect-digest HEX]\n"
               "workloads: dear-someip dear-local-1mib nondet-someip campaign-fault-sweep\n"
               "(benchmark/README.md describes them and every metric)\n");
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out) && out >= 0.0;
}

bool parse_unsigned(const char* text, int base, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, base);
  return end != text && *end == '\0' && text[0] != '-';
}

/// Returns 0 on success, 1 for --help, 2 on a usage error.
int parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 1;
    }
    if (flag == "--traced") {
      options.traced = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dear_e2e: %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = parse_unsigned(value, 10, options.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, options.seconds);
    } else if (flag == "--samples") {
      ok = parse_unsigned(value, 10, number);
      options.samples = static_cast<std::size_t>(number);
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--expect-digest") {
      ok = parse_unsigned(value, 16, options.expected_digest) && options.expected_digest != 0;
    } else {
      std::fprintf(stderr, "dear_e2e: unknown flag %s\n", flag.c_str());
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "dear_e2e: bad value for %s: %s\n", flag.c_str(), value);
      return 2;
    }
  }
  if (options.workload.empty()) {
    std::fprintf(stderr, "dear_e2e: --workload is required\n");
    usage(stderr);
    return 2;
  }
  return 0;
}

/// Cores this process may run on (what `nproc` prints).
std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this program image. VmHWM, not ru_maxrss: Linux
/// carries ru_maxrss across execve, so it would report the launching
/// process's peak when that one was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::array<std::uint64_t, obs::kCounterCount> counters_now() {
  return obs::Registry::instance().snapshot().counters;
}

/// Observability switch for the traced samples. Benchmark-side spans use
/// the campaign category, which stays on for the whole run when a trace
/// file is requested.
void set_observing(bool on, bool keep_spans) {
  obs::Registry& registry = obs::Registry::instance();
  registry.set_metrics_enabled(on);
  const std::uint32_t base = keep_spans ? obs::category_bit(obs::SpanCategory::kCampaign) : 0;
  registry.set_span_mask(on ? (obs::kDefaultSpanMask | base) : base);
}

WorkCounts work_counts(const std::array<std::uint64_t, obs::kCounterCount>& delta,
                       double frames, double scenarios) {
  const auto c = [&delta](obs::Counter counter) {
    return static_cast<double>(delta[static_cast<std::size_t>(counter)]);
  };
  WorkCounts counts;
  counts.frames = frames;
  counts.scenarios = scenarios;
  counts.sim_events = c(obs::Counter::kSimEventsProcessed);
  counts.tags = c(obs::Counter::kSchedTagsProcessed);
  counts.reactions = c(obs::Counter::kSchedReactionsExecuted);
  counts.someip_msgs = c(obs::Counter::kSomeipMsgsSent);
  counts.someip_bytes = c(obs::Counter::kSomeipBytesSent);
  counts.someip_tagged = c(obs::Counter::kSomeipTaggedSent);
  counts.local_msgs = c(obs::Counter::kLocalMsgsSent);
  counts.local_tagged = c(obs::Counter::kLocalTaggedSent);
  counts.net_packets = c(obs::Counter::kNetPacketsSent);
  counts.net_delivered = c(obs::Counter::kNetPacketsDelivered);
  counts.dedup_hits = c(obs::Counter::kSomeipDedupHits);
  counts.shelf_locks =
      c(obs::Counter::kPoolSmallShelfLocks) + c(obs::Counter::kPoolBufferShelfLocks);
  counts.slab_loans = c(obs::Counter::kPoolSlabLoans);
  counts.slab_hits = c(obs::Counter::kPoolSlabShelfHits);
  return counts;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

class Run {
 public:
  Run(const Options& options, Workload& workload, std::size_t cores, std::size_t workers)
      : options_(options), workload_(workload), cores_(cores), workers_(workers) {}

  /// Each step is a set-up batch, a timed sample and a calibration run;
  /// the reported times are host-normalized step by step (raw values are
  /// reported alongside).
  void untraced() {
    warm_up();
    struct Series {
      std::vector<double> frame_ns, scenarios_per_s, setup_s;
    } raw, normalized;
    std::vector<double> calibration;
    const std::size_t cap = options_.samples;
    const std::size_t min_samples = cap != 0 ? std::min(kMinSamples, cap) : kMinSamples;
    const double start = now_s();
    for (std::uint64_t index = kWarmupSamples;; ++index) {
      const std::size_t done = calibration.size();
      if ((cap != 0 && done >= cap) ||
          (done >= min_samples && now_s() - start >= options_.seconds)) {
        break;
      }
      const double setup = workload_.setup_batch(index);
      const Sample sample = timed_sample(index, "sample");
      calibration.push_back(calibration_ns(workload_.is_campaign() ? workers_ : 1));
      const double host = calibration.back() / kReferenceCalibrationNs;
      const double frame = per_frame_ns(sample);
      const double throughput = static_cast<double>(sample.scenarios) / sample.wall_s;
      raw.frame_ns.push_back(frame);
      raw.scenarios_per_s.push_back(throughput);
      raw.setup_s.push_back(setup);
      normalized.frame_ns.push_back(frame / host);
      normalized.scenarios_per_s.push_back(throughput * host);
      normalized.setup_s.push_back(setup / host);
    }
    samples_ = calibration.size();
    const Quartiles frames = quartiles(normalized.frame_ns);
    const Quartiles throughput = quartiles(normalized.scenarios_per_s);
    const Quartiles setup = quartiles(normalized.setup_s);
    add_timing("frame_ns_p50", "ns/frame", frames.p50, frames);
    add_timing("scenarios_per_s", "1/s", throughput.p50, throughput);
    add_timing("setup_s", "s", setup.p50, setup);
    metrics_.push_back({"peak_rss_mb", "MiB", peak_rss_mib(), Kind::kPhysical, {}});
    add_timing("frame_ns_p90", "ns/frame", frames.p90, frames);
    add_raw("frame_ns_p50_raw", "ns/frame", quartiles(raw.frame_ns));
    add_raw("scenarios_per_s_raw", "1/s", quartiles(raw.scenarios_per_s));
    add_raw("setup_s_raw", "s", quartiles(raw.setup_s));
    add_raw("host.calibration_ns", "ns", quartiles(calibration));
    finish_checks();
    const double error_rate =
        ratio(static_cast<double>(totals_.failed), static_cast<double>(totals_.ops));
    metrics_.push_back({"error_rate", "fraction", error_rate, Kind::kLogical, {}});
  }

  void traced() {
    const double start = now_s();
    warm_up();
    const std::size_t rounds = options_.samples != 0 ? options_.samples : kTracedRounds;
    std::vector<double> untraced_ns;
    std::vector<double> traced_ns;
    std::vector<double> counterpart_ns;
    std::vector<double> calibration;
    std::array<std::uint64_t, obs::kCounterCount> delta{};
    double frames = 0.0;
    double scenarios = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t index = kWarmupSamples + 2 * round;
      untraced_ns.push_back(per_frame_ns(timed_sample(index, "sample")));
      calibration.push_back(calibration_ns(workload_.is_campaign() ? workers_ : 1));

      set_observing(true, keep_spans());
      const auto before = counters_now();
      const Sample observed = timed_sample(index + 1, "sample/traced");
      const auto after = counters_now();
      set_observing(false, keep_spans());
      for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
        delta[c] += after[c] - before[c];
      }
      frames += static_cast<double>(observed.frames);
      scenarios += static_cast<double>(observed.scenarios);
      traced_ns.push_back(per_frame_ns(observed));

      Sample other;
      {
        const obs::SpanScope span(obs::SpanCategory::kCampaign, "sample/counterpart");
        other = workload_.run_counterpart(index);
      }
      account(other);
      counterpart_ns.push_back(per_frame_ns(other));
    }
    samples_ = rounds;
    const WorkCounts counts = work_counts(delta, frames, scenarios);
    const Quartiles untraced_q = quartiles(untraced_ns);

    const Scaling scaling = scale(std::min(rounds, kScalingPairs));
    // The ledger charges single-thread call costs, so the campaign's frame
    // time it has to explain is that of its one-worker runs.
    const double ledger_frame_ns =
        workload_.is_campaign() ? scaling.serial_frame_ns : untraced_q.p50;

    const auto count = [this](const char* name, const char* unit, double value, Kind kind) {
      metrics_.push_back({name, unit, value, kind, {}});
    };
    const double f = std::max(counts.frames, 1.0);
    const double s = std::max(counts.scenarios, 1.0);
    count("sim.events_per_frame", "count", counts.sim_events / f, Kind::kLogical);
    count("reactor.tags_per_frame", "count", counts.tags / f, Kind::kLogical);
    count("reactor.reactions_per_frame", "count", counts.reactions / f, Kind::kLogical);
    count("someip.msgs_per_frame", "count", counts.someip_msgs / f, Kind::kLogical);
    count("someip.bytes_per_msg", "B", ratio(counts.someip_bytes, counts.someip_msgs),
          Kind::kLogical);
    count("net.packets_per_frame", "count", counts.net_packets / f, Kind::kLogical);
    count("local.msgs_per_frame", "count", counts.local_msgs / f, Kind::kLogical);
    count("pool.shelf_locks_per_frame", "count", counts.shelf_locks / f, Kind::kPhysical);
    count("pool.slab_hit_ratio", "fraction", ratio(counts.slab_hits, counts.slab_loans),
          Kind::kPhysical);
    count("campaign.shelf_locks_per_scenario", "count", counts.shelf_locks / s, Kind::kPhysical);
    count("campaign.net_delivery_ratio", "fraction",
          ratio(counts.net_delivered, counts.net_packets), Kind::kLogical);
    count("campaign.dedup_hits_per_scenario", "count", counts.dedup_hits / s, Kind::kLogical);

    const double spent = now_s() - start;
    measure_layers(counts, ledger_frame_ns, workload_.brake_frame_share(),
                   std::max(0.0, options_.seconds - spent), std::min<std::size_t>(rounds, 11),
                   metrics_);

    count("campaign.scenario_ms_p50", "ms", scaling.scenario_ms.p50, Kind::kTiming);
    count("campaign.worker_util", "fraction", scaling.worker_util, Kind::kTiming);
    count("campaign.speedup_vs_1w", "x", scaling.speedup, Kind::kTiming);
    std::vector<double> normalized_ns;
    for (std::size_t i = 0; i < untraced_ns.size(); ++i) {
      normalized_ns.push_back(untraced_ns[i] * kReferenceCalibrationNs / calibration[i]);
    }
    const Quartiles normalized_q = quartiles(normalized_ns);
    add_timing("frame_ns_p90", "ns/frame", normalized_q.p90, normalized_q);
    add_raw("host.calibration_ns", "ns", quartiles(calibration));
    count("dear.overhead_vs_nondet", "x",
          workload_.overhead_vs_nondet(untraced_q.p50, quartiles(counterpart_ns).p50),
          Kind::kTiming);
    const double traced_over_untraced = ratio(quartiles(traced_ns).p50, untraced_q.p50);
    count("trace.overhead_pct", "%", (traced_over_untraced - 1.0) * 100.0, Kind::kTiming);
    finish_checks();
  }

  [[nodiscard]] bool correct() const {
    return totals_.failed == 0 &&
           std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
  }

  void print() const {
    std::printf("# dear_e2e workload=%s seed=%" PRIu64 " traced=%d samples=%zu workers=%zu "
                "host_cores=%zu\n",
                options_.workload.c_str(), options_.seed, options_.traced ? 1 : 0, samples_,
                workers_, cores_);
    for (const Metric& m : metrics_) {
      std::printf("%s %s %.9g %s", m.name.c_str(), options_.workload.c_str(), m.value,
                  m.unit.c_str());
      if (m.spread.n != 0) {
        std::printf(" p25=%.9g p75=%.9g n=%zu", m.spread.p25, m.spread.p75, m.spread.n);
      }
      std::printf("\n");
    }
    for (const Check& check : checks_) {
      std::printf("check %s %s %s\n", check.name.c_str(), check.ok ? "ok" : "FAIL",
                  check.detail.c_str());
    }
    std::printf("attempted %" PRIu64 " failed %" PRIu64 " correct %s\n", totals_.ops,
                totals_.failed, correct() ? "true" : "false");
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\n  \"schema\": \"dear-e2e-v1\",\n";
    out += "  \"workload\": " + quote(options_.workload) + ",\n";
    out += "  \"seed\": " + std::to_string(options_.seed) + ",\n";
    out += std::string("  \"traced\": ") + (options_.traced ? "true" : "false") + ",\n";
    out += "  \"seconds\": " + number(options_.seconds) + ",\n";
    out += "  \"warmup\": " + std::to_string(kWarmupSamples) + ",\n";
    out += "  \"samples\": " + std::to_string(samples_) + ",\n";
    out += "  \"workers\": " + std::to_string(workers_) + ",\n";
    out += "  \"host_cores\": " + std::to_string(cores_) + ",\n";
    out += "  \"attempted\": " + std::to_string(totals_.ops) + ",\n";
    out += "  \"failed\": " + std::to_string(totals_.failed) + ",\n";
    out += std::string("  \"correct\": ") + (correct() ? "true" : "false") + ",\n";
    out += "  \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      out += std::string(i == 0 ? "\n" : ",\n") + "    {\"name\": " + quote(checks_[i].name) +
             ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
             ", \"detail\": " + quote(checks_[i].detail) + "}";
    }
    out += "\n  ],\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      static constexpr const char* kKinds[] = {"timing", "logical", "physical"};
      out += std::string(i == 0 ? "\n" : ",\n") + "    " + quote(m.name) +
             ": {\"value\": " + number(m.value) + ", \"unit\": " + quote(m.unit) +
             ", \"kind\": \"" + kKinds[static_cast<int>(m.kind)] + "\"";
      if (m.spread.n != 0) {
        out += ", \"p25\": " + number(m.spread.p25) + ", \"p75\": " + number(m.spread.p75) +
               ", \"n\": " + std::to_string(m.spread.n);
      }
      out += "}";
    }
    out += "\n  }\n}\n";
    return out;
  }

 private:
  struct Scaling {
    double speedup{0.0};
    double worker_util{0.0};
    double serial_frame_ns{0.0};
    Quartiles scenario_ms;
  };

  [[nodiscard]] bool keep_spans() const { return !options_.trace_path.empty(); }

  static double per_frame_ns(const Sample& sample) {
    return sample.wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(sample.frames, 1));
  }

  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
  }

  static std::string number(double value) {
    if (!std::isfinite(value)) {
      return "0";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

  void add_timing(const char* name, const char* unit, double value, const Quartiles& q) {
    metrics_.push_back({name, unit, value, Kind::kTiming, q});
  }

  /// Wall-clock medians as measured: shown, never compared, because they
  /// carry the host's speed changes.
  void add_raw(const char* name, const char* unit, const Quartiles& q) {
    metrics_.push_back({name, unit, q.p50, Kind::kPhysical, q});
  }

  void account(const Sample& sample) {
    totals_.ops += sample.ops;
    totals_.failed += sample.failed;
    if (!sample.failure.empty() && first_failure_.empty()) {
      first_failure_ = sample.failure;
    }
  }

  Sample timed_sample(std::uint64_t index, const char* span_name) {
    Sample sample;
    {
      const obs::SpanScope span(obs::SpanCategory::kCampaign, span_name);
      sample = workload_.run_sample(index);
    }
    account(sample);
    return sample;
  }

  void warm_up() {
    for (std::uint64_t index = 0; index < kWarmupSamples; ++index) {
      (void)timed_sample(index, "warmup");
    }
  }

  /// Alternating runs of the workload's scenario list at `workers_` and
  /// at one worker; the report digest must not depend on the count.
  Scaling scale(std::size_t pairs) {
    const std::vector<scenario::ScenarioSpec> specs = workload_.scaling_specs();
    std::uint64_t frames = 0;
    for (const scenario::ScenarioSpec& spec : specs) {
      frames += spec.frames;
    }
    const std::uint64_t ops = workload_.is_campaign() ? specs.size() : frames;
    std::vector<double> parallel_s;
    std::vector<double> serial_s;
    std::vector<double> util;
    std::vector<double> rows_ms;
    bool ok = true;
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      const obs::SpanScope span(obs::SpanCategory::kCampaign, "scaling");
      const Batch parallel = run_batch(specs, workers_, options_.seed);
      const Batch serial = run_batch(specs, 1, options_.seed);
      const bool pair_ok = parallel.invariants_ok && serial.invariants_ok &&
                           parallel.report_digest == serial.report_digest;
      ok = ok && pair_ok;
      totals_.ops += 2 * ops;
      totals_.failed += pair_ok ? 0 : 2 * ops;
      parallel_s.push_back(parallel.wall_s);
      serial_s.push_back(serial.wall_s);
      util.push_back(ratio(parallel.row_wall_s_sum,
                           static_cast<double>(parallel.pool_size) * parallel.wall_s));
      rows_ms.insert(rows_ms.end(), parallel.row_wall_ms.begin(), parallel.row_wall_ms.end());
    }
    checks_.push_back({"scaling_digest", ok,
                       "report digest identical at " + std::to_string(workers_) +
                           " and 1 workers over " + std::to_string(pairs) + " pairs"});
    Scaling scaling;
    const double serial = quartiles(serial_s).p50;
    scaling.speedup = ratio(serial, quartiles(parallel_s).p50);
    scaling.worker_util = quartiles(util).p50;
    scaling.serial_frame_ns = ratio(serial * 1e9, static_cast<double>(frames));
    scaling.scenario_ms = quartiles(rows_ms);
    return scaling;
  }

  void finish_checks() {
    workload_.final_checks(checks_, totals_);
    checks_.push_back({"samples", first_failure_.empty(),
                       first_failure_.empty() ? "every sample passed its checks" : first_failure_});
  }

  const Options& options_;
  Workload& workload_;
  std::size_t cores_;
  std::size_t workers_;
  std::size_t samples_{0};
  Sample totals_;
  std::string first_failure_;
  std::vector<Check> checks_;
  std::vector<Metric> metrics_;
};

}  // namespace

}  // namespace dear::e2e

int main(int argc, char** argv) {
  using namespace dear::e2e;
  Options options;
  if (const int status = parse(argc, argv, options); status != 0) {
    return status == 1 ? 0 : 2;
  }
  const std::size_t cores = host_cores();
  const std::size_t workers = std::min(kMaxWorkers, cores);
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed, workers, options.expected_digest);
  if (!workload) {
    std::fprintf(stderr, "dear_e2e: unknown workload %s\n", options.workload.c_str());
    usage(stderr);
    return 2;
  }

  dear::obs::Registry& registry = dear::obs::Registry::instance();
  if (options.traced || !options.trace_path.empty()) {
    registry.set_ring_capacity(std::size_t{1} << 18);
  }
  set_observing(false, !options.trace_path.empty());

  Run run(options, *workload, cores, workers);
  if (options.traced) {
    run.traced();
  } else {
    run.untraced();
  }
  run.print();

  if (!options.out_path.empty()) {
    std::ofstream out(options.out_path);
    out << run.json();
    if (!out) {
      std::fprintf(stderr, "dear_e2e: cannot write %s\n", options.out_path.c_str());
      return 2;
    }
  }
  if (!options.trace_path.empty()) {
    std::ofstream trace(options.trace_path);
    trace << registry.chrome_trace_json();
    if (!trace) {
      std::fprintf(stderr, "dear_e2e: cannot write %s\n", options.trace_path.c_str());
      return 2;
    }
  }
  return run.correct() ? 0 : 1;
}
