// The four benchmark workloads and their correctness checks.
//
// Brake workloads run one 10 000-frame pipeline per sample; the campaign
// workload runs the 96-scenario fault sweep per sample. Every input is a
// pure function of (run seed, sample index), so two runs of the same seed
// do the same work.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "brake/dear_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "e2e.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "scenario/workloads.hpp"

namespace dear::e2e {

namespace {

using scenario::ScenarioSpec;
using scenario::Transport;

constexpr std::uint64_t kBrakeFrames = 10'000;
constexpr std::uint64_t kCampaignFrames = 120;
constexpr std::uint64_t kSetupRuns = 10;
constexpr std::size_t kPayloadBytes = 1024 * 1024;

/// Output digest of every 10 000-frame DEAR brake run: independent of the
/// camera and platform seeds and of the transport (the determinism claim).
constexpr std::uint64_t kDearDigest10k = 0x73b17466cd08c532ULL;
/// Report digest of presets::fault_sweep(120, 1), the repository anchor.
constexpr std::uint64_t kFaultSweepDigest120f1 = 0x6b2d9413c9b8a160ULL;

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

template <typename F>
double timed(F&& f) {
  const double start = now_s();
  f();
  return now_s() - start;
}

ScenarioSpec brake_spec(scenario::Workload app, Transport transport, std::uint64_t payload,
                        std::uint64_t seed, std::uint64_t index, std::uint64_t frames) {
  ScenarioSpec spec;
  spec.workload = app;
  spec.transport = transport;
  spec.camera_payload_bytes = payload;
  spec.frames = frames;
  spec.platform_seed = scenario::derive_seed(seed, index, "platform");
  spec.sensor_seed = scenario::derive_seed(seed, 0, "camera");
  return spec;
}

brake::PipelineResult run_brake(const ScenarioSpec& spec) {
  if (spec.workload == scenario::Workload::kBrakeDear) {
    return brake::run_dear_pipeline(scenario::to_dear_config(spec));
  }
  return brake::run_nondet_pipeline(scenario::to_nondet_config(spec));
}

/// The analyzer's logical latency bound of the brake chain: every DEAR
/// frame must reach the EBA exactly this long after adapter arrival.
Duration dear_chain_bound() {
  ScenarioSpec spec;
  spec.workload = scenario::Workload::kBrakeDear;
  analysis::AnalyzeOptions options;
  options.timing = true;
  Duration bound = 0;
  for (const analysis::ChainBound& chain : analysis::analyze_spec(spec, options).timing.chains) {
    bound = std::max(bound, chain.logical_latency);
  }
  return bound;
}

class BrakeWorkload final : public Workload {
 public:
  BrakeWorkload(scenario::Workload app, Transport transport, std::uint64_t payload,
                std::uint64_t seed, std::size_t workers, std::uint64_t expected_digest)
      : app_(app),
        transport_(transport),
        payload_(payload),
        seed_(seed),
        workers_(workers),
        expected_digest_(expected_digest != 0 ? expected_digest : kDearDigest10k),
        chain_bound_(dear_chain_bound()) {}

  Sample run_sample(std::uint64_t index) override {
    brake::PipelineResult result;
    Sample sample = run_checked(spec_for(index, kBrakeFrames), result);
    if (index == 0 && app_ == scenario::Workload::kBrakeNondet) {
      first_digest_ = result.output_digest;
    }
    return sample;
  }

  double setup_batch(std::uint64_t index) override {
    const ScenarioSpec spec = spec_for(index, 0);
    return timed([&] {
             for (std::uint64_t i = 0; i < kSetupRuns; ++i) {
               (void)run_brake(spec);
             }
           }) /
           static_cast<double>(kSetupRuns);
  }

  Sample run_counterpart(std::uint64_t index) override {
    const scenario::Workload other = app_ == scenario::Workload::kBrakeDear
                                         ? scenario::Workload::kBrakeNondet
                                         : scenario::Workload::kBrakeDear;
    brake::PipelineResult result;
    return run_checked(brake_spec(other, Transport::kSomeIp, 0, seed_, index, kBrakeFrames),
                       result);
  }

  void final_checks(std::vector<Check>& checks, Sample& totals) override {
    if (dear_samples_ != 0) {
      checks.push_back({"dear_frames", failed_dear_samples_ == 0,
                        std::to_string(failed_dear_samples_) + " of " +
                            std::to_string(dear_samples_) +
                            " DEAR samples off: every frame commanded as the reference, digest " +
                            hex(expected_digest_) + ", latency == analyzer chain bound " +
                            std::to_string(chain_bound_) + " ns, 0 payload drops"});
    }
    // The stock-AP pipeline has no determinism contract across platform
    // seeds, but the simulation must replay a seed pair bit-exactly.
    if (!first_digest_) {
      return;
    }
    const brake::PipelineResult replay = run_brake(spec_for(0, kBrakeFrames));
    const bool ok = replay.output_digest == *first_digest_ && replay.frames_sent == kBrakeFrames;
    checks.push_back({"nondet_replay", ok,
                      "sample 0 replayed: digest " + hex(replay.output_digest) + " vs " +
                          hex(*first_digest_)});
    totals.ops += kBrakeFrames;
    if (!ok) {
      totals.failed += kBrakeFrames;
    }
  }

  std::vector<ScenarioSpec> scaling_specs() const override {
    std::vector<ScenarioSpec> specs;
    for (std::size_t i = 0; i < workers_; ++i) {
      specs.push_back(spec_for(1'000'000 + i, kBrakeFrames));
    }
    return specs;
  }

  [[nodiscard]] double brake_frame_share() const override { return 1.0; }

  [[nodiscard]] double overhead_vs_nondet(double own_ns, double counterpart_ns) const override {
    return app_ == scenario::Workload::kBrakeDear ? own_ns / counterpart_ns
                                                  : counterpart_ns / own_ns;
  }

 private:
  [[nodiscard]] ScenarioSpec spec_for(std::uint64_t index, std::uint64_t frames) const {
    return brake_spec(app_, transport_, payload_, seed_, index, frames);
  }

  /// Runs one brake pipeline and checks its outputs.
  Sample run_checked(const ScenarioSpec& spec, brake::PipelineResult& result) {
    Sample sample;
    sample.wall_s = timed([&] { result = run_brake(spec); });
    sample.ops = spec.frames;
    sample.frames = spec.frames;
    sample.scenarios = 1;
    if (spec.workload == scenario::Workload::kBrakeDear) {
      check_dear(result, sample);
    } else {
      check_nondet(result, sample);
    }
    return sample;
  }

  /// A frame fails when it yields no EBA decision, a decision other than
  /// the reference, or a protocol error; the whole sample fails when its
  /// digest, logical latency or payload accounting is off.
  void check_dear(const brake::PipelineResult& r, Sample& sample) {
    const std::uint64_t frames = sample.frames;
    const std::uint64_t bad = (frames - std::min(r.frames_processed_eba, frames)) +
                              r.wrong_decisions + r.deadline_violations + r.tardy_messages +
                              r.untagged_messages;
    sample.failed = std::min(bad, frames);
    const double bound = static_cast<double>(chain_bound_);
    std::string failure;
    if (r.output_digest != expected_digest_) {
      failure = "output digest " + hex(r.output_digest) + " != " + hex(expected_digest_);
    } else if (r.frames_sent != frames) {
      failure = "camera sent " + std::to_string(r.frames_sent) + " frames";
    } else if (r.latency.count() == 0 || r.latency.min() != bound || r.latency.max() != bound) {
      failure = "logical latency off the analyzer chain bound";
    } else if (r.camera_payload_drops != 0) {
      failure = std::to_string(r.camera_payload_drops) + " camera payload drops";
    }
    if (!failure.empty()) {
      sample.failed = frames;
      sample.failure = failure;
    } else if (sample.failed != 0) {
      sample.failure = std::to_string(sample.failed) + " frames failed";
    }
    ++dear_samples_;
    failed_dear_samples_ += sample.failed != 0 ? 1 : 0;
  }

  static void check_nondet(const brake::PipelineResult& r, Sample& sample) {
    const std::uint64_t frames = sample.frames;
    sample.failed = frames - std::min(r.frames_sent, frames);
    if (sample.failed != 0) {
      sample.failure = "camera sent " + std::to_string(r.frames_sent) + " frames";
    }
  }

  scenario::Workload app_;
  Transport transport_;
  std::uint64_t payload_;
  std::uint64_t seed_;
  std::size_t workers_;
  std::uint64_t expected_digest_;
  Duration chain_bound_;
  std::optional<std::uint64_t> first_digest_;
  std::uint64_t dear_samples_{0};
  std::uint64_t failed_dear_samples_{0};
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, std::size_t workers, std::uint64_t expected_digest)
      : seed_(seed),
        workers_(workers),
        specs_(scenario::presets::fault_sweep(kCampaignFrames, seed).expand()) {
    if (expected_digest != 0) {
      expected_digest_ = expected_digest;
    } else if (seed == 1) {
      expected_digest_ = kFaultSweepDigest120f1;
    }
    pinned_ = expected_digest_.has_value();
    for (const ScenarioSpec& spec : specs_) {
      frames_ += spec.frames;
      if (spec.workload != scenario::Workload::kAcc) {
        brake_frames_ += spec.frames;
      }
    }
  }

  Sample run_sample(std::uint64_t /*index*/) override {
    const Batch batch = run_batch(specs_, workers_, seed_);
    Sample sample;
    sample.wall_s = batch.wall_s;
    sample.ops = specs_.size();
    sample.frames = frames_;
    sample.scenarios = specs_.size();
    if (!expected_digest_) {
      expected_digest_ = batch.report_digest;  // later samples must repeat it
    }
    if (!batch.invariants_ok) {
      sample.failure = "determinism invariant violated";
    } else if (batch.report_digest != *expected_digest_) {
      sample.failure =
          "report digest " + hex(batch.report_digest) + " != " + hex(*expected_digest_);
    }
    if (!sample.failure.empty()) {
      sample.failed = sample.ops;
      ++failed_samples_;
    }
    ++samples_;
    last_rows_ = batch.row_wall_ms;
    return sample;
  }

  double setup_batch(std::uint64_t index) override {
    return timed([&] {
             for (std::uint64_t i = 0; i < kSetupRuns; ++i) {
               ScenarioSpec spec = specs_[(index * kSetupRuns + i) % specs_.size()];
               spec.frames = 0;
               (void)scenario::run_scenario(spec);
             }
           }) /
           static_cast<double>(kSetupRuns);
  }

  Sample run_counterpart(std::uint64_t index) override {
    // The DEAR and stock-AP rows of one sample are the overhead pair.
    Sample sample = run_sample(index);
    double dear_ms = 0.0;
    double nondet_ms = 0.0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (specs_[i].workload == scenario::Workload::kBrakeDear) {
        dear_ms += last_rows_[i];
      } else if (specs_[i].workload == scenario::Workload::kBrakeNondet) {
        nondet_ms += last_rows_[i];
      }
    }
    row_ratios_.push_back(nondet_ms > 0.0 ? dear_ms / nondet_ms : 0.0);
    return sample;
  }

  void final_checks(std::vector<Check>& checks, Sample& /*totals*/) override {
    checks.push_back({"campaign_report", failed_samples_ == 0,
                      std::to_string(failed_samples_) + " of " + std::to_string(samples_) +
                          " campaigns off: 0 invariant violations, report digest " +
                          hex(expected_digest_.value_or(0)) +
                          (pinned_ ? " (pinned)" : " (repeated by every campaign)")});
  }

  std::vector<ScenarioSpec> scaling_specs() const override { return specs_; }

  [[nodiscard]] double brake_frame_share() const override {
    return frames_ > 0 ? static_cast<double>(brake_frames_) / static_cast<double>(frames_) : 0.0;
  }

  [[nodiscard]] double overhead_vs_nondet(double /*own_ns*/,
                                          double /*counterpart_ns*/) const override {
    return quartiles(row_ratios_).p50;
  }

  [[nodiscard]] bool is_campaign() const override { return true; }

 private:
  std::uint64_t seed_;
  std::size_t workers_;
  std::vector<ScenarioSpec> specs_;
  std::optional<std::uint64_t> expected_digest_;
  bool pinned_{false};
  std::uint64_t frames_{0};
  std::uint64_t brake_frames_{0};
  std::uint64_t samples_{0};
  std::uint64_t failed_samples_{0};
  std::vector<double> last_rows_;
  std::vector<double> row_ratios_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        std::size_t workers, std::uint64_t expected_digest) {
  using scenario::Workload;
  if (name == "dear-someip") {
    return std::make_unique<BrakeWorkload>(Workload::kBrakeDear, Transport::kSomeIp, 0, seed,
                                           workers, expected_digest);
  }
  if (name == "dear-local-1mib") {
    return std::make_unique<BrakeWorkload>(Workload::kBrakeDear, Transport::kLocal, kPayloadBytes,
                                           seed, workers, expected_digest);
  }
  if (name == "nondet-someip") {
    return std::make_unique<BrakeWorkload>(Workload::kBrakeNondet, Transport::kSomeIp, 0, seed,
                                           workers, expected_digest);
  }
  if (name == "campaign-fault-sweep") {
    return std::make_unique<CampaignWorkload>(seed, workers, expected_digest);
  }
  return nullptr;
}

Batch run_batch(const std::vector<ScenarioSpec>& specs, std::size_t workers, std::uint64_t seed) {
  scenario::RunnerOptions options;
  options.workers = workers;
  const scenario::CampaignRunner runner(options);
  const scenario::CampaignReport report = runner.run("e2e", specs, seed);
  Batch batch;
  batch.wall_s = report.wall_seconds;
  batch.report_digest = report.report_digest();
  batch.invariants_ok = report.invariants_ok();
  batch.pool_size = std::min(workers, specs.size());
  batch.row_wall_ms.reserve(report.results.size());
  for (const scenario::ScenarioResult& row : report.results) {
    batch.row_wall_ms.push_back(row.wall_seconds * 1e3);
    batch.row_wall_s_sum += row.wall_seconds;
  }
  return batch;
}

}  // namespace dear::e2e
