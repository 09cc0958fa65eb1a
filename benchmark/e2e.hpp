// dear_e2e: shared types of the end-to-end benchmark.
//
// A workload is a seeded operation stream over the public API of src/
// (workloads.cpp); main.cpp times it in samples and reports
// medians; layers.cpp times each layer's public functions from outside
// and charges them to a frame (the ledger). Nothing here feeds back into
// the program under test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace dear::e2e {

/// Monotonic wall clock (steady_clock), seconds.
[[nodiscard]] double now_s();

/// ns per event of the host-speed calibration kernel (calibration.cpp),
/// run on `threads` threads at once.
[[nodiscard]] double calibration_ns(std::size_t threads);

/// Calibration kernel speed the end-to-end times are normalized to: its
/// typical value on the 4-core host the benchmark was defined on.
inline constexpr double kReferenceCalibrationNs = 150.0;

/// Median with quartiles and the 90th percentile (linear interpolation
/// between order statistics) over a set of samples.
struct Quartiles {
  double p25{0.0};
  double p50{0.0};
  double p75{0.0};
  double p90{0.0};
  std::size_t n{0};
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// How a metric may be compared between two runs of the same code:
/// timings within a bound, logical counts exactly, physical counts
/// (thread timing dependent) not at all.
enum class Kind { kTiming, kLogical, kPhysical };

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
  Kind kind{Kind::kTiming};
  /// Distribution behind `value` (n == 0 when the value is not a median).
  Quartiles spread;
};

struct Check {
  std::string name;
  bool ok{false};
  std::string detail;
};

/// One timed operation batch of a workload.
struct Sample {
  double wall_s{0.0};
  /// Operations attempted and failed (frames for the brake workloads,
  /// scenarios for the campaign).
  std::uint64_t ops{0};
  std::uint64_t failed{0};
  /// Simulated sensor frames and application runs (scenarios) covered.
  std::uint64_t frames{0};
  std::uint64_t scenarios{0};
  /// First failed check of the sample (empty when it passed).
  std::string failure;
};

/// One CampaignRunner execution of a scenario list (the parallel-scaling
/// view of a workload).
struct Batch {
  double wall_s{0.0};
  double row_wall_s_sum{0.0};
  std::vector<double> row_wall_ms;
  std::size_t pool_size{1};
  std::uint64_t report_digest{0};
  bool invariants_ok{true};
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Sample `index` (every input derives from the run seed and the index).
  virtual Sample run_sample(std::uint64_t index) = 0;
  /// Mean seconds of one application set-up (construction, service
  /// discovery settle, teardown) over a batch of zero-frame runs.
  virtual double setup_batch(std::uint64_t index) = 0;
  /// Same-input sample of the other brake pipeline (DEAR <-> stock AP) for
  /// the overhead ratio; the campaign derives it from its own rows.
  virtual Sample run_counterpart(std::uint64_t index) = 0;
  /// Checks that can only run once the samples are done.
  virtual void final_checks(std::vector<Check>& checks, Sample& totals) = 0;
  /// Scenario list and worker count of the parallel-scaling view.
  virtual std::vector<scenario::ScenarioSpec> scaling_specs() const = 0;
  /// Share of simulated frames that run the brake-assistant logic.
  [[nodiscard]] virtual double brake_frame_share() const = 0;
  /// DEAR frame time over stock-AP frame time, given the median frame
  /// times of this workload's and its counterpart's samples (the campaign
  /// compares its own DEAR and stock-AP rows instead).
  [[nodiscard]] virtual double overhead_vs_nondet(double own_ns, double counterpart_ns) const = 0;
  [[nodiscard]] virtual bool is_campaign() const { return false; }
};

/// Creates workload `name` for run seed `seed`; `expected_digest` (when
/// nonzero) replaces the pinned output/report digest. Returns nullptr for
/// an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                                      std::size_t workers,
                                                      std::uint64_t expected_digest);

/// Runs `specs` on the campaign runner with `workers` threads.
[[nodiscard]] Batch run_batch(const std::vector<scenario::ScenarioSpec>& specs,
                              std::size_t workers, std::uint64_t seed);

/// Per-frame work counts of the traced samples, the ledger inputs.
struct WorkCounts {
  double frames{0.0};
  double scenarios{0.0};
  double sim_events{0.0};
  double tags{0.0};
  double reactions{0.0};
  double someip_msgs{0.0};
  double someip_bytes{0.0};
  double someip_tagged{0.0};
  double local_msgs{0.0};
  double local_tagged{0.0};
  double net_packets{0.0};
  double net_delivered{0.0};
  double dedup_hits{0.0};
  double shelf_locks{0.0};
  double slab_loans{0.0};
  double slab_hits{0.0};
};

/// Times each layer's public functions from outside with inputs shaped by
/// `counts`, spending about `seconds` in total (at least `min_reps`
/// repetitions per layer), and appends the call-cost and ledger metrics.
/// `frame_ns` is the frame time the ledger has to explain.
void measure_layers(const WorkCounts& counts, double frame_ns, double brake_frame_share,
                    double seconds, std::size_t min_reps, std::vector<Metric>& out);

}  // namespace dear::e2e
