// The paper-figure reports, one subcommand each:
//
//   fig1        Figure 1 (§I): printed-value distribution of the naive
//               client/server, nondeterministic vs DEAR
//   fig5        Figure 5 (§IV): brake-assistant error prevalence, nondet
//               vs DEAR on the same seeds
//   tradeoff    §IV.B: deadline scale vs end-to-end latency and error rate
//   ablation    §IV.A: input-buffer depth of the classic pipeline
//   stp         §III.A: safe-to-process, assumed latency bound L vs tardiness
//   det-client  §II.B: classic vs AP deterministic client vs DEAR
//
//   dear_reports <subcommand> [--option value ...]
//   dear_reports <subcommand> --help
//
// Every subcommand prints the paper's claim next to its table and exits
// nonzero when its run does not show that claim.
#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "ara/event.hpp"
#include "ara/proxy.hpp"
#include "ara/runtime.hpp"
#include "ara/skeleton.hpp"
#include "brake/dear_pipeline.hpp"
#include "brake/det_client_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "dear/dear.hpp"
#include "demo/fig1.hpp"
#include "net/sim_network.hpp"
#include "obs/histogram.hpp"
#include "obs/obs_cli.hpp"
#include "sim/sim_executor.hpp"

namespace {

using namespace dear;
using namespace dear::literals;

const char* verdict(bool holds) { return holds ? "yes" : "NO"; }

// --- fig1 ----------------------------------------------------------------------
//
// The naive AP client body `s.set_value(1); s.add(2); result = s.get_value();`
// prints any of {0, 1, 2, 3} (the paper's bar chart shows roughly 0.03-0.4
// each); through DEAR method transactors it prints 3 in every run with zero
// protocol errors. The real-threads distribution is nondeterministic and
// not gated.

/// Printed values live in [0, 4); anything else lands in the underflow or
/// overflow count and is reported as "other", so no outcome can vanish.
obs::Histogram printed_values() { return obs::Histogram(0.0, 4.0, 4); }

void print_distribution(const char* label, const obs::Histogram& histogram,
                        std::uint64_t completed) {
  std::printf("%s (%llu trials):\n", label, static_cast<unsigned long long>(completed));
  std::printf("  %-14s %-12s %s\n", "printed value", "probability", "count");
  const auto row = [&](const char* value, std::uint64_t count) {
    const double p = histogram.total() == 0 ? 0.0
                                            : static_cast<double>(count) /
                                                  static_cast<double>(histogram.total());
    std::printf("  %-14s %-12.4f %llu\n", value, p, static_cast<unsigned long long>(count));
  };
  for (std::size_t value = 0; value < histogram.bin_count(); ++value) {
    row(std::to_string(value).c_str(), histogram.bin(value));
  }
  if (const std::uint64_t other = histogram.underflow() + histogram.overflow(); other > 0) {
    row("other", other);
  }
  std::printf("\n");
}

int run_fig1(int argc, const char* const* argv) {
  common::Cli cli("dear_reports fig1",
                  "Figure 1: printed-value distribution of the naive AP client/server.");
  cli.add_int("trials", 5000, "stock client/server trials over real threads");
  cli.add_int("sim-trials", 20'000, "stock client/server trials in the DES (one seed each)");
  cli.add_int("dear-trials", 20, "trials of the same program over the threaded DEAR runtime");
  cli.add_int("workers", 4, "thread-pool workers for the real-threads runs");
  obs::register_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  if (!obs::configure_from_cli(cli)) {
    return 1;
  }
  const std::uint64_t trials = cli.get_int("trials");
  const std::uint64_t sim_trials = cli.get_int("sim-trials");
  const std::uint64_t dear_trials = cli.get_int("dear-trials");
  const std::size_t workers = cli.get_int("workers");

  std::printf("================================================================\n");
  std::printf("Figure 1: printed-value distribution of the naive AP client/server\n");
  std::printf("================================================================\n\n");

  // Real threads: genuine OS-scheduler nondeterminism.
  {
    obs::Histogram histogram = printed_values();
    std::uint64_t completed = 0;
    demo::Fig1RealHarness harness(workers);
    for (std::uint64_t i = 0; i < trials; ++i) {
      const auto outcome = harness.run_trial();
      if (outcome.completed) {
        histogram.add(outcome.printed);
        ++completed;
      }
    }
    const std::string label =
        "AP kEvent dispatch, real thread pool (" + std::to_string(workers) + " workers)";
    print_distribution(label.c_str(), histogram, completed);
  }

  // DES: modeled, seed-reproducible nondeterminism.
  {
    obs::Histogram histogram = printed_values();
    std::uint64_t completed = 0;
    for (std::uint64_t seed = 1; seed <= sim_trials; ++seed) {
      const auto outcome = demo::run_fig1_nondet_sim(seed);
      if (outcome.completed) {
        histogram.add(outcome.printed);
        ++completed;
      }
    }
    print_distribution("AP kEvent dispatch, DES with dispatch jitter", histogram, completed);
  }

  // DEAR: deterministic, in the DES and over real threads.
  bool always_three = true;
  obs::Histogram sim_histogram = printed_values();
  std::uint64_t sim_errors = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto outcome = demo::run_fig1_dear_sim(seed);
    sim_histogram.add(outcome.printed);
    sim_errors += outcome.protocol_errors;
    always_three = always_three && outcome.printed == 3;
  }
  print_distribution("DEAR method transactors, DES (200 seeds)", sim_histogram, 200);
  std::printf("  protocol errors across all DEAR sim runs: %llu\n\n",
              static_cast<unsigned long long>(sim_errors));

  obs::Histogram threaded_histogram = printed_values();
  std::uint64_t threaded_errors = 0;
  for (std::uint64_t i = 0; i < dear_trials; ++i) {
    const auto outcome = demo::run_fig1_dear_threaded(workers);
    threaded_histogram.add(outcome.printed);
    threaded_errors += outcome.protocol_errors;
    always_three = always_three && outcome.printed == 3;
  }
  print_distribution("DEAR method transactors, threaded runtime", threaded_histogram,
                     dear_trials);

  const bool holds = always_three && sim_errors == 0 && threaded_errors == 0;
  std::printf("paper's claim: the naive program prints any of {0,1,2,3}; DEAR always prints 3.\n");
  std::printf("DEAR printed 3 in every trial with zero protocol errors: %s\n", verdict(holds));
  if (!obs::export_from_cli(cli)) {
    return 1;
  }
  return holds ? 0 : 1;
}

// --- fig5 ----------------------------------------------------------------------
//
// Prevalence of errors for 20 executions of the brake assistant, 100,000
// frames each, sorted by error rate and split by error type; then the DEAR
// pipeline on the same seeds. Paper: per-instance error rates from 0.018%
// to 22.25% (mean 5.60%), the dominant type varies between instances, and
// the deterministic implementation shows no errors at all.

int run_fig5(int argc, const char* const* argv) {
  common::Cli cli("dear_reports fig5", "Figure 5: brake-assistant error prevalence.");
  cli.add_int("frames", 100'000, "frames per stock instance");
  cli.add_int("instances", 20, "executions (platform seeds 1..N)");
  cli.add_int("dear-frames", 100'000, "frames per DEAR instance (follows --frames unless set)");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  const std::uint64_t frames = cli.get_int("frames");
  const std::uint64_t instances = cli.get_int("instances");
  const std::uint64_t dear_frames =
      cli.was_set("dear-frames") ? cli.get_int("dear-frames") : frames;

  std::printf("=====================================================================\n");
  std::printf("Figure 5: error prevalence, %llu executions x %llu frames\n",
              static_cast<unsigned long long>(instances),
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");

  struct Row {
    std::uint64_t seed;
    brake::PipelineResult result;
  };
  std::vector<Row> rows;
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    brake::ScenarioConfig config;
    config.frames = frames;
    config.platform_seed = seed;
    config.sensor_seed = seed + 1000;
    rows.push_back(Row{seed, brake::run_nondet_pipeline(config)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.result.error_prevalence_percent() < b.result.error_prevalence_percent();
  });

  std::printf("stock (nondeterministic) brake assistant, sorted by error rate:\n\n");
  std::printf("  %-4s %-5s %10s %12s %12s %12s %12s %10s\n", "#", "seed", "prev(%)",
              "dropPre", "dropCV", "mismatchCV", "dropEBA", "wrongDec");
  common::RunningStats prevalence;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& errors = rows[i].result.errors;
    const double rate = rows[i].result.error_prevalence_percent();
    prevalence.add(rate);
    std::printf("  %-4zu %-5llu %10.3f %12llu %12llu %12llu %12llu %10llu\n", i + 1,
                static_cast<unsigned long long>(rows[i].seed), rate,
                static_cast<unsigned long long>(errors.dropped_frames_preprocessing),
                static_cast<unsigned long long>(errors.dropped_frames_cv),
                static_cast<unsigned long long>(errors.input_mismatches_cv),
                static_cast<unsigned long long>(errors.dropped_vehicles_eba),
                static_cast<unsigned long long>(rows[i].result.wrong_decisions));
  }
  std::printf("\n  error prevalence: min %.3f%%  mean %.3f%%  max %.3f%%\n",
              prevalence.min(), prevalence.mean(), prevalence.max());
  std::printf("  (paper: min 0.018%%  mean 5.60%%  max 22.25%%)\n\n");

  std::printf("DEAR (deterministic) brake assistant, same seeds, %llu frames each:\n\n",
              static_cast<unsigned long long>(dear_frames));
  std::printf("  %-5s %10s %12s %12s %12s %10s %12s\n", "seed", "prev(%)", "errors",
              "deadlineViol", "tardy", "wrongDec", "ebaFrames");
  std::uint64_t total_errors = 0;
  std::uint64_t reference_digest = 0;
  bool digests_match = true;
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    brake::DearScenarioConfig config;
    config.frames = dear_frames;
    config.platform_seed = seed;
    config.sensor_seed = 424242;  // same camera input for every instance
    const auto result = brake::run_dear_pipeline(config);
    total_errors += result.errors.total() + result.deadline_violations + result.tardy_messages;
    if (seed == 1) {
      reference_digest = result.output_digest;
    } else if (result.output_digest != reference_digest) {
      digests_match = false;
    }
    std::printf("  %-5llu %10.3f %12llu %12llu %12llu %10llu %12llu\n",
                static_cast<unsigned long long>(seed), result.error_prevalence_percent(),
                static_cast<unsigned long long>(result.errors.total()),
                static_cast<unsigned long long>(result.deadline_violations),
                static_cast<unsigned long long>(result.tardy_messages),
                static_cast<unsigned long long>(result.wrong_decisions),
                static_cast<unsigned long long>(result.frames_processed_eba));
  }
  std::printf("\n  total DEAR errors across all instances: %llu (paper: 0)\n",
              static_cast<unsigned long long>(total_errors));
  std::printf("  identical output digest across platform seeds: %s\n",
              digests_match ? "yes (deterministic)" : "NO");
  return total_errors == 0 && digests_match ? 0 : 1;
}

// --- tradeoff ------------------------------------------------------------------
//
// Paper §IV.B: "These benefits come at the cost of an extra physical time
// delay as each SWC needs to account for worst case computation and
// communication delays. ... For certain applications it is acceptable to
// deliberately introduce the possibility of sporadic errors by setting
// deadlines to values lower than the actual WCET."
//
// Sweeps a global scale over the paper's deadlines (5/25/25/5 ms). Latency
// falls linearly with the scale; the error rate is zero while the scaled
// deadlines cover the execution times (the modeled 8-20 ms against 25 ms
// deadlines) and grows rapidly below the crossover.

int run_tradeoff(int argc, const char* const* argv) {
  common::Cli cli("dear_reports tradeoff",
                  "Deadline scale sweep: end-to-end latency vs observable error rate.");
  cli.add_int("frames", 20'000, "frames per sweep point");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  const std::uint64_t frames = cli.get_int("frames");

  std::printf("=====================================================================\n");
  std::printf("Deadline scale sweep: end-to-end latency vs observable error rate\n");
  std::printf("(%llu frames per point; deadlines = scale * {5,25,25,5} ms, L = 5 ms)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-7s %-12s %-12s %12s %12s %12s %10s\n", "scale", "latency", "latencyMax",
              "errors", "deadlineViol", "tardy", "err(%)");
  std::printf("  (err%% counts observable protocol errors per frame; a frame can\n");
  std::printf("   miss several deadlines, so the rate can exceed 100%%)\n");

  const double scales[] = {1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3};
  double previous_rate = -1.0;
  bool monotone_after_crossover = true;
  bool clean_at_full_deadlines = true;
  for (const double scale : scales) {
    brake::DearScenarioConfig config;
    config.frames = frames;
    config.platform_seed = 1;
    config.sensor_seed = 7;
    config.deadline_scale = scale;
    const auto result = brake::run_dear_pipeline(config);
    const bool completed = result.latency.count() > 0;
    const std::string mean_latency =
        completed ? format_duration(static_cast<Duration>(result.latency.mean())) : "-";
    const std::string max_latency =
        completed ? format_duration(static_cast<Duration>(result.latency.max())) : "-";
    const std::uint64_t observable = result.errors.total() + result.tardy_messages;
    if (scale >= 1.0 && observable != 0) {
      clean_at_full_deadlines = false;
    }
    std::printf("  %-7.2f %-12s %-12s %12llu %12llu %12llu ", scale, mean_latency.c_str(),
                max_latency.c_str(), static_cast<unsigned long long>(observable),
                static_cast<unsigned long long>(result.deadline_violations),
                static_cast<unsigned long long>(result.tardy_messages));
    if (frames == 0) {
      std::printf("%10s\n", "-");
      continue;
    }
    const double rate = 100.0 * static_cast<double>(observable) / static_cast<double>(frames);
    std::printf("%10.3f\n", rate);
    // Monotone up to saturation (when nearly every frame already carries
    // two violations, small fluctuations are expected).
    if (previous_rate >= 0.0 && rate < previous_rate * 0.9) {
      monotone_after_crossover = false;
    }
    previous_rate = rate;
  }
  std::printf("\n  expected: zero errors while deadlines cover the WCET (scale >= 1.0): %s\n",
              verdict(clean_at_full_deadlines));
  std::printf("  then a monotone error-rate increase as the scale shrinks: %s\n",
              monotone_after_crossover ? "observed" : "NOT observed");
  return clean_at_full_deadlines && monotone_after_crossover ? 0 : 1;
}

// --- ablation ------------------------------------------------------------------
//
// The APD stores event data in one-slot buffers ("the logic of each
// component processes the last data written to its one-slot input buffer",
// paper §IV.A). A natural engineering reflex is to deepen them. Deeper
// FIFO buffers absorb part of the jitter, so the error rate drops, but it
// stays nonzero at every depth, and the logic is fed staler data. Input
// mismatches and wrong decisions do not settle either way: at 20 000
// frames they fall with depth, at 3 000 they rise, because a single drop
// can leave Computer Vision's frame and lane queues offset for the rest of
// the run. Buffer depth trades errors for staleness; it does not buy
// determinism.

int run_ablation(int argc, const char* const* argv) {
  common::Cli cli("dear_reports ablation",
                  "Ablation: input buffer depth in the classic pipeline.");
  cli.add_int("frames", 20'000, "frames per run (8 seeds per depth)");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  const std::uint64_t frames = cli.get_int("frames");

  std::printf("=====================================================================\n");
  std::printf("Ablation: input buffer depth in the classic pipeline\n");
  std::printf("(%llu frames per run, aggregated over 8 seeds per depth)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-6s %10s %12s %14s %14s %12s\n", "depth", "err(%)", "mismatches",
              "staleness", "staleMax", "wrongDec");

  bool errors_drop = true;
  bool errors_persist = true;
  bool staleness_grows = true;
  double first_rate = 0.0;
  double first_staleness = 0.0;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::uint64_t total_errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t wrong = 0;
    std::uint64_t total_frames = 0;
    common::RunningStats staleness;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      brake::ScenarioConfig config;
      config.frames = frames;
      config.platform_seed = seed;
      config.sensor_seed = seed + 1000;
      config.input_queue_depth = depth;
      const auto result = brake::run_nondet_pipeline(config);
      total_errors += result.errors.total();
      mismatches += result.errors.input_mismatches_cv;
      wrong += result.wrong_decisions;
      total_frames += result.frames_sent;
      staleness.merge(result.staleness);
    }
    const double rate =
        100.0 * static_cast<double>(total_errors) / static_cast<double>(total_frames);
    std::printf("  %-6zu %10.3f %12llu %14.2f %14.0f %12llu\n", depth, rate,
                static_cast<unsigned long long>(mismatches), staleness.mean(), staleness.max(),
                static_cast<unsigned long long>(wrong));
    if (depth == 1) {
      first_rate = rate;
      first_staleness = staleness.mean();
    } else {
      errors_drop = errors_drop && rate < first_rate;
      staleness_grows = staleness_grows && staleness.mean() > first_staleness;
    }
    errors_persist = errors_persist && total_errors > 0;
  }
  std::printf("\n  expected: deeper buffers absorb part of the jitter, so the error rate\n");
  std::printf("  drops below depth 1's: %s\n", verdict(errors_drop));
  std::printf("  but stays nonzero at every depth: %s\n", verdict(errors_persist));
  std::printf("  and the logic is fed staler data than at depth 1: %s\n",
              verdict(staleness_grows));
  std::printf("  Buffer depth trades errors for staleness; it does not buy determinism.\n");
  return errors_drop && errors_persist && staleness_grows ? 0 : 1;
}

// --- stp -----------------------------------------------------------------------
//
// Paper §III.A: "when a reactor receives a message with tag t from the
// network, it has to schedule an action with tag t+D+L+E ... The physical
// time delay enforced by the scheduler ensures that no message with a
// timestamp smaller than t is still expected to arrive."
//
// Sweeps the assumed latency bound L against a fixed actual latency
// distribution and counts tardy messages (whose safe-to-process tag had
// already passed on arrival). Tardiness is zero once L covers the actual
// worst case and grows as L shrinks below it; delivered messages stay in
// tag order at every point (violations are observable, never silent
// reordering).

constexpr someip::ServiceId kStpService = 0x0C0C;
constexpr someip::EventId kStpEvent = 0x8001;

class StpSkeleton : public ara::ServiceSkeleton {
 public:
  explicit StpSkeleton(ara::Runtime& rt) : ServiceSkeleton(rt, {kStpService, 1}) {}
  ara::SkeletonEvent<std::int64_t> data{*this, kStpEvent};
};

class StpProxy : public ara::ServiceProxy {
 public:
  StpProxy(ara::Runtime& rt, net::Endpoint server) : ServiceProxy(rt, {kStpService, 1}, server) {}
  ara::ProxyEvent<std::int64_t> data{*this, kStpEvent};
};

class Producer final : public reactor::Reactor {
 public:
  reactor::Output<std::int64_t> out{"out", this};
  Producer(reactor::Environment& env, Duration period, std::int64_t limit)
      : Reactor("producer", env), timer_("t", this, period) {
    add_reaction("emit",
                 [this, limit] {
                   if (next_ < limit) {
                     out.set(next_++);
                   }
                 })
        .triggered_by(timer_)
        .writes(out);
  }

 private:
  reactor::Timer timer_;
  std::int64_t next_{0};
};

class Consumer final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  std::uint64_t received{0};
  bool in_order{true};
  explicit Consumer(reactor::Environment& env) : Reactor("consumer", env) {
    add_reaction("record",
                 [this] {
                   if (in.get() <= last_) {
                     in_order = false;
                   }
                   last_ = in.get();
                   ++received;
                 })
        .triggered_by(in);
  }

 private:
  std::int64_t last_{-1};
};

struct StpPoint {
  std::uint64_t delivered;
  std::uint64_t tardy;
  bool in_order;
};

StpPoint run_stp_point(Duration assumed_bound, Duration actual_max, std::int64_t events,
                       std::uint64_t seed) {
  common::Rng rng(seed);
  sim::Kernel kernel;
  net::SimNetwork network(kernel, rng.stream("net"));
  net::LinkParams link;
  link.latency = sim::ExecTimeModel::uniform(actual_max / 10, actual_max);
  network.set_default_link(link);
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor(kernel, rng.stream("exec"));
  ara::Runtime server_rt(network, discovery, executor, {1, 100}, 0x01);
  ara::Runtime client_rt(network, discovery, executor, {2, 200}, 0x02);
  StpSkeleton skeleton(server_rt);
  skeleton.OfferService();
  StpProxy proxy(client_rt, *client_rt.resolve({kStpService, 1}));

  reactor::SimClock clock(kernel);
  reactor::Environment::Config env_config;
  env_config.keepalive = true;
  reactor::Environment server_env(clock, env_config);
  reactor::Environment client_env(clock, env_config);

  transact::TransactorConfig config;
  config.deadline = 1_ms;
  config.latency_bound = assumed_bound;
  Producer producer(server_env, 5_ms, events);
  transact::ServerEventTransactor<std::int64_t> server_tx("server_tx", server_env, skeleton.data,
                                                          server_rt.binding(), config);
  server_env.connect(producer.out, server_tx.in);
  Consumer consumer(client_env);
  transact::ClientEventTransactor<std::int64_t> client_tx("client_tx", client_env, proxy.data,
                                                          client_rt.binding(), config);
  client_env.connect(client_tx.out, consumer.in);

  kernel.run_until(100_ms);  // settle subscription
  reactor::SimDriver server_driver(server_env, kernel, rng.stream("sd"));
  reactor::SimDriver client_driver(client_env, kernel, rng.stream("cd"));
  server_driver.start();
  client_driver.start();
  kernel.run_until(100_ms + (events + 100) * 5_ms);
  return StpPoint{consumer.received, client_tx.tardy_messages(), consumer.in_order};
}

int run_stp(int argc, const char* const* argv) {
  common::Cli cli("dear_reports stp",
                  "Safe-to-process sweep: assumed latency bound L vs actual latency.");
  cli.add_int("events", 2000, "events per sweep point");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  const std::uint64_t events = cli.get_int("events");
  const Duration actual_max = 10_ms;

  std::printf("=====================================================================\n");
  std::printf("Safe-to-process sweep: assumed latency bound L vs actual latency\n");
  std::printf("(actual latency uniform in [1, 10] ms; %llu events per point)\n",
              static_cast<unsigned long long>(events));
  std::printf("=====================================================================\n\n");
  std::printf("  %-10s %12s %12s %10s %10s\n", "assumed L", "delivered", "tardy", "tardy(%)",
              "in-order");

  bool always_in_order = true;
  bool no_tardy_once_covered = true;
  for (const Duration bound : {1_ms, 2_ms, 3_ms, 5_ms, 8_ms, 10_ms, 15_ms, 20_ms}) {
    const StpPoint point =
        run_stp_point(bound, actual_max, static_cast<std::int64_t>(events), 42);
    std::printf("  %-10s %12llu %12llu %10.3f %10s\n", format_duration(bound).c_str(),
                static_cast<unsigned long long>(point.delivered),
                static_cast<unsigned long long>(point.tardy),
                100.0 * static_cast<double>(point.tardy) / static_cast<double>(events),
                point.in_order ? "yes" : "NO");
    always_in_order = always_in_order && point.in_order;
    if (bound >= actual_max && point.tardy != 0) {
      no_tardy_once_covered = false;
    }
  }
  std::printf("\n  expected: the tardy rate falls as L grows and reaches zero at or before\n");
  std::printf("  the actual worst case (10 ms), because the receiver's logical time lags\n");
  std::printf("  physical time: %s\n", verdict(no_tardy_once_covered));
  std::printf("  delivered messages stay in tag order at every point (violations are\n");
  std::printf("  observable errors, never silent reordering): %s\n", verdict(always_in_order));
  return always_in_order && no_tardy_once_covered ? 0 : 1;
}

// --- det-client ----------------------------------------------------------------
//
// Paper §II.B: "Because its scope is limited to individual SWCs, the
// solution only addresses the first source of nondeterminism. Applications
// that consist of multiple communicating deterministic clients can still
// exhibit nondeterminism via 2) and 3)."
//
// Runs one workload through three coordination schemes: classic
// thread-style SWCs with one-slot buffers (the APD default), every SWC
// driven by the AP deterministic client, and DEAR reactors with
// transactors. The first two show the same class of errors (buffer races
// are untouched); DEAR shows none.

int run_det_client(int argc, const char* const* argv) {
  common::Cli cli("dear_reports det-client",
                  "Baseline comparison: classic vs AP deterministic client vs DEAR.");
  cli.add_int("frames", 20'000, "frames per run (10 seeds)");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  const std::uint64_t frames = cli.get_int("frames");

  std::printf("=====================================================================\n");
  std::printf("Baseline comparison: classic vs AP deterministic client vs DEAR\n");
  std::printf("(%llu frames per run; totals of the four Figure 5 error classes)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-5s %14s %14s %14s\n", "seed", "classic", "det.client", "DEAR");

  std::uint64_t classic_total = 0;
  std::uint64_t det_client_total = 0;
  std::uint64_t dear_total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    brake::ScenarioConfig classic;
    classic.frames = frames;
    classic.platform_seed = seed;
    classic.sensor_seed = seed + 1000;

    brake::DearScenarioConfig dear_config;
    dear_config.frames = frames;
    dear_config.platform_seed = seed;
    dear_config.sensor_seed = seed + 1000;

    const auto classic_result = brake::run_nondet_pipeline(classic);
    const auto det_client_result = brake::run_det_client_pipeline(classic);
    const auto dear_result = brake::run_dear_pipeline(dear_config);

    classic_total += classic_result.errors.total();
    det_client_total += det_client_result.errors.total();
    dear_total += dear_result.errors.total() + dear_result.deadline_violations +
                  dear_result.tardy_messages;
    std::printf("  %-5llu %14llu %14llu %14llu\n", static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(classic_result.errors.total()),
                static_cast<unsigned long long>(det_client_result.errors.total()),
                static_cast<unsigned long long>(dear_result.errors.total()));
  }
  std::printf("  %-5s %14llu %14llu %14llu\n", "total",
              static_cast<unsigned long long>(classic_total),
              static_cast<unsigned long long>(det_client_total),
              static_cast<unsigned long long>(dear_total));
  std::printf("\n  expected: the deterministic client does not reduce inter-SWC errors\n");
  std::printf("  (sources 2 and 3 persist); DEAR eliminates them.\n");
  return dear_total == 0 ? 0 : 1;
}

// --- dispatch ------------------------------------------------------------------

struct Subcommand {
  std::string_view name;
  const char* summary;
  int (*run)(int, const char* const*);
};

constexpr Subcommand kSubcommands[] = {
    {"fig1", "Figure 1: printed-value distribution, nondet vs DEAR", run_fig1},
    {"fig5", "Figure 5: brake-assistant error prevalence, nondet vs DEAR", run_fig5},
    {"tradeoff", "deadline scale vs end-to-end latency and error rate", run_tradeoff},
    {"ablation", "input-buffer depth of the classic pipeline", run_ablation},
    {"stp", "safe-to-process: assumed latency bound vs tardiness", run_stp},
    {"det-client", "classic vs AP deterministic client vs DEAR", run_det_client},
};

void list_subcommands(std::FILE* out) {
  std::fputs("dear_reports — the paper-figure reports.\n\n"
             "usage: dear_reports <subcommand> [options]   (<subcommand> --help for options)\n\n"
             "Subcommands:\n",
             out);
  for (const Subcommand& subcommand : kSubcommands) {
    std::fprintf(out, "  %-12s %s\n", subcommand.name.data(), subcommand.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view requested = argc > 1 ? argv[1] : "";
  if (requested == "--help") {
    list_subcommands(stdout);
    return 0;
  }
  for (const Subcommand& subcommand : kSubcommands) {
    if (subcommand.name == requested) {
      return subcommand.run(argc - 1, argv + 1);
    }
  }
  if (!requested.empty()) {
    std::fprintf(stderr, "dear_reports: unknown subcommand '%s'\n\n", argv[1]);
  }
  list_subcommands(stderr);
  return 1;
}
