#include "scenario/testbed.hpp"

#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "obs/obs.hpp"

namespace dear::scenario {

transact::TransactorConfig transactor_config(const PlatformKnobs& knobs, Duration deadline,
                                             Duration clock_error_bound) {
  transact::TransactorConfig tc;
  tc.deadline = scale_duration(deadline, knobs.deadline_scale);
  tc.clock_error_bound = clock_error_bound;
  return tc;
}

Testbed::Testbed(const PlatformKnobs& knobs, Duration dispatch_jitter)
    : platform_rng(knobs.platform_seed),
      sensor_rng(knobs.sensor_seed),
      network(kernel, platform_rng.stream("net")),
      executor(kernel, platform_rng.stream("dispatch"),
               sim::ExecTimeModel::uniform(0, dispatch_jitter)),
      knobs_(knobs) {
  if ((obs::Registry::span_mask() & obs::category_bit(obs::SpanCategory::kScenario)) != 0) {
    build_start_ns_ = obs::steady_now_ns();
  }
  net::LinkParams inter_link;
  inter_link.latency = sim::ExecTimeModel::uniform(kLinkLatencyMin, kLinkLatencyMax);
  network.set_default_link(inter_link);
  // SWC-to-SWC service traffic stays on one platform and rides the
  // loopback link — the surface the network fault knobs stress.
  net::LinkParams svc_link;
  svc_link.latency = sim::ExecTimeModel::uniform(knobs.svc_latency_min, knobs.svc_latency_max);
  svc_link.drop_probability = knobs.net_drop_probability;
  svc_link.duplicate_probability = knobs.net_duplicate_probability;
  svc_link.enforce_in_order = knobs.net_in_order;
  network.set_loopback_link(svc_link);
}

Testbed::~Testbed() {
  if (teardown_start_ns_ >= 0) {
    obs::Span teardown;
    teardown.name = "app.teardown";
    teardown.category = obs::SpanCategory::kScenario;
    teardown.start_ns = teardown_start_ns_;
    teardown.duration_ns = obs::steady_now_ns() - teardown_start_ns_;
    obs::Registry::record_span(teardown);
  }
}

AppBuilder::Config Testbed::app_config() noexcept {
  AppBuilder::Config config;
  config.local_hub = knobs_.transport == Transport::kLocal ? &hub_ : nullptr;
  return config;
}

bool Testbed::execute(AppBuilder& app, const RunHooks& hooks,
                      const std::function<void()>& start_sensor,
                      const std::function<void()>& toggle_churn) {
  // Scenario spans cover the phases of a run: "app.build" from the
  // testbed's construction to here (the app's wiring), then validate,
  // start, settle and run, then "app.teardown" from the end of the run to
  // the testbed's destruction.
  if (build_start_ns_ >= 0) {
    obs::Span build;
    build.name = "app.build";
    build.category = obs::SpanCategory::kScenario;
    build.start_ns = build_start_ns_;
    build.duration_ns = obs::steady_now_ns() - build_start_ns_;
    obs::Registry::record_span(build);
  }
  if (hooks.preflight) {
    hooks.preflight(app);
  }
  if (hooks.build_only) {
    return false;
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kScenario, "app.validate");
    // Fail fast on structural determinism violations before any event
    // runs. The structural gate lets deliberately tightened deadline
    // budgets through: those runs are out-of-envelope experiments whose
    // misses the error counters must observe.
    app.validate(analysis::Gate::kStructural);
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kScenario, "app.start");
    app.start();
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kScenario, "app.settle");
    kernel.run_until(settle());
  }
  // Subscription churn at a fixed physical cadence. The toggle windows are
  // physical time, so churn scenarios are excluded from the
  // digest-invariance groups; the claim under test is error accounting,
  // not bit-identical output.
  const Duration churn_period = knobs_.service_faults.churn_period;
  std::function<void()> churn;
  {
    const obs::SpanScope run_span(obs::SpanCategory::kScenario, "app.run");
    start_sensor();
    if (churn_period > 0) {
      churn = [&] {
        toggle_churn();
        kernel.schedule_after(churn_period, [&] { churn(); });
      };
      kernel.schedule_after(churn_period, [&] { churn(); });
    }
    kernel.run_until(horizon(settle()));
  }
  if (build_start_ns_ >= 0) {
    teardown_start_ns_ = obs::steady_now_ns();
  }
  return true;
}

FaultTolerance::FaultTolerance(const PlatformKnobs& knobs, TimePoint first_release)
    : on_(knobs.service_faults.any()), anchor_(first_release % kSensorPeriod) {
  const ft::ServiceFaultModel& faults = knobs.service_faults;
  plan_.down_from = faults.crash_at > 0 ? first_release + faults.crash_at : Duration{0};
  plan_.down_until = plan_.down_from > 0 && faults.restart_after > 0
                         ? plan_.down_from + faults.restart_after
                         : Duration{0};
  plan_.call_error_probability = faults.call_error_probability;
  plan_.call_omission_probability = faults.call_omission_probability;
  plan_.fault_seed = knobs.fault_seed;
}

reactor::Output<ft::HealthState>* FaultTolerance::deploy(
    AppBuilder& app, AppBuilder::Node& victim, const transact::TransactorConfig& victim_config,
    AppBuilder::Node& supervisor, const transact::TransactorConfig& supervisor_config) {
  if (!on_) {
    return nullptr;
  }
  plan_.victim = victim.runtime().endpoint();
  for (const auto& node : app.nodes()) {
    node->runtime().set_fault_plan(&plan_);
  }
  // Health monitoring rides the same descriptor machinery as the app's
  // services: the victim offers the heartbeat stream, the supervising node
  // classifies it. The timers sit strictly between the chains' wire-tag
  // clouds (samples land near the grid plus a few stage deadlines, window
  // boundaries at +period/2): beats a quarter period off the grid,
  // supervisor checks at +period/4, fallback ticks at +3/8.
  auto& health_srv = victim.serve<ft::Health>(ft::kHealthInstance, victim_config);
  auto& health_cli = supervisor.require<ft::Health>(ft::kHealthInstance, supervisor_config);
  auto& beat_src = victim.logic<ft::HeartbeatEmitter>(
      kSensorPeriod, anchor_ + kSensorPeriod + kSensorPeriod / 4);
  victim.connect(beat_src.out, health_srv.tx(ft::Health::beat).in);
  // Staleness thresholds scale with the app cadence: one missed beat is
  // tolerated, ~2.5 periods without beats counts as degraded, four as dead
  // (engaging the app's fallback).
  ft::SupervisorConfig config;
  config.check_period = kSensorPeriod;
  config.check_phase = anchor_ + kSensorPeriod / 4;
  config.degraded_after = 2 * kSensorPeriod + kSensorPeriod / 2;
  config.dead_after = 4 * kSensorPeriod;
  auto& monitor = supervisor.logic<ft::Supervisor>(config);
  supervisor.connect(health_cli.tx(ft::Health::beat).out, monitor.beat_in);
  supervisor_ = &monitor;
  return &monitor.state_out;
}

ft::Counters FaultTolerance::counters(std::uint64_t retries, std::uint64_t degraded_ticks) const {
  ft::Counters counters;
  counters.crash_drops = plan_.crash_drops.load(std::memory_order_relaxed);
  counters.call_faults = plan_.call_errors.load(std::memory_order_relaxed) +
                         plan_.call_omissions.load(std::memory_order_relaxed);
  counters.retries = retries;
  counters.degraded_ticks = degraded_ticks;
  counters.failovers = supervisor_ != nullptr ? supervisor_->failovers() : 0;
  obs::count(obs::Counter::kFtCrashDrops, counters.crash_drops);
  obs::count(obs::Counter::kFtCallFaults, counters.call_faults);
  obs::count(obs::Counter::kFtDegradedTicks, counters.degraded_ticks);
  return counters;
}

}  // namespace dear::scenario
