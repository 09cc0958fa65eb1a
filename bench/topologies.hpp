// Workloads shared by the benchmark suites.
//
// Source -> relays -> sink(s), driven by a logical-action loop — the same
// topology family as the original microbenchmarks. suite_reactor uses the
// DES-driven pipeline/fanout runs. The obs and FT suites share the DEAR
// anchor pipeline run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "brake/dear_pipeline.hpp"
#include "reactor/runtime.hpp"
#include "sim/kernel.hpp"

namespace dear::bench {

class Source final : public reactor::Reactor {
 public:
  reactor::Output<std::int64_t> out{"out", this};

  Source(reactor::Environment& env, std::int64_t limit)
      : reactor::Reactor("source", env), limit_(limit) {
    add_reaction("kick", [this] { action_.schedule(reactor::Empty{}); }).triggered_by(startup_);
    add_reaction("emit",
                 [this] {
                   out.set(count_);
                   if (++count_ < limit_) {
                     action_.schedule(reactor::Empty{});
                   } else {
                     request_shutdown();
                   }
                 })
        .triggered_by(action_)
        .writes(out);
  }

 private:
  reactor::StartupTrigger startup_{"startup", this};
  reactor::LogicalAction<reactor::Empty> action_{"tick", this};
  std::int64_t limit_;
  std::int64_t count_{0};
};

class Relay final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  reactor::Output<std::int64_t> out{"out", this};

  Relay(reactor::Environment& env, std::string name) : reactor::Reactor(std::move(name), env) {
    add_reaction("relay", [this] { out.set(in.get() + 1); }).triggered_by(in).writes(out);
  }
};

class Sink final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  std::int64_t sum{0};

  explicit Sink(reactor::Environment& env, std::string name = "sink")
      : reactor::Reactor(std::move(name), env) {
    add_reaction("consume", [this] { sum += in.get(); }).triggered_by(in);
  }
};

/// DES-driven chain of `depth` relays; returns the sink checksum.
inline std::int64_t run_pipeline(std::size_t depth, std::int64_t events) {
  sim::Kernel kernel;
  reactor::SimClock clock(kernel);
  reactor::Environment env(clock);
  Source source(env, events);
  std::vector<std::unique_ptr<Relay>> relays;
  for (std::size_t i = 0; i < depth; ++i) {
    relays.push_back(std::make_unique<Relay>(env, "relay" + std::to_string(i)));
  }
  Sink sink(env);
  reactor::Output<std::int64_t>* previous = &source.out;
  for (auto& relay : relays) {
    env.connect(*previous, relay->in);
    previous = &relay->out;
  }
  env.connect(*previous, sink.in);
  reactor::SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run();
  return sink.sum;
}

/// DES-driven one-to-many fan-out; returns the first sink's checksum.
inline std::int64_t run_fanout(std::size_t sinks, std::int64_t events) {
  sim::Kernel kernel;
  reactor::SimClock clock(kernel);
  reactor::Environment env(clock);
  Source source(env, events);
  std::vector<std::unique_ptr<Sink>> sink_list;
  for (std::size_t i = 0; i < sinks; ++i) {
    sink_list.push_back(std::make_unique<Sink>(env, "sink" + std::to_string(i)));
    env.connect(source.out, sink_list.back()->in);
  }
  reactor::SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run();
  return sink_list.front()->sum;
}

/// Frames of the DEAR anchor workload below.
inline constexpr std::uint64_t kDearAnchorFrames = 300;

/// The DEAR brake pipeline over SOME/IP at 300 frames, platform seed 7 —
/// the workload whose output digest ctest pins
/// (DearPipeline.AnchorDigestHoldsOnBothTransports). The obs and FT
/// overhead triples time it; `preflight` runs on the built app before it
/// starts.
inline void run_dear_anchor(std::function<void(AppBuilder&)> preflight = {}) {
  brake::DearScenarioConfig config;
  config.frames = kDearAnchorFrames;
  config.platform_seed = 7;
  config.sensor_seed = config.platform_seed + 1000;
  config.preflight = std::move(preflight);
  (void)brake::run_dear_pipeline(config);
}

}  // namespace dear::bench
