// Quickstart: a minimal deterministic reactor program on the threaded
// runtime.
//
// Topology:   Sensor --(reading)--> Controller --(command)--> Actuator
//
// The sensor samples every 10 ms (a timer), the controller smooths the
// readings, and the actuator has a 2 ms deadline — if its reaction were
// triggered too late, the deadline handler would run instead. With a sane
// machine this program prints 20 in-order actuations and exits.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "reactor/runtime.hpp"

using namespace dear;
using namespace dear::literals;

namespace {

class Sensor final : public reactor::Reactor {
 public:
  reactor::Output<double> reading{"reading", this};

  Sensor(reactor::Environment& env, int samples)
      : Reactor("sensor", env), samples_(samples) {
    add_reaction("sample",
                 [this] {
                   // A deterministic waveform standing in for real sensor data.
                   const double value = 20.0 + 5.0 * static_cast<double>(count_ % 7);
                   reading.set(value);
                   if (++count_ >= samples_) {
                     request_shutdown();
                   }
                 })
        .triggered_by(timer_)
        .writes(reading);
  }

 private:
  reactor::Timer timer_{"timer", this, 10_ms};
  int count_{0};
  int samples_;
};

class Controller final : public reactor::Reactor {
 public:
  reactor::Input<double> reading{"reading", this};
  reactor::Output<double> command{"command", this};

  explicit Controller(reactor::Environment& env) : Reactor("controller", env) {
    add_reaction("control",
                 [this] {
                   // Exponential smoothing — logically instantaneous.
                   smoothed_ = 0.8 * smoothed_ + 0.2 * reading.get();
                   command.set(smoothed_);
                 })
        .triggered_by(reading)
        .writes(command);
  }

 private:
  double smoothed_{20.0};
};

class Actuator final : public reactor::Reactor {
 public:
  reactor::Input<double> command{"command", this};

  explicit Actuator(reactor::Environment& env) : Reactor("actuator", env) {
    add_reaction("actuate",
                 [this] {
                   std::printf("t=%-8s command=%.3f\n",
                               format_duration(elapsed_logical_time()).c_str(), command.get());
                 })
        .triggered_by(command)
        .with_deadline(2_ms, [this] {
          std::printf("t=%-8s DEADLINE VIOLATION (actuation skipped)\n",
                      format_duration(elapsed_logical_time()).c_str());
        });
  }
};

}  // namespace

int main() {
  reactor::RealClock clock;
  reactor::Environment env(clock);

  Sensor sensor(env, 20);
  Controller controller(env);
  Actuator actuator(env);
  env.connect(sensor.reading, controller.reading);
  env.connect(controller.command, actuator.command);

  env.run();

  std::printf("done: %llu reactions across %llu tags, %llu deadline violations\n",
              static_cast<unsigned long long>(env.scheduler().reactions_executed()),
              static_cast<unsigned long long>(env.scheduler().tags_processed()),
              static_cast<unsigned long long>(env.scheduler().deadline_violations()));
  return 0;
}
