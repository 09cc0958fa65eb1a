#include "reactor/sim_driver.hpp"

namespace dear::reactor {

SimDriver::SimDriver(Environment& environment, sim::Kernel& kernel, common::Rng cost_rng)
    : environment_(environment), kernel_(kernel), cost_rng_(cost_rng) {}

SimDriver::~SimDriver() {
  environment_.scheduler().detach();
  if (armed_) {
    kernel_.cancel(armed_event_);
  }
}

void SimDriver::start() {
  if (started_) {
    return;
  }
  started_ = true;
  environment_.assemble();
  // The kernel thread is the only one that ever touches this scheduler.
  environment_.scheduler().attach(*this);
  environment_.scheduler().start_at(Tag{kernel_.now(), 0});
  arm();
}

void SimDriver::arm() {
  if (!started_ || finished()) {
    return;
  }
  const Tag next = environment_.scheduler().next_tag();
  if (next == Tag::maximum()) {
    // Idle; a later physical action re-arms (Scheduler::notify).
    if (armed_) {
      kernel_.cancel(armed_event_);
      armed_ = false;
      armed_time_ = kTimeMax;
    }
    return;
  }
  const TimePoint target = std::max(next.time, busy_until_);
  if (armed_ && armed_time_ == target) {
    return;
  }
  if (armed_) {
    kernel_.cancel(armed_event_);
  }
  armed_ = true;
  armed_time_ = target;
  armed_event_ = kernel_.schedule_at(target, [this] { on_wake(); });
}

void SimDriver::on_wake() {
  armed_ = false;
  armed_time_ = kTimeMax;
  if (finished()) {
    return;
  }
  // Respect the busy watermark: if modeled cost pushed us past the wake
  // time, try again later.
  if (kernel_.now() < busy_until_) {
    arm();
    return;
  }
  if (environment_.scheduler().process_next_tag(kernel_.now()).has_value()) {
    const Duration cost = environment_.scheduler().last_tag_cost();
    if (cost > 0) {
      busy_until_ = std::max(busy_until_, kernel_.now()) + cost;
      consumed_cost_ += cost;
    }
  }
  arm();
}

}  // namespace dear::reactor
