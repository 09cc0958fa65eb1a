#include "reactor/environment.hpp"

#include "reactor/action.hpp"
#include "reactor/graph.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Environment::Environment(PhysicalClock& clock, Config config)
    : clock_(clock), config_(config), scheduler_(clock) {}

Environment::~Environment() = default;

void Environment::register_special_actions(Reactor* reactor) {
  for (BaseAction* action : reactor->actions()) {
    if (auto* timer = dynamic_cast<Timer*>(action); timer != nullptr) {
      scheduler_.register_timer(timer);
    } else if (dynamic_cast<StartupTrigger*>(action) != nullptr) {
      scheduler_.register_startup(action);
    } else if (dynamic_cast<ShutdownTrigger*>(action) != nullptr) {
      scheduler_.register_shutdown(action);
    }
  }
  for (Reactor* child : reactor->children()) {
    register_special_actions(child);
  }
}

void Environment::set_schedule_plan(SchedulePlan plan) {
  if (assembled_) {
    throw std::logic_error("set_schedule_plan after assemble");
  }
  plan_ = std::make_unique<SchedulePlan>(std::move(plan));
}

DependencyGraph& Environment::graph() {
  if (graph_ == nullptr) {
    graph_ = std::make_unique<DependencyGraph>(top_level_);
  }
  return *graph_;
}

void Environment::throw_wiring_frozen(std::string_view what, const std::string& subject) {
  throw std::logic_error(std::string(what) + " after the reactor graph was built: " + subject);
}

void Environment::assemble() {
  if (assembled_) {
    return;
  }
  DependencyGraph& graph = this->graph();
  level_count_ = plan_ != nullptr ? graph.apply_plan(*plan_) : graph.assign_levels();
  graph.bind_port_closures();
  for (Reactor* reactor : top_level_) {
    register_special_actions(reactor);
  }
  scheduler_.configure(level_count_, config_.keepalive, config_.timeout);
  scheduler_.trace().set_enabled(config_.tracing);
  assembled_ = true;
}

void Environment::run() {
  assemble();
  scheduler_.run_threaded();
}

void Environment::request_shutdown() { scheduler_.request_stop(); }

}  // namespace dear::reactor
