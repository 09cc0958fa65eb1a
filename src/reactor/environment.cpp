#include "reactor/environment.hpp"

#include <algorithm>
#include <new>

#include "reactor/action.hpp"
#include "reactor/graph.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Environment::Environment(PhysicalClock& clock, Config config)
    : clock_(clock), config_(config), scheduler_(clock) {}

Environment::~Environment() = default;

void Environment::register_top_level(Reactor* reactor) noexcept { top_level_.push_back(reactor); }

std::string_view Environment::store_joined(std::initializer_list<std::string_view> parts) {
  std::size_t size = parts.size() - 1;  // the separators
  for (const std::string_view part : parts) {
    size += part.size();
  }
  char* const text = static_cast<char*>(arena_.allocate(size, 1));
  char* out = text;
  for (const std::string_view part : parts) {
    if (out != text) {
      *out++ = '.';
    }
    out = std::copy(part.begin(), part.end(), out);
  }
  return {text, size};
}

std::string_view Environment::store_name(Name name) {
  return name.prefix.empty() ? store_joined({name.member}) : store_joined({name.prefix, name.member});
}

std::string_view Environment::store_name(std::string_view scope, Name name) {
  return name.prefix.empty() ? store_joined({scope, name.member})
                             : store_joined({scope, name.prefix, name.member});
}

void Environment::record_wiring(const Wiring& wiring) {
  auto* entry = new (arena_.allocate(sizeof(Wiring), alignof(Wiring))) Wiring(wiring);
  entry->next = nullptr;
  (wiring_tail_ == nullptr ? wiring_head_ : wiring_tail_->next) = entry;
  wiring_tail_ = entry;
}

void Environment::set_schedule_plan(SchedulePlan plan) {
  if (assembled_) {
    throw std::logic_error("set_schedule_plan after assemble");
  }
  plan_ = std::move(plan);
}

DependencyGraph& Environment::graph() {
  if (!graph_.has_value()) {
    graph_.emplace(*this);
  }
  return *graph_;
}

void Environment::throw_wiring_frozen(std::string_view what, std::string_view subject) {
  throw std::logic_error(std::string(what)
                             .append(" after the reactor graph was built: ")
                             .append(subject));
}

void Environment::assemble() {
  if (assembled_) {
    return;
  }
  DependencyGraph& graph = this->graph();
  level_count_ = plan_.has_value() ? graph.apply_plan(*plan_) : graph.assign_levels();
  graph.bind_closures();
  for (BaseAction* action : graph.actions()) {
    if (auto* timer = dynamic_cast<Timer*>(action); timer != nullptr) {
      scheduler_.register_timer(timer);
    } else if (dynamic_cast<StartupTrigger*>(action) != nullptr) {
      scheduler_.register_startup(action);
    } else if (dynamic_cast<ShutdownTrigger*>(action) != nullptr) {
      scheduler_.register_shutdown(action);
    }
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
