// Actions, timers and the startup/shutdown triggers.
//
// "Reactions can also be triggered by action events, which may emanate
// from asynchronous resources (e.g., a sporadic sensor) managed within the
// reactor. Such asynchronously scheduled actions, called physical actions,
// are tagged based on the last observed physical time" (paper §III.A).
//
// LogicalAction::schedule derives the event tag from the *current logical
// tag* plus a delay; PhysicalAction::schedule derives it from the physical
// clock. PhysicalAction::schedule_at places an event at an explicit tag —
// the primitive the DEAR transactors use to realize the PTIDES
// safe-to-process rule (tag = t + D + L + E).
//
// Under the threaded driver both PhysicalAction entry points are safe to
// call from any thread. Under the DES driver the scheduler is single-owner
// (see scheduler.hpp): they may only be called from the kernel thread that
// drives it, i.e. from DES handlers and reaction bodies.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "common/flat_map.hpp"
#include "reactor/element.hpp"
#include "reactor/fwd.hpp"
#include "reactor/tag.hpp"

namespace dear::reactor {

class BaseAction : public Element {
 public:
  BaseAction(Name name, Reactor& container, Duration min_delay = 0);

  [[nodiscard]] bool is_present() const noexcept { return present_; }
  [[nodiscard]] Duration min_delay() const noexcept { return min_delay_; }

  /// Reactions triggered by this action: a row of the environment's
  /// DependencyGraph, bound at assembly.
  [[nodiscard]] std::span<Reaction* const> triggered_reactions() const noexcept {
    return triggers_;
  }

 protected:
  friend class Scheduler;

  /// Installs the value scheduled for `tag` and marks the action present.
  /// Runs at the start of tag processing.
  virtual void setup(const Tag& tag) { present_ = true; (void)tag; }

  /// Clears presence at the end of tag processing.
  virtual void cleanup() noexcept { present_ = false; }

  bool present_{false};

 private:
  friend class DependencyGraph;

  Duration min_delay_;
  std::span<Reaction* const> triggers_;
  /// Row in the environment's DependencyGraph action table.
  std::uint32_t graph_row_{UINT32_MAX};
};

template <typename T>
class ValuedAction : public BaseAction {
 public:
  using BaseAction::BaseAction;

  /// Value carried by the event at the current tag.
  [[nodiscard]] const T& get() const {
    if (value_ == nullptr) {
      throw std::logic_error("get() on absent action: " + std::string(this->fqn()));
    }
    return *value_;
  }

  [[nodiscard]] ImmutableValuePtr<T> get_ptr() const noexcept { return value_; }

 protected:
  void setup(const Tag& tag) override {
    BaseAction::setup(tag);
    const auto it = pending_.find(tag);
    value_ = it != pending_.end() ? it->second : nullptr;
    if (it != pending_.end()) {
      pending_.erase(it);
    }
  }

  void cleanup() noexcept override {
    BaseAction::cleanup();
    value_.reset();
  }

  /// Guarded by the scheduler lock (see Scheduler::schedule_*). A sorted
  /// flat map: the handful of in-flight tags per action make contiguous
  /// storage (no per-schedule node allocation) the right trade.
  common::FlatMap<Tag, ImmutableValuePtr<T>> pending_;
  ImmutableValuePtr<T> value_;
};

/// Scheduled relative to the current *logical* tag; only valid from within
/// reaction execution.
template <typename T = Empty>
class LogicalAction final : public ValuedAction<T> {
 public:
  LogicalAction(Name name, Reactor* container, Duration min_delay = 0);

  /// Schedules an event `delay + min_delay` after the current tag (one
  /// microstep later when the total delay is zero).
  void schedule(ImmutableValuePtr<T> value, Duration delay = 0);
  void schedule(const T& value, Duration delay = 0) {
    schedule(make_immutable_value<T>(value), delay);
  }
  void schedule() requires std::same_as<T, Empty> { schedule(Empty{}); }
  void schedule_delayed(Duration delay) requires std::same_as<T, Empty> {
    schedule(Empty{}, delay);
  }
};

/// Scheduled from asynchronous contexts; the tag derives from physical time.
template <typename T = Empty>
class PhysicalAction final : public ValuedAction<T> {
 public:
  PhysicalAction(Name name, Reactor* container, Duration min_delay = 0);

  /// Tags the event with (physical now + min_delay + delay). Thread-safe
  /// unless the scheduler is single-owner.
  void schedule(ImmutableValuePtr<T> value, Duration delay = 0);
  void schedule(const T& value, Duration delay = 0) {
    schedule(make_immutable_value<T>(value), delay);
  }
  void schedule() requires std::same_as<T, Empty> { schedule(Empty{}); }

  /// Places an event at an explicit tag (the DEAR safe-to-process entry
  /// point). Returns false — without scheduling — when `tag` is not
  /// strictly greater than the current tag (a tardy event). Thread-safe
  /// unless the scheduler is single-owner.
  [[nodiscard]] bool schedule_at(const Tag& tag, ImmutableValuePtr<T> value);
  [[nodiscard]] bool schedule_at(const Tag& tag, const T& value) {
    return schedule_at(tag, make_immutable_value<T>(value));
  }
};

/// Periodic timer: first fires at start + offset, then every period.
class Timer final : public BaseAction {
 public:
  Timer(Name name, Reactor* container, Duration period, Duration offset = 0);

  [[nodiscard]] Duration period() const noexcept { return period_; }
  [[nodiscard]] Duration offset() const noexcept { return offset_; }

 protected:
  friend class Scheduler;
  void setup(const Tag& tag) override;

 private:
  friend class Environment;
  /// Called once at startup to arm the first firing.
  void arm(const Tag& start_tag);

  Duration period_;
  Duration offset_;
};

/// Present exactly at the start tag.
class StartupTrigger final : public BaseAction {
 public:
  StartupTrigger(Name name, Reactor* container);
};

/// Present exactly at the shutdown tag.
class ShutdownTrigger final : public BaseAction {
 public:
  ShutdownTrigger(Name name, Reactor* container);
};

}  // namespace dear::reactor
