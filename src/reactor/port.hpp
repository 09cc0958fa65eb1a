// Reactor ports and connections.
//
// "Reactors only communicate to one another via channels that connect
// reactor ports" (paper §III.A). A connection binds a source port to a
// sink; values are shared immutable pointers, so fan-out is free. Reading
// follows the inward-binding chain to the source, writing is only allowed
// on unbound (source) ports.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "reactor/element.hpp"
#include "reactor/fwd.hpp"

namespace dear::reactor {

enum class PortDirection : std::uint8_t { kInput, kOutput };

class BasePort : public Element {
 public:
  BasePort(Name name, PortDirection direction, Reactor& container);

  [[nodiscard]] PortDirection direction() const noexcept { return direction_; }
  [[nodiscard]] bool is_input() const noexcept { return direction_ == PortDirection::kInput; }
  [[nodiscard]] bool is_output() const noexcept { return direction_ == PortDirection::kOutput; }

  /// True when a value was set at the current tag (anywhere along the
  /// binding chain).
  [[nodiscard]] bool is_present() const noexcept { return source().present_; }

  [[nodiscard]] BasePort* inward_binding() const noexcept { return inward_; }

  /// Reactions to stage when this port's *source* becomes present,
  /// including reactions triggered by transitively bound sinks: a row of
  /// the environment's DependencyGraph, bound at assembly.
  [[nodiscard]] std::span<Reaction* const> triggered_closure() const noexcept {
    return closure_;
  }

  // --- assembly-time wiring (used by Environment) -----------------------------

  /// Binds `sink` downstream of this port and records the connection in
  /// the environment's wiring record.
  void bind_to(BasePort* sink);

 protected:
  [[nodiscard]] const BasePort& source() const noexcept {
    const BasePort* port = this;
    while (port->inward_ != nullptr) {
      port = port->inward_;
    }
    return *port;
  }
  [[nodiscard]] BasePort& source() noexcept {
    return const_cast<BasePort&>(static_cast<const BasePort*>(this)->source());
  }

  /// Marks present and stages triggered reactions; called by Port<T>::set.
  void signal_presence();

  bool present_{false};

 protected:
  friend class Scheduler;
  virtual void cleanup() noexcept { present_ = false; }

 private:
  friend class DependencyGraph;

  PortDirection direction_;
  BasePort* inward_{nullptr};
  std::span<Reaction* const> closure_;
  /// Row in the environment's DependencyGraph port table.
  std::uint32_t graph_row_{UINT32_MAX};
};

template <typename T>
class Port : public BasePort {
 public:
  using BasePort::BasePort;

  /// Writes a value at the current tag. Only valid during reaction
  /// execution, on ports without an inward binding.
  void set(ImmutableValuePtr<T> value) {
    if (inward_binding() != nullptr) {
      throw std::logic_error("cannot set a port with an inward binding: " + std::string(fqn()));
    }
    assert(value != nullptr);
    value_ = std::move(value);
    signal_presence();
  }

  void set(const T& value) { set(make_immutable_value<T>(value)); }
  void set(T&& value) { set(make_immutable_value<T>(std::move(value))); }

  /// For Port<Empty> style pure signals.
  void set() requires std::same_as<T, Empty> { set(Empty{}); }

  /// Reads the value at the current tag; requires is_present().
  [[nodiscard]] const T& get() const {
    const auto& src = static_cast<const Port<T>&>(source());
    assert(src.value_ != nullptr && "get() on absent port");
    return *src.value_;
  }

  /// Shared pointer to the current value (null when absent).
  [[nodiscard]] ImmutableValuePtr<T> get_ptr() const {
    return static_cast<const Port<T>&>(source()).value_;
  }

 protected:
  void cleanup() noexcept override {
    BasePort::cleanup();
    value_.reset();
  }

 private:
  ImmutableValuePtr<T> value_;
};

template <typename T>
class Input final : public Port<T> {
 public:
  Input(Name name, Reactor* container);
};

template <typename T>
class Output final : public Port<T> {
 public:
  Output(Name name, Reactor* container);
};

}  // namespace dear::reactor
