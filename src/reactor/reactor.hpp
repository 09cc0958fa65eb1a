// Reactor base class.
//
// A reactor is a container for state, ports, actions, reactions and child
// reactors. User reactors subclass this and declare members; all wiring
// happens in the constructor (see examples/quickstart.cpp). Its reactions
// live in the environment's set-up arena and its element lists are
// intrusive (ElementList), so declaring them allocates nothing per
// element.
#pragma once

#include "reactor/action.hpp"
#include "reactor/element.hpp"
#include "reactor/port.hpp"
#include "reactor/reaction.hpp"

namespace dear::reactor {

class Reactor : public Element {
 public:
  /// Top-level reactor, registered with the environment.
  Reactor(Name name, Environment& environment);
  /// Nested reactor.
  Reactor(Name name, Reactor* parent);
  /// Destroys the reactions; their storage goes with the environment's arena.
  ~Reactor() override;

  /// Declares a reaction. Declaration order defines the total order among
  /// this reactor's reactions (earlier wins at the same tag).
  Reaction& add_reaction(Name name, Reaction::Body body);

  // --- conveniences available to reaction bodies ------------------------------

  [[nodiscard]] const Tag& current_tag() const;
  /// Logical time of the current tag.
  [[nodiscard]] TimePoint logical_time() const;
  /// Logical time elapsed since startup.
  [[nodiscard]] Duration elapsed_logical_time() const;
  [[nodiscard]] TimePoint physical_time() const;
  void request_shutdown() const;

  // --- hierarchy ----------------------------------------------------------------

  [[nodiscard]] const ElementList<Reactor>& children() const noexcept { return children_; }
  [[nodiscard]] const ElementList<BasePort>& ports() const noexcept { return ports_; }
  [[nodiscard]] const ElementList<BaseAction>& actions() const noexcept { return actions_; }
  /// In declaration (priority) order.
  [[nodiscard]] const ElementList<Reaction>& reactions() const noexcept { return reactions_; }

  // --- registration (called from element constructors) ---------------------------

  void register_port(BasePort* port) noexcept { ports_.push_back(port); }
  void register_action(BaseAction* action) noexcept { actions_.push_back(action); }
  void register_child(Reactor* child) noexcept { children_.push_back(child); }

 private:
  ElementList<Reactor> children_;
  ElementList<BasePort> ports_;
  ElementList<BaseAction> actions_;
  ElementList<Reaction> reactions_;
};

// --- out-of-line constructors that need the Reactor definition ------------------

template <typename T>
Input<T>::Input(Name name, Reactor* container)
    : Port<T>(name, PortDirection::kInput, *container) {}

template <typename T>
Output<T>::Output(Name name, Reactor* container)
    : Port<T>(name, PortDirection::kOutput, *container) {}

template <typename T>
LogicalAction<T>::LogicalAction(Name name, Reactor* container, Duration min_delay)
    : ValuedAction<T>(name, *container, min_delay) {}

template <typename T>
PhysicalAction<T>::PhysicalAction(Name name, Reactor* container, Duration min_delay)
    : ValuedAction<T>(name, *container, min_delay) {}

}  // namespace dear::reactor
