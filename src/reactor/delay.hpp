// Delayed connections.
//
// `environment.connect_delayed(a.out, b.in, d)` forwards every value with a
// logical delay of d (one microstep when d == 0) — the reactor-model
// equivalent of Lingua Franca's `after` connections. Implemented as a
// hidden relay reactor owned by the environment: a reaction moves the port
// value onto a logical action, whose min_delay realizes the offset.
#pragma once

#include "reactor/action.hpp"
#include "reactor/port.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

template <typename T>
class DelayRelay final : public Reactor {
 public:
  Input<T> in{"in", this};
  Output<T> out{"out", this};

  DelayRelay(Name name, Environment& environment, Duration delay)
      : Reactor(name, environment), action_("delay", this, delay) {
    // The release reaction is declared *before* the capture reaction so the
    // intra-reactor priority edge points release -> capture; otherwise the
    // relay itself would close a dependency cycle in feedback topologies.
    add_reaction("release", [this] { out.set(action_.get_ptr()); })
        .triggered_by(action_)
        .writes(out);
    add_reaction("capture", [this] { action_.schedule(in.get_ptr()); }).triggered_by(in);
  }

 private:
  LogicalAction<T> action_;
};

}  // namespace dear::reactor
