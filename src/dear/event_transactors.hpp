// Client and server event transactors (paper §III.B).
//
// AP events are one-way server→client notifications, so the *server* side
// sends (with deadline Ds folded into the wire tag) and the *client* side
// receives and applies the safe-to-process rule. These two transactors
// carry the brake-assistant pipeline in the case study.
#pragma once

#include "ara/event.hpp"
#include "dear/transactor_base.hpp"

namespace dear::transact {

/// Server role: forwards events produced by the server logic to the AP
/// service event.
template <typename T>
class ServerEventTransactor final : public Transactor {
 public:
  /// Event samples from the server logic; sending deadline Ds applies.
  reactor::Input<T> in{"in", this};

  ServerEventTransactor(reactor::Name name, reactor::Environment& environment,
                        ara::SkeletonEvent<T>& event, ara::com::TransportBinding& binding,
                        TransactorConfig config)
      : Transactor(name, environment, binding, config), event_(event) {
    add_reaction("on_event",
                 [this] {
                   const reactor::Tag out_tag = current_tag().delay(this->config().deadline);
                   this->binding().attach_send_tag(to_wire(out_tag));
                   count_sent();
                   event_.Send(in.get());
                 })
        .triggered_by(in)
        .with_deadline(this->config().deadline, [this] {
          // Missed deadline: the sample is not sent — an observable error
          // rather than silent nondeterminism.
          count_deadline_violation();
        });
  }

 private:
  ara::SkeletonEvent<T>& event_;
};

/// Client role: subscribes to an AP service event and releases samples into
/// the reactor network at tag t + L + E (t already includes the sender's D).
template <typename T>
class ClientEventTransactor final : public Transactor {
 public:
  /// Emits received samples at their safe-to-process tag.
  reactor::Output<T> out{"out", this};

  ClientEventTransactor(reactor::Name name, reactor::Environment& environment,
                        ara::ProxyEvent<T>& event, ara::com::TransportBinding& binding,
                        TransactorConfig config)
      : Transactor(name, environment, binding, config), event_(event) {
    event_.SetImmediateReceiveHandler(
        [this](const T& sample) { release_received(arrival_, sample); });
    event_.Subscribe();

    add_reaction("on_arrival", [this] { out.set(arrival_.get_ptr()); })
        .triggered_by(arrival_)
        .writes(out);
  }

  /// Subscription churn hooks (fault-injection scenarios): drop and
  /// re-establish the underlying ara::com subscription at runtime. While
  /// unsubscribed, samples are simply not received — the DEAR release
  /// logic is untouched, so the first sample after a resubscribe releases
  /// by the ordinary wire-tag rule.
  void unsubscribe() { event_.Unsubscribe(); }
  void resubscribe() {
    if (!event_.subscribed()) {
      event_.Subscribe();
    }
  }
  [[nodiscard]] bool subscribed() const noexcept { return event_.subscribed(); }

 private:
  ara::ProxyEvent<T>& event_;
  reactor::PhysicalAction<T> arrival_{"arrival", this};
};

}  // namespace dear::transact
