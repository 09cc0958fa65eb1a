// Client and server method transactors (paper §III.B, Figure 3).
//
// The numbered steps below refer to Figure 3 of the paper:
//
//   client reactor --(1)--> ClientMethodTransactor
//     reaction (deadline Dc): deposit tc+Dc in the bypass (2), invoke the
//     proxy method (3); the modified binding attaches the tag (5) and the
//     message crosses the network (6).
//   ServerMethodTransactor: the skeleton handler fires (9), collects tc+Dc
//     from the bypass (10) and schedules an action at tc+Dc+L+E; the
//     reaction to that action forwards the arguments to the server logic
//     (11). The server logic answers on the response port (12); the
//     response reaction (deadline Ds) deposits ts+Ds (13) and fulfills the
//     promise (14), causing the skeleton to transmit the tagged response
//     (16, 17).
//   Back at the client, the response resolves the future (20); the
//     transactor collects ts+Ds (21), schedules an action at ts+Ds+L+E and
//     its reaction emits the result on the output port (22).
//
// Methods with multiple parameters are modeled with a single request
// struct (as generated proxy code would bundle them).
#pragma once

#include <deque>
#include <mutex>

#include "ara/method.hpp"
#include "dear/transactor_base.hpp"

namespace dear::transact {

template <typename Req, typename Res>
class ClientMethodTransactor final : public Transactor {
 public:
  /// Event with the method arguments; sending deadline Dc applies here.
  reactor::Input<Req> request{"request", this};
  /// Emits the method result at tag ts + Ds + L + E.
  reactor::Output<Res> response{"response", this};

  ClientMethodTransactor(reactor::Name name, reactor::Environment& environment,
                         ara::ProxyMethod<Res, Req>& method, ara::com::TransportBinding& binding,
                         TransactorConfig config)
      : Transactor(name, environment, binding, config), method_(method) {
    add_reaction("on_request",
                 [this] {
                   // (1)-(3): tag the outgoing call with tc + Dc.
                   const reactor::Tag out_tag = current_tag().delay(this->config().deadline);
                   this->binding().attach_send_tag(to_wire(out_tag));
                   count_sent();
                   ara::Future<Res> future = method_(request.get());
                   future.then([this](const ara::Result<Res>& result) {
                     if (!result.has_value()) {
                       count_remote_error();
                       return;
                     }
                     // (20)-(21): release at ts + Ds + L + E.
                     release_received(response_arrival_, result.value());
                   });
                 })
        .triggered_by(request)
        .with_deadline(this->config().deadline, [this] { count_deadline_violation(); });

    add_reaction("on_response", [this] { response.set(response_arrival_.get_ptr()); })
        .triggered_by(response_arrival_)
        .writes(response);
  }

 private:
  ara::ProxyMethod<Res, Req>& method_;
  reactor::PhysicalAction<Res> response_arrival_{"response_arrival", this};
};

template <typename Req, typename Res>
class ServerMethodTransactor final : public Transactor {
 public:
  /// Emits the method arguments into the server logic at tag tc + Dc + L + E.
  reactor::Output<Req> request{"request", this};
  /// The server logic's reply; sending deadline Ds applies here. Replies
  /// must arrive in request order (the server logic reacts to each request
  /// event exactly once).
  reactor::Input<Res> response{"response", this};

  ServerMethodTransactor(reactor::Name name, reactor::Environment& environment,
                         ara::SkeletonMethod<Res, Req>& method, ara::com::TransportBinding& binding,
                         TransactorConfig config)
      : Transactor(name, environment, binding, config) {
    method.set_immediate_handler([this](const Req& arguments) -> ara::Future<Res> {
      // (9)-(10): runs on the skeleton dispatch path.
      ara::Promise<Res> promise;
      ara::Future<Res> future = promise.get_future();
      {
        const std::lock_guard<std::mutex> lock(pending_mutex_);
        pending_.push_back(promise);
      }
      const std::uint64_t released_before = messages_released();
      release_received(request_arrival_, arguments);
      if (messages_released() == released_before) {
        // Tardy or dropped: the request never enters the reactor network,
        // so fail its promise immediately.
        const std::lock_guard<std::mutex> lock(pending_mutex_);
        pending_.back().SetError(ara::ComErrc::kCommunicationTimeout);
        pending_.pop_back();
      }
      return future;
    });

    add_reaction("on_request", [this] { request.set(request_arrival_.get_ptr()); })
        .triggered_by(request_arrival_)
        .writes(request);

    add_reaction("on_response",
                 [this] {
                   // (12)-(14): tag the response with ts + Ds and fulfill
                   // the promise; the skeleton then transmits it.
                   ara::Promise<Res> promise;
                   {
                     const std::lock_guard<std::mutex> lock(pending_mutex_);
                     if (pending_.empty()) {
                       return;  // response without a matching request
                     }
                     promise = pending_.front();
                     pending_.pop_front();
                   }
                   const reactor::Tag out_tag = current_tag().delay(this->config().deadline);
                   this->binding().attach_send_tag(to_wire(out_tag));
                   count_sent();
                   promise.set_value(response.get());
                 })
        .triggered_by(response)
        .with_deadline(this->config().deadline, [this] {
          // The response missed its deadline: observable error; the client
          // receives a remote error instead of a stale value.
          count_deadline_violation();
          const std::lock_guard<std::mutex> lock(pending_mutex_);
          if (!pending_.empty()) {
            pending_.front().SetError(ara::ComErrc::kRemoteError);
            pending_.pop_front();
          }
        });
  }

 private:
  reactor::PhysicalAction<Req> request_arrival_{"request_arrival", this};
  std::mutex pending_mutex_;
  std::deque<ara::Promise<Res>> pending_;
};

}  // namespace dear::transact
