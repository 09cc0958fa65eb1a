// Typed service methods.
//
// SkeletonMethod decodes arguments, routes the call through the skeleton's
// processing mode, invokes the user handler (which returns a Future), and
// transmits the response when the promise is fulfilled. ProxyMethod
// serializes arguments, issues the request and resolves the returned
// Future from the response message — non-blocking, exactly the call style
// of Figure 1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "ara/future.hpp"
#include "ara/proxy.hpp"
#include "ara/skeleton.hpp"
#include "common/buffer_pool.hpp"
#include "someip/serialization.hpp"

namespace dear::ara {

template <typename Res, typename... Args>
class SkeletonMethod {
 public:
  using Handler = std::function<Future<Res>(const Args&...)>;

  SkeletonMethod(ServiceSkeleton& skeleton, someip::MethodId method)
      : skeleton_(skeleton), method_(method) {
    skeleton_.register_method(method_,
                              [this](const someip::Message& request, const net::Endpoint& from) {
                                on_request(request, from);
                              });
  }

  /// Asynchronous handler returning a Future.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Like set_handler, but the handler runs synchronously on the binding's
  /// receive path instead of going through the skeleton's processing mode.
  /// This is the "interrupt" semantics the DEAR server transactors need:
  /// the handler must observe the timestamp bypass while the received
  /// message is still current (paper Figure 3, steps 9-10). The handler
  /// must be cheap and thread-safe.
  void set_immediate_handler(Handler handler) {
    handler_ = std::move(handler);
    immediate_ = true;
  }

  /// Convenience wrapper for synchronous handlers.
  void set_sync_handler(std::function<Res(const Args&...)> handler) {
    handler_ = [handler = std::move(handler)](const Args&... args) {
      return make_ready_future<Res>(handler(args...));
    };
  }

  [[nodiscard]] someip::MethodId id() const noexcept { return method_; }

 private:
  void on_request(const someip::Message& request, const net::Endpoint& from) {
    // Registration implies an attached transport (register_method no-ops
    // on transport-less skeletons), so the binding is non-null here.
    com::TransportBinding& binding = *skeleton_.binding();
    std::tuple<std::decay_t<Args>...> arguments;
    const bool ok = std::apply(
        [&request](auto&... unpacked) {
          return someip::decode_payload(request.payload, unpacked...);
        },
        arguments);
    if (!ok) {
      binding.respond(request, from, {}, someip::ReturnCode::kMalformedMessage);
      return;
    }
    // Copy the request header; the dispatch may outlive the receive path.
    auto invoke = [this, &binding, request, from, arguments = std::move(arguments)] {
      if (!handler_) {
        binding.respond(request, from, {}, someip::ReturnCode::kUnknownMethod);
        return;
      }
      Future<Res> future = std::apply(handler_, arguments);
      // "As soon as the corresponding promise is fulfilled, the server
      // sends a message back to the client" (paper §II.A).
      future.then([&binding, request, from](const Result<Res>& result) {
        if (result.has_value()) {
          binding.respond(request, from, someip::encode_payload(result.value()));
        } else {
          binding.respond(request, from, {}, someip::ReturnCode::kNotOk);
        }
      });
    };
    if (immediate_) {
      invoke();  // receive-path ("interrupt") semantics for DEAR transactors
    } else {
      skeleton_.dispatch(std::move(invoke));
    }
  }

  ServiceSkeleton& skeleton_;
  someip::MethodId method_;
  Handler handler_;
  bool immediate_{false};
};

template <typename Res, typename... Args>
class ProxyMethod {
 public:
  ProxyMethod(ServiceProxy& proxy, someip::MethodId method) : proxy_(proxy), method_(method) {}

  /// Invokes the remote method; returns immediately with a Future. On a
  /// transport-less proxy the future resolves to kNetworkBindingFailure.
  /// When the proxy carries a retry policy, failed attempts (timeout or
  /// server error) are re-issued up to the budget with the original wire
  /// tag advanced by the deterministic linear backoff; a budget burned
  /// entirely on timeouts resolves to ComErrc::kServiceNotAvailable.
  [[nodiscard]] Future<Res> operator()(const Args&... args) {
    Promise<Res> promise;
    Future<Res> future = promise.get_future();
    com::TransportBinding* binding = proxy_.binding();
    if (binding == nullptr) {
      promise.SetError(ComErrc::kNetworkBindingFailure);
      return future;
    }
    if (!proxy_.retry_policy().enabled()) {
      binding->call(
          proxy_.server(), proxy_.instance().service, method_, someip::encode_payload(args...),
          [promise](const someip::Message& response) mutable {
            if (response.type == someip::MessageType::kError ||
                response.return_code != someip::ReturnCode::kOk) {
              const ComErrc error = to_com_error(response.return_code);
              promise.SetError(error == ComErrc::kOk ? ComErrc::kRemoteError : error);
              return;
            }
            std::decay_t<Res> value{};
            if (!someip::decode_payload(response.payload, value)) {
              promise.SetError(ComErrc::kMalformedResponse);
              return;
            }
            promise.set_value(std::move(value));
          },
          proxy_.call_timeout());
      return future;
    }
    issue_with_retry(*binding, std::move(promise), someip::encode_payload(args...));
    return future;
  }

  [[nodiscard]] someip::MethodId id() const noexcept { return method_; }

 private:
  /// Per-call retry state. The binding's response handler holds the
  /// shared_ptr (keeping the state alive exactly as long as a response is
  /// pending); `issue` captures only a weak_ptr so a call abandoned at
  /// teardown cannot keep itself alive through a reference cycle.
  struct CallState {
    ~CallState() { common::BufferPool::instance().release(std::move(payload)); }

    std::uint32_t attempt{1};
    std::optional<someip::WireTag> armed;
    std::vector<std::uint8_t> payload;
    std::function<void()> issue;
  };

  void issue_with_retry(com::TransportBinding& binding, Promise<Res> promise,
                        std::vector<std::uint8_t> payload) {
    auto state = std::make_shared<CallState>();
    state->payload = std::move(payload);
    // Record the tag the transactor armed for this call so a retry can
    // re-arm it, advanced by the backoff (nullopt for untagged callers).
    state->armed = binding.peek_send_tag();
    state->issue = [this, &binding, promise = std::move(promise),
                    weak = std::weak_ptr<CallState>(state)]() mutable {
      const std::shared_ptr<CallState> st = weak.lock();
      if (!st) {
        return;
      }
      const ft::RetryBudget& budget = proxy_.retry_policy();
      if (st->attempt > 1 && st->armed.has_value()) {
        someip::WireTag tag = *st->armed;
        tag.time += static_cast<Duration>(st->attempt - 1) * budget.backoff_base;
        binding.attach_send_tag(tag);
      }
      binding.call(
          proxy_.server(), proxy_.instance().service, method_,
          common::BufferPool::instance().acquire_copy(st->payload),
          [this, promise, st](const someip::Message& response) mutable {
            const ft::RetryBudget& budget = proxy_.retry_policy();
            if (response.type == someip::MessageType::kError ||
                response.return_code != someip::ReturnCode::kOk) {
              const bool retryable = response.return_code == someip::ReturnCode::kTimeout ||
                                     response.return_code == someip::ReturnCode::kNotOk;
              if (retryable && st->attempt < budget.max_attempts) {
                ++st->attempt;
                proxy_.note_retry();
                st->issue();
                return;
              }
              ComErrc error = to_com_error(response.return_code);
              if (response.return_code == someip::ReturnCode::kTimeout &&
                  budget.max_attempts > 1) {
                // The whole budget burned on timeouts: the service is
                // gone, not merely slow.
                error = ComErrc::kServiceNotAvailable;
                proxy_.note_retry_exhausted();
              }
              promise.SetError(error == ComErrc::kOk ? ComErrc::kRemoteError : error);
              return;
            }
            std::decay_t<Res> value{};
            if (!someip::decode_payload(response.payload, value)) {
              promise.SetError(ComErrc::kMalformedResponse);
              return;
            }
            promise.set_value(std::move(value));
          },
          budget.timeout > 0 ? budget.timeout : proxy_.call_timeout());
    };
    state->issue();
  }

  ServiceProxy& proxy_;
  someip::MethodId method_;
};

}  // namespace dear::ara
