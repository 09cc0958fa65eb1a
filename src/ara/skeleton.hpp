// Service skeleton base.
//
// "A skeleton is an abstract interface that a server needs to implement in
// order to provide a service" (paper §II.A). Generated service code is
// modeled by subclassing ServiceSkeleton and declaring SkeletonMethod /
// SkeletonEvent / SkeletonField members (see method.hpp, event.hpp,
// field.hpp).
//
// Incoming calls are dispatched according to MethodCallProcessingMode:
//   kEvent            — one task per call on the runtime's dispatch
//                       executor; with multiple workers the OS scheduler
//                       picks the order (paper Figure 1's nondeterminism).
//                       User handlers are mutually exclusive per instance,
//                       as the paper's server does.
//   kEventSingleThread — FIFO strand: arrival order, one at a time.
//   kPoll              — queued until ProcessNextMethodCall().
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "common/serial_executor.hpp"
#include "ara/runtime.hpp"
#include "ara/types.hpp"

namespace dear::ara {

class ServiceSkeleton {
 public:
  ServiceSkeleton(Runtime& runtime, InstanceIdentifier instance,
                  MethodCallProcessingMode mode = MethodCallProcessingMode::kEvent);
  virtual ~ServiceSkeleton();

  ServiceSkeleton(const ServiceSkeleton&) = delete;
  ServiceSkeleton& operator=(const ServiceSkeleton&) = delete;

  /// Announces the service instance via service discovery.
  void OfferService();
  void StopOfferService();

  /// kPoll mode: runs the oldest queued method call on the caller's
  /// thread. Returns false when no call was pending.
  bool ProcessNextMethodCall();

  [[nodiscard]] std::size_t pending_method_calls() const;

  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] InstanceIdentifier instance() const noexcept { return instance_; }
  [[nodiscard]] MethodCallProcessingMode processing_mode() const noexcept { return mode_; }
  [[nodiscard]] bool offered() const noexcept { return offered_; }

  /// The transport this skeleton was deployed onto, or nullptr when the
  /// configured backend is not attached (the instance then cannot be
  /// offered and registers no methods).
  [[nodiscard]] com::TransportBinding* binding() noexcept { return binding_; }
  [[nodiscard]] bool has_binding() const noexcept { return binding_ != nullptr; }

  // --- internal API used by SkeletonMethod/Event/Field ----------------------

  /// Registers a raw request processor for a method id. No-op on a
  /// transport-less skeleton.
  void register_method(someip::MethodId method,
                       std::function<void(const someip::Message&, const net::Endpoint&)> processor);

  /// Routes `work` through the configured processing mode. User handler
  /// execution is mutually exclusive per skeleton instance.
  void dispatch(std::function<void()> work);

 private:
  Runtime& runtime_;
  InstanceIdentifier instance_;
  MethodCallProcessingMode mode_;
  com::TransportBinding* binding_;
  bool offered_{false};
  std::unique_ptr<common::SerialExecutor> strand_;

  std::mutex handler_mutex_;  // mutual exclusion between user handlers

  mutable std::mutex poll_mutex_;
  // A list, not a deque: libstdc++'s deque allocates on construction, and
  // only kPoll skeletons ever queue.
  std::list<std::function<void()>> poll_queue_;

  std::vector<someip::MethodId> registered_methods_;
};

}  // namespace dear::ara
