// In-process loopback network over real threads.
//
// Delivery happens on the executor's worker threads, so with a multi-worker
// pool the arrival order of concurrently sent packets is genuinely decided
// by the OS scheduler. Used by the real-threads variant of the Figure 1
// experiment.
#pragma once

#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "common/executor.hpp"
#include "net/network.hpp"

namespace dear::net {

class RtNetwork final : public Network {
 public:
  explicit RtNetwork(common::Executor& executor) : executor_(executor) {}

  void bind(Endpoint endpoint, ReceiveHandler handler) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!receivers_.emplace(endpoint, std::move(handler)).second) {
      throw std::logic_error("RtNetwork: endpoint " + endpoint.to_string() + " is already bound");
    }
  }

  void unbind(Endpoint endpoint) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    receivers_.erase(endpoint);
  }

  void send(Endpoint source, Endpoint destination, std::vector<std::uint8_t> payload) override;

  [[nodiscard]] TimePoint now() const override { return executor_.now(); }

  [[nodiscard]] std::uint64_t packets_sent() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sent_;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return delivered_;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  common::Executor& executor_;
  mutable std::mutex mutex_;
  std::unordered_map<Endpoint, ReceiveHandler, EndpointHash> receivers_;
  std::uint64_t sent_{0};
  std::uint64_t delivered_{0};
  std::uint64_t dropped_{0};
};

}  // namespace dear::net
