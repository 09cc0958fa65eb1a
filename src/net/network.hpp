// Abstract datagram network.
//
// Two implementations:
//   * SimNetwork — discrete-event links with latency/jitter/drop/reorder
//     models (stands in for the paper's Ethernet switch),
//   * RtNetwork  — in-process loopback over real threads (used where the
//     experiment needs genuine OS nondeterminism).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"
#include "net/packet.hpp"

namespace dear::net {

class Network {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;

  virtual ~Network() = default;

  /// Registers the receiver for an endpoint. An endpoint binds once:
  /// binding an already-bound endpoint throws std::logic_error, since the
  /// first receiver's unbind would otherwise silence the second.
  virtual void bind(Endpoint endpoint, ReceiveHandler handler) = 0;

  virtual void unbind(Endpoint endpoint) = 0;

  /// Sends a datagram. Packets to unbound destinations are dropped
  /// (counted, not an error — mirrors UDP semantics).
  virtual void send(Endpoint source, Endpoint destination, std::vector<std::uint8_t> payload) = 0;

  /// Network-layer physical time.
  [[nodiscard]] virtual TimePoint now() const = 0;

  [[nodiscard]] virtual std::uint64_t packets_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t packets_delivered() const = 0;
  [[nodiscard]] virtual std::uint64_t packets_dropped() const = 0;
};

}  // namespace dear::net
