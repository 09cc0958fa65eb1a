// Simulated switched network over the DES kernel.
//
// Per node pair, a link is characterized by a latency model, a drop
// probability, a duplication probability, and an in-order flag. With
// in-order delivery disabled, jitter can reorder packets — the paper's
// nondeterminism source 3 ("point-to-point in-order message delivery ...
// is not a formal requirement in AUTOSAR AP"). Duplication models
// datagram-level retransmit artifacts: the copy takes an independent
// latency draw, so it can arrive before or after the original. Local
// (same-node) traffic uses a separate, much faster loopback model.
#pragma once

#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/exec_time_model.hpp"
#include "sim/kernel.hpp"

namespace dear::net {

struct LinkParams {
  sim::ExecTimeModel latency{sim::ExecTimeModel::uniform(200 * dear::kMicrosecond,
                                                         800 * dear::kMicrosecond)};
  double drop_probability{0.0};
  /// Probability that a successfully sent packet is delivered twice. The
  /// duplicate takes its own latency draw from the same model.
  double duplicate_probability{0.0};
  /// When true, a packet is never delivered before a packet sent earlier on
  /// the same (source node, destination node) pair.
  bool enforce_in_order{false};
};

class SimNetwork final : public Network {
 public:
  SimNetwork(sim::Kernel& kernel, common::Rng rng);

  /// Returns undelivered payloads to the pool (the kernel may be torn
  /// down with deliveries still queued). Lifetime totals flush into the
  /// metrics registry; the delivery hot path keeps its plain member
  /// counters. The duplicated count doubles as the registry backing for
  /// `net.packets_duplicated`.
  ~SimNetwork() override;

  void bind(Endpoint endpoint, ReceiveHandler handler) override;
  void unbind(Endpoint endpoint) override;
  void send(Endpoint source, Endpoint destination, std::vector<std::uint8_t> payload) override;
  [[nodiscard]] TimePoint now() const override { return kernel_.now(); }

  /// Link used when no node-pair specific link is configured.
  void set_default_link(LinkParams params) { default_link_ = std::move(params); }
  /// Model for traffic that stays on one node (loopback / local sockets).
  void set_loopback_link(LinkParams params) { loopback_link_ = std::move(params); }
  /// Directed link override for (source node -> destination node).
  void set_link(NodeId source, NodeId destination, LinkParams params);

  /// Partition primitive: takes the directed (source node -> destination
  /// node) link down. Packets sent while the link is down are dropped at
  /// the sender; packets already in flight are re-checked at their
  /// delivery instant (a partition severs the cable, it does not wait for
  /// queued traffic to land).
  void set_link_down(NodeId source, NodeId destination);
  /// Heals the directed link. The partition check runs at each packet's
  /// delivery instant: a packet whose delivery falls inside the down
  /// window stays dead after the heal, while an in-flight packet whose
  /// delivery lands after the heal survives.
  void set_link_up(NodeId source, NodeId destination);
  [[nodiscard]] bool link_down(NodeId source, NodeId destination) const;

  [[nodiscard]] std::uint64_t packets_sent() const override { return sent_; }
  [[nodiscard]] std::uint64_t packets_delivered() const override { return delivered_; }
  [[nodiscard]] std::uint64_t packets_dropped() const override { return dropped_; }
  /// Packets delivered after a packet that was sent later on the same pair.
  [[nodiscard]] std::uint64_t packets_reordered() const noexcept { return reordered_; }
  /// Extra copies scheduled by the duplication model.
  [[nodiscard]] std::uint64_t packets_duplicated() const noexcept { return duplicated_; }
  /// Packets killed by a link partition (at send or in flight).
  [[nodiscard]] std::uint64_t packets_partition_dropped() const noexcept {
    return partition_dropped_;
  }

 private:
  struct PairState {
    TimePoint last_scheduled_delivery{kTimeMin};
    TimePoint last_send_delivered{kTimeMin};
  };

  [[nodiscard]] const LinkParams& link_for(NodeId source, NodeId destination) const;

  void schedule_delivery(const LinkParams& link, PairState& pair, Packet packet);
  /// Kernel event body: moves the packet out of `slot`, frees the slot and
  /// hands the packet to its receiver.
  void deliver(std::size_t slot);

  sim::Kernel& kernel_;
  common::Rng rng_;
  LinkParams default_link_{};
  LinkParams loopback_link_{
      sim::ExecTimeModel::uniform(5 * dear::kMicrosecond, 50 * dear::kMicrosecond), 0.0, false};
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::unordered_map<Endpoint, ReceiveHandler, EndpointHash> receivers_;
  std::map<std::pair<NodeId, NodeId>, PairState> pair_state_;
  /// Packets in flight, by slot. A delivery event captures only its slot,
  /// which keeps the kernel's handler inside std::function's inline
  /// storage; freed slots are reused, so a warm network allocates nothing
  /// per packet. A delivered slot holds a moved-from (empty) packet.
  std::vector<Packet> in_flight_;
  std::vector<std::size_t> free_slots_;
  std::uint64_t sent_{0};
  std::uint64_t delivered_{0};
  std::uint64_t dropped_{0};
  std::uint64_t reordered_{0};
  std::uint64_t duplicated_{0};
  std::uint64_t partition_dropped_{0};
};

}  // namespace dear::net
