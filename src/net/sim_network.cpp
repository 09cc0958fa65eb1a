#include "net/sim_network.hpp"

#include <stdexcept>

#include "common/buffer_pool.hpp"

namespace dear::net {

SimNetwork::SimNetwork(sim::Kernel& kernel, common::Rng rng) : kernel_(kernel), rng_(rng) {}

SimNetwork::~SimNetwork() {
  for (Packet& packet : in_flight_) {
    common::BufferPool::instance().release(std::move(packet.payload));
  }
  obs::count(obs::Counter::kNetPacketsSent, sent_);
  obs::count(obs::Counter::kNetPacketsDelivered, delivered_);
  obs::count(obs::Counter::kNetPacketsDropped, dropped_);
  obs::count(obs::Counter::kNetPacketsReordered, reordered_);
  obs::count(obs::Counter::kNetPacketsDuplicated, duplicated_);
  obs::count(obs::Counter::kNetPacketsPartitionDropped, partition_dropped_);
}

void SimNetwork::bind(Endpoint endpoint, ReceiveHandler handler) {
  if (!receivers_.emplace(endpoint, std::move(handler)).second) {
    throw std::logic_error("SimNetwork: endpoint " + endpoint.to_string() + " is already bound");
  }
}

void SimNetwork::unbind(Endpoint endpoint) { receivers_.erase(endpoint); }

const LinkParams& SimNetwork::link_for(NodeId source, NodeId destination) const {
  if (source == destination) {
    const auto it = links_.find({source, destination});
    return it != links_.end() ? it->second : loopback_link_;
  }
  const auto it = links_.find({source, destination});
  return it != links_.end() ? it->second : default_link_;
}

void SimNetwork::set_link(NodeId source, NodeId destination, LinkParams params) {
  links_[{source, destination}] = std::move(params);
}

void SimNetwork::set_link_down(NodeId source, NodeId destination) {
  down_links_.insert({source, destination});
}

void SimNetwork::set_link_up(NodeId source, NodeId destination) {
  down_links_.erase({source, destination});
}

bool SimNetwork::link_down(NodeId source, NodeId destination) const {
  return down_links_.count({source, destination}) != 0;
}

void SimNetwork::schedule_delivery(const LinkParams& link, PairState& pair, Packet packet) {
  TimePoint delivery = packet.send_time + link.latency.sample(rng_);
  if (link.enforce_in_order && delivery < pair.last_scheduled_delivery) {
    delivery = pair.last_scheduled_delivery;
  }
  if (delivery < pair.last_scheduled_delivery) {
    ++reordered_;
  } else {
    pair.last_scheduled_delivery = delivery;
  }

  std::size_t slot = in_flight_.size();
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(packet));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = std::move(packet);
  }
  kernel_.schedule_at(delivery, [this, slot] { deliver(slot); });
}

void SimNetwork::deliver(std::size_t slot) {
  // Move out first: the receive handler may send, which can grow the table.
  Packet packet = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  // A partition severs the cable: packets in flight when the link went
  // down die at their delivery time instead of landing.
  if (link_down(packet.source.node, packet.destination.node)) {
    ++partition_dropped_;
  } else if (const auto it = receivers_.find(packet.destination); it == receivers_.end()) {
    ++dropped_;
  } else {
    packet.receive_time = kernel_.now();
    ++delivered_;
    it->second(packet);
  }
  // Recycle the wire buffer once the receive handler returns.
  common::BufferPool::instance().release(std::move(packet.payload));
}

void SimNetwork::send(Endpoint source, Endpoint destination, std::vector<std::uint8_t> payload) {
  ++sent_;
  if (link_down(source.node, destination.node)) {
    ++partition_dropped_;
    common::BufferPool::instance().release(std::move(payload));
    return;
  }
  const LinkParams& link = link_for(source.node, destination.node);
  if (link.drop_probability > 0.0 && rng_.chance(link.drop_probability)) {
    ++dropped_;
    common::BufferPool::instance().release(std::move(payload));
    return;
  }
  const bool duplicate =
      link.duplicate_probability > 0.0 && rng_.chance(link.duplicate_probability);

  Packet packet;
  packet.source = source;
  packet.destination = destination;
  packet.payload = std::move(payload);
  packet.send_time = kernel_.now();

  auto& pair = pair_state_[{source.node, destination.node}];
  if (duplicate) {
    ++duplicated_;
    // The copy is pooled like the original: both are released after
    // delivery, and a plain copy would grow the pool by one buffer per
    // duplicate.
    schedule_delivery(link, pair,
                      Packet{source, destination,
                             common::BufferPool::instance().acquire_copy(packet.payload),
                             packet.send_time});
  }
  schedule_delivery(link, pair, std::move(packet));
}

}  // namespace dear::net
