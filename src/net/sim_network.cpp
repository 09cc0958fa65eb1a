#include "net/sim_network.hpp"

#include <stdexcept>

#include "common/buffer_pool.hpp"

namespace dear::net {

SimNetwork::SimNetwork(sim::Kernel& kernel, common::Rng rng) : kernel_(kernel), rng_(rng) {}

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

  // The keeper returns the payload to the pool even when the delivery
  // event dies unrun (kernel torn down mid-flight at scenario end).
  common::PooledBuffer keeper(std::move(packet.payload));
  kernel_.schedule_at(delivery,
                      [this, packet = std::move(packet), keeper = std::move(keeper)]() mutable {
    // A partition severs the cable: packets in flight when the link went
    // down die at their delivery time instead of landing.
    if (link_down(packet.source.node, packet.destination.node)) {
      ++partition_dropped_;
      return;  // keeper recycles the buffer
    }
    const auto it = receivers_.find(packet.destination);
    if (it == receivers_.end()) {
      ++dropped_;
      return;  // keeper recycles the buffer
    }
    packet.payload = keeper.take();
    packet.receive_time = kernel_.now();
    ++delivered_;
    it->second(packet);
    // Recycle the wire buffer once the receive handler returns.
    common::BufferPool::instance().release(std::move(packet.payload));
  });
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
    schedule_delivery(link, pair, packet);
  }
  schedule_delivery(link, pair, std::move(packet));
}

}  // namespace dear::net
