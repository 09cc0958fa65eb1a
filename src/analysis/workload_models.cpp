#include "analysis/workload_models.hpp"

#include <span>
#include <string>
#include <vector>

namespace dear::analysis {

namespace {

struct ModelBuilder {
  Facts facts;

  std::uint32_t reaction(const std::string& node, const std::string& name,
                         const std::vector<std::string>& reads,
                         const std::vector<std::string>& writes) {
    ReactionFact fact;
    fact.node = facts.add_text(node);
    fact.fqn = facts.add_text(node + "." + name);
    fact.level = -1;  // no precedence graph exists in the stock pipeline
    fact.entry = true;  // periodic callback or asynchronous receive handler
    fact.trigger_actions = facts.add_names(std::span<const std::string>(&name, 1));
    fact.state_reads = facts.add_names(reads);
    fact.state_writes = facts.add_names(writes);
    facts.reactions.push_back(fact);
    return static_cast<std::uint32_t>(facts.reactions.size() - 1);
  }

  /// A one-slot input buffer: `store` overwrites it from the receive
  /// path, `take` consumes (clears) it from the periodic callback — both
  /// mutate the slot, with no ordering between the two contexts.
  void buffer(const std::string& name, const std::string& node, std::uint32_t store_reaction,
              std::uint32_t take_reaction) {
    const auto index = static_cast<std::uint32_t>(facts.ports.size());
    PortFact port;
    port.fqn = facts.add_text(name);
    port.node = facts.add_text(node);
    port.writers = facts.add_list({store_reaction, take_reaction});
    port.readers = facts.add_list({take_reaction});
    append(facts.reactions[store_reaction].effects, index);
    append(facts.reactions[take_reaction].triggers, index);
    facts.ports.push_back(port);
  }

  /// Lays `list` out again at the end of the index pool with `index`
  /// appended (a callback may consume several buffers).
  void append(IndexList& list, std::uint32_t index) {
    const std::span<const std::uint32_t> current = facts.list(list);
    std::vector<std::uint32_t> values(current.begin(), current.end());
    values.push_back(index);
    list = facts.add_list(values);
  }

  void channel(std::string member, std::string server, std::string client) {
    ChannelFact fact;
    fact.member = std::move(member);
    fact.server_node = std::move(server);
    fact.client_node = std::move(client);
    fact.tagged = false;  // stock ara::com events carry no logical tags
    facts.channels.push_back(std::move(fact));
  }
};

}  // namespace

Facts nondet_brake_model() {
  ModelBuilder b;
  b.facts.workload = "nondet";
  b.facts.level_count = 0;

  // Receive handlers (asynchronous, physical arrival order) and periodic
  // callbacks (phase drawn per platform seed), per nondet_pipeline.cpp.
  const auto camera_rx = b.reaction("adapter", "camera_rx", {},
                                    {"latest_frame_id", "errors.dropped_frames_preprocessing"});
  const auto adapter_tick = b.reaction("adapter", "tick", {}, {});
  const auto preproc_rx =
      b.reaction("preproc", "frame_rx", {}, {"errors.dropped_frames_preprocessing"});
  const auto preproc_tick = b.reaction("preproc", "tick", {}, {});
  const auto cv_frame_rx = b.reaction("cv", "frame_rx", {}, {"errors.dropped_frames_cv"});
  const auto cv_lane_rx = b.reaction("cv", "lane_rx", {}, {});
  const auto cv_tick =
      b.reaction("cv", "tick", {}, {"errors.dropped_frames_cv", "errors.input_mismatches_cv"});
  const auto eba_rx = b.reaction("eba", "vehicles_rx", {}, {"errors.dropped_vehicles_eba"});
  const auto eba_tick = b.reaction("eba", "tick", {"latest_frame_id"}, {});

  b.buffer("adapter_buffer", "adapter", camera_rx, adapter_tick);
  b.buffer("preproc_buffer", "preproc", preproc_rx, preproc_tick);
  b.buffer("cv_frame_buffer", "cv", cv_frame_rx, cv_tick);
  b.buffer("cv_lane_buffer", "cv", cv_lane_rx, cv_tick);
  b.buffer("eba_buffer", "eba", eba_rx, eba_tick);

  b.channel("VideoAdapter.frame", "adapter", "preproc");
  b.channel("Preprocessing.lane", "preproc", "cv");
  b.channel("Preprocessing.forwarded_frame", "preproc", "cv");
  b.channel("ComputerVision.vehicles", "cv", "eba");
  b.channel("Eba.brake", "eba", "monitor");

  return b.facts;
}

}  // namespace dear::analysis
