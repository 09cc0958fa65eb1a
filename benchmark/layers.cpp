// Per-layer call costs, timed from outside each layer's public API, and
// the ledger that charges them to one frame.
//
// Each loop repeats a batch of calls until its time slice is spent (and at
// least `min_reps` batches ran) and reports the median ns per call. The
// inputs follow the traced work counts: the reactor chain has the measured
// reactions per tag, SOME/IP messages the measured bytes per message.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "brake/logic.hpp"
#include "common/buffer_pool.hpp"
#include "common/pool_allocator.hpp"
#include "common/rng.hpp"
#include "dear/tag_codec.hpp"
#include "e2e.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "reactor/event_queue.hpp"
#include "reactor/runtime.hpp"
#include "sim/kernel.hpp"
#include "sim/sim_executor.hpp"
#include "someip/message.hpp"

namespace dear::e2e {

namespace {

constexpr someip::ServiceId kService = 0x0E2E;
constexpr someip::EventId kEvent = 0x8001;
constexpr net::Endpoint kServerEp{1, 100};
constexpr net::Endpoint kClientEp{2, 200};
constexpr std::size_t kSlabBytes = 1024 * 1024;
/// Payload when the workload sends no SOME/IP message of its own: the
/// DEAR brake pipeline's 57 B messages less header and tag trailer.
constexpr std::size_t kDefaultPayload = 29;

/// Defeats dead-code elimination of the timed calls.
volatile std::uint64_t g_sink = 0;

class LayerTimer {
 public:
  LayerTimer(double seconds_per_layer, std::size_t min_reps)
      : slice_s_(seconds_per_layer), min_reps_(min_reps) {}

  /// Median ns per call of `batch`, which performs `calls` calls.
  template <typename F>
  double measure(const char* name, std::uint64_t calls, F&& batch) {
    const obs::SpanScope span(obs::SpanCategory::kCampaign, name);
    batch();  // warm caches and pools
    std::vector<double> per_call;
    const double start = now_s();
    while (per_call.size() < min_reps_ || now_s() - start < slice_s_) {
      const double t0 = now_s();
      batch();
      per_call.push_back((now_s() - t0) * 1e9 / static_cast<double>(calls));
    }
    return quartiles(std::move(per_call)).p50;
  }

 private:
  double slice_s_;
  std::size_t min_reps_;
};

// --- reactor chain: one logical action drives a chain of reactions per tag --

class Emitter final : public reactor::Reactor {
 public:
  reactor::Output<std::int64_t> out{"out", this};

  Emitter(reactor::Environment& env, std::int64_t tags)
      : reactor::Reactor("emitter", env), tags_(tags) {
    add_reaction("kick", [this] { tick_.schedule_delayed(kMillisecond); }).triggered_by(startup_);
    add_reaction("emit",
                 [this] {
                   out.set(count_);
                   if (++count_ < tags_) {
                     tick_.schedule_delayed(kMillisecond);
                   } else {
                     request_shutdown();
                   }
                 })
        .triggered_by(tick_)
        .writes(out);
  }

 private:
  reactor::StartupTrigger startup_{"startup", this};
  reactor::LogicalAction<reactor::Empty> tick_{"tick", this};
  std::int64_t tags_;
  std::int64_t count_{0};
};

class Stage final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  reactor::Output<std::int64_t> out{"out", this};

  Stage(reactor::Environment& env, std::string name) : reactor::Reactor(std::move(name), env) {
    add_reaction("relay", [this] { out.set(in.get() + 1); }).triggered_by(in).writes(out);
  }
};

/// Returns the DES events the run took.
std::uint64_t run_chain(std::size_t reactions_per_tag, std::int64_t tags) {
  sim::Kernel kernel;
  reactor::SimClock clock(kernel);
  reactor::Environment env(clock);
  Emitter emitter(env, tags);
  std::vector<std::unique_ptr<Stage>> stages;
  reactor::Output<std::int64_t>* previous = &emitter.out;
  for (std::size_t i = 1; i < reactions_per_tag; ++i) {
    stages.push_back(std::make_unique<Stage>(env, "stage" + std::to_string(i)));
    env.connect(*previous, stages.back()->in);
    previous = &stages.back()->out;
  }
  reactor::SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run();
  return kernel.events_processed();
}

// --- transport worlds ---------------------------------------------------------

someip::Message tagged_message(std::size_t payload) {
  someip::Message message;
  message.service = kService;
  message.method = kEvent;
  message.client = 0x01;
  message.session = 0x42;
  message.type = someip::MessageType::kNotification;
  message.payload.assign(payload, 0xAB);
  message.tag = someip::WireTag{123'456'789, 2};
  return message;
}

/// Tagged notifications server -> one subscribed client, one in flight at
/// a time as in the pipelines; the handler collects the tag as the DEAR
/// transactors do. Returns the DES events the batch took.
template <typename World>
std::uint64_t notify_batch(World& world, std::size_t payload, std::uint64_t calls) {
  const std::uint64_t events_before = world.kernel.events_processed();
  for (std::uint64_t i = 0; i < calls; ++i) {
    world.server.attach_send_tag(someip::WireTag{static_cast<std::int64_t>(i), 0});
    std::vector<std::uint8_t> bytes = common::BufferPool::instance().acquire(payload);
    bytes.resize(payload);
    world.server.notify(kService, kEvent, std::move(bytes));
    world.kernel.run();
  }
  return world.kernel.events_processed() - events_before;
}

struct SomeIpWorld {
  sim::Kernel kernel;
  sim::ImmediateSimExecutor executor{kernel};
  net::SimNetwork network{kernel, common::Rng(17)};
  ara::com::SomeIpBinding server{network, executor, kServerEp, 0x01};
  ara::com::SomeIpBinding client{network, executor, kClientEp, 0x02};
};

struct LocalWorld {
  sim::Kernel kernel;
  sim::ImmediateSimExecutor executor{kernel};
  ara::com::LocalHub hub;
  ara::com::LocalBinding server{hub, executor, kServerEp, 0x01};
  ara::com::LocalBinding client{hub, executor, kClientEp, 0x02};
};

template <typename World>
void subscribe(World& world) {
  world.client.subscribe(kServerEp, kService, kEvent, [&world](const someip::Message& message) {
    const auto tag = world.client.collect_received_tag();
    g_sink = g_sink + message.payload_size() + (tag ? static_cast<std::uint64_t>(tag->time) : 0);
  });
  world.kernel.run();
}

double positive(double value) { return value > 0.0 ? value : 0.0; }

}  // namespace

void measure_layers(const WorkCounts& counts, double frame_ns, double brake_frame_share,
                    double seconds, std::size_t min_reps, std::vector<Metric>& out) {
  constexpr int kLayers = 13;
  LayerTimer timer(seconds / kLayers, min_reps);

  const double frames = std::max(counts.frames, 1.0);
  const std::size_t payload =
      counts.someip_msgs > 0.0
          ? static_cast<std::size_t>(std::max(
                0.0, std::round(counts.someip_bytes / counts.someip_msgs) -
                         static_cast<double>(someip::kHeaderSize + someip::kTagTrailerSize)))
          : kDefaultPayload;
  const std::size_t reactions_per_tag =
      counts.tags > 0.0
          ? static_cast<std::size_t>(std::max(1.0, std::round(counts.reactions / counts.tags)))
          : 1;

  // DES kernel: a self-rescheduling event chain.
  constexpr std::int64_t kEvents = 20'000;
  const double event_ns = timer.measure("layer/sim.event_ns", kEvents, [] {
    sim::Kernel kernel;
    std::int64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < kEvents) {
        kernel.schedule_after(1000, chain);
      }
    };
    kernel.schedule_at(0, chain);
    kernel.run();
    g_sink = g_sink + static_cast<std::uint64_t>(count);
  });

  // Reactor event queue: a window of pending tags, pop earliest + re-insert.
  constexpr std::uint64_t kQueueSteps = 50'000;
  std::vector<TimePoint> deltas(4096);
  common::Rng rng(42);
  for (TimePoint& delta : deltas) {
    delta = 1 + static_cast<TimePoint>(rng.next_below(1000));
  }
  const double queue_ns = timer.measure("layer/reactor.queue_op_ns", kQueueSteps, [&] {
    reactor::EventQueue queue;
    std::vector<reactor::BaseAction*> popped;
    for (std::uintptr_t i = 0; i < 32; ++i) {
      // Opaque identities: the queue stores and compares them, never
      // dereferences them.
      // NOLINTNEXTLINE(performance-no-int-to-ptr)
      queue.insert(reinterpret_cast<reactor::BaseAction*>((i + 1) << 4),
                   reactor::Tag{static_cast<TimePoint>(1 + i * 37), 0});
    }
    std::size_t cursor = 0;
    for (std::uint64_t step = 0; step < kQueueSteps; ++step) {
      const reactor::Tag tag = queue.earliest();
      (void)queue.pop_at(tag, popped);
      for (reactor::BaseAction* action : popped) {
        queue.insert(action, reactor::Tag{tag.time + deltas[cursor], 0});
        cursor = (cursor + 1) % deltas.size();
      }
    }
    g_sink = g_sink + static_cast<std::uint64_t>(queue.earliest().time);
  });

  // Reactor scheduler: action -> reactions -> next tag through SimDriver.
  constexpr std::int64_t kTags = 5'000;
  std::uint64_t chain_events = 0;
  const double tag_ns = timer.measure("layer/reactor.tag_ns", kTags, [&] {
    chain_events = run_chain(reactions_per_tag, kTags);
  });
  const double events_per_tag = static_cast<double>(chain_events) / kTags;

  // DEAR transactor tag codec.
  constexpr std::uint64_t kCodecCalls = 200'000;
  const double codec_ns = timer.measure("layer/dear.tag_codec_ns", kCodecCalls, [] {
    const std::uint64_t base = g_sink;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kCodecCalls; ++i) {
      const reactor::Tag tag{static_cast<TimePoint>(base + i), static_cast<std::uint32_t>(i & 3)};
      const reactor::Tag back = transact::from_wire(transact::to_wire(tag));
      sum += static_cast<std::uint64_t>(back.time) + back.microstep;
    }
    g_sink = sum;
  });

  // SOME/IP framing at the workload's message size.
  constexpr std::uint64_t kCodecMsgs = 50'000;
  const someip::Message message = tagged_message(payload);
  std::vector<std::uint8_t> wire;
  const double encode_ns = timer.measure("layer/someip.encode_ns", kCodecMsgs, [&] {
    for (std::uint64_t i = 0; i < kCodecMsgs; ++i) {
      message.encode_into(wire);
    }
    g_sink = g_sink + wire.size();
  });
  message.encode_into(wire);
  const double decode_ns = timer.measure("layer/someip.decode_ns", kCodecMsgs, [&] {
    someip::Message decoded;
    for (std::uint64_t i = 0; i < kCodecMsgs; ++i) {
      if (!someip::Message::decode_into(wire.data(), wire.size(), decoded)) {
        g_sink = g_sink + 1;
      }
    }
    g_sink = g_sink + decoded.payload.size();
  });

  // Simulated network: send -> delivery event -> receive handler.
  constexpr std::uint64_t kPackets = 20'000;
  const std::size_t wire_bytes = payload + someip::kHeaderSize + someip::kTagTrailerSize;
  const double packet_ns = timer.measure("layer/net.packet_ns", kPackets, [&] {
    sim::Kernel kernel;
    net::SimNetwork network(kernel, common::Rng(3));
    std::uint64_t received = 0;
    network.bind(kClientEp, [&](const net::Packet& packet) { received += packet.payload.size(); });
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      std::vector<std::uint8_t> bytes = common::BufferPool::instance().acquire(wire_bytes);
      bytes.resize(wire_bytes);
      network.send(kServerEp, kClientEp, std::move(bytes));
      kernel.run();
    }
    g_sink = g_sink + received;
  });

  // ara::com bindings: tagged event notification to one subscriber.
  constexpr std::uint64_t kNotifies = 10'000;
  LocalWorld local;
  subscribe(local);
  std::uint64_t local_events = 0;
  const double local_notify_ns = timer.measure("layer/ara.local_notify_ns", kNotifies, [&] {
    local_events = notify_batch(local, payload, kNotifies);
  });
  SomeIpWorld someip_world;
  subscribe(someip_world);
  std::uint64_t someip_events = 0;
  const double someip_notify_ns = timer.measure("layer/ara.someip_notify_ns", kNotifies, [&] {
    someip_events = notify_batch(someip_world, payload, kNotifies);
  });
  const double events_per_local_notify = static_cast<double>(local_events) / kNotifies;
  const double events_per_someip_notify = static_cast<double>(someip_events) / kNotifies;

  // Pools: small blocks (event values), wire buffers, 1 MiB slabs.
  constexpr std::uint64_t kPoolCalls = 200'000;
  const double small_ns = timer.measure("layer/pool.small_ns", kPoolCalls, [] {
    common::SmallBlockPool& pool = common::SmallBlockPool::instance();
    for (std::uint64_t i = 0; i < kPoolCalls; ++i) {
      void* block = pool.allocate(64);
      g_sink = g_sink + reinterpret_cast<std::uintptr_t>(block);
      pool.deallocate(block, 64);
    }
  });
  const double buffer_ns = timer.measure("layer/pool.buffer_ns", kPoolCalls, [&] {
    common::BufferPool& pool = common::BufferPool::instance();
    for (std::uint64_t i = 0; i < kPoolCalls; ++i) {
      std::vector<std::uint8_t> bytes = pool.acquire(wire_bytes);
      g_sink = g_sink + bytes.capacity();
      pool.release(std::move(bytes));
    }
  });
  constexpr std::uint64_t kLoans = 20'000;
  const double slab_ns = timer.measure("layer/pool.slab_loan_ns", kLoans, [] {
    for (std::uint64_t i = 0; i < kLoans; ++i) {
      common::LoanedBuffer slab = common::BufferPool::instance().loan(kSlabBytes);
      slab.data()[0] = static_cast<std::uint8_t>(i);
      slab.publish(kSlabBytes);
      g_sink = g_sink + slab.size();
    }
  });

  // Application logic of one brake-assistant frame (the control layer).
  constexpr std::uint64_t kLogicFrames = 20'000;
  const double logic_ns = timer.measure("layer/brake.logic_ns", kLogicFrames, [] {
    std::uint64_t sum = 0;
    for (std::uint64_t id = 0; id < kLogicFrames; ++id) {
      const brake::VideoFrame frame =
          brake::generate_frame(id, static_cast<std::int64_t>(id) * 50 * kMillisecond);
      const brake::LaneInfo lane = brake::detect_lane(frame);
      const brake::VehicleList vehicles = brake::detect_vehicles(frame, lane);
      const brake::BrakeCommand command = brake::decide_brake(vehicles);
      sum += (command == brake::reference_decision(id)) ? 1 : 0;
    }
    g_sink = g_sink + sum;
  });

  const auto cost = [&out](const char* name, double ns) {
    out.push_back({name, "ns", ns, Kind::kTiming, {}});
  };
  cost("sim.event_ns", event_ns);
  cost("reactor.queue_op_ns", queue_ns);
  cost("reactor.tag_ns", tag_ns);
  cost("dear.tag_codec_ns", codec_ns);
  cost("someip.encode_ns", encode_ns);
  cost("someip.decode_ns", decode_ns);
  cost("net.packet_ns", packet_ns);
  cost("ara.local_notify_ns", local_notify_ns);
  cost("ara.someip_notify_ns", someip_notify_ns);
  cost("pool.small_ns", small_ns);
  cost("pool.buffer_ns", buffer_ns);
  cost("pool.slab_loan_ns", slab_ns);
  cost("brake.logic_ns", logic_ns);

  // Ledger: work count per frame x the layer's own share of its call cost.
  // Composite loops subtract the layers they nest, so no nanosecond is
  // charged twice: a SimDriver tag and a binding notification include DES
  // events (counted per call above), a packet includes one DES event and
  // one wire buffer, a SOME/IP notification includes encode, decode and a
  // packet.
  const double per_frame = 1.0 / frames;
  const double someip_msgs = counts.someip_msgs * per_frame;
  const double packets = counts.net_packets * per_frame;
  const double someip_self = someip_notify_ns - encode_ns - decode_ns - packet_ns -
                             (events_per_someip_notify - 1.0) * event_ns;
  const double local_self = local_notify_ns - events_per_local_notify * event_ns;
  const std::vector<std::pair<const char*, double>> ledger = {
      {"ledger.sim_ns", counts.sim_events * per_frame * event_ns},
      {"ledger.reactor_ns",
       counts.tags * per_frame * positive(tag_ns - events_per_tag * event_ns)},
      {"ledger.dear_ns", (counts.someip_tagged + counts.local_tagged) * per_frame * codec_ns},
      {"ledger.someip_ns", someip_msgs * (encode_ns + decode_ns)},
      {"ledger.net_ns", packets * positive(packet_ns - event_ns - buffer_ns)},
      {"ledger.ara_ns",
       someip_msgs * positive(someip_self) + counts.local_msgs * per_frame * positive(local_self)},
      {"ledger.pool_ns", packets * buffer_ns + counts.slab_loans * per_frame * slab_ns},
      {"ledger.brake_ns", brake_frame_share * logic_ns},
  };
  double attributed = 0.0;
  for (const auto& [name, ns] : ledger) {
    out.push_back({name, "ns/frame", ns, Kind::kTiming, {}});
    attributed += ns;
  }
  out.push_back({"ledger.unattributed_ns", "ns/frame", frame_ns - attributed, Kind::kTiming, {}});
}

}  // namespace dear::e2e
