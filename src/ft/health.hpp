// Descriptor-level health monitoring: heartbeat service + supervisor.
//
// The degradation half of the fault-tolerance subsystem needs one piece
// of shared knowledge: "is the service I depend on alive, at this logical
// tag?" — answered without wall-clock watchdogs, which would be
// nondeterministic. A HeartbeatEmitter on the (potential) victim node
// publishes a timer-driven heartbeat event through a regular DEAR server
// transactor; a Supervisor on the consuming node receives it through a
// client transactor and classifies the service healthy / degraded / dead
// by comparing the last beat's release tag against logical now at fixed
// check ticks. An injected crash stops the victim's tagged traffic —
// heartbeats included — so the supervisor's state transitions happen at
// well-defined tags and the degraded-mode controllers they drive stay
// bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ara/meta/service_interface.hpp"
#include "common/time.hpp"
#include "obs/obs.hpp"
#include "reactor/reactor.hpp"
#include "someip/serialization.hpp"

namespace dear::ft {

/// Service id of the health-monitor interface (brake owns 0x1001-0x1004,
/// acc 0x2001-0x2003, 0xFFFF is SOME/IP control).
inline constexpr someip::ServiceId kHealthService = 0x00FD;
/// Instance the supervised node offers it at.
inline constexpr someip::InstanceId kHealthInstance = 0x0001;

struct Heartbeat {
  std::uint64_t seq{0};

  bool operator==(const Heartbeat&) const = default;
};

inline void someip_serialize(someip::Writer& w, const Heartbeat& v) { w.write_u64(v.seq); }

inline void someip_deserialize(someip::Reader& r, Heartbeat& v) { v.seq = r.read_u64(); }

/// Health-monitor interface: the supervised node offers the beat stream.
struct Health {
  static constexpr ara::meta::Event<Heartbeat, 0x8001> beat{"beat"};
  static constexpr auto kInterface =
      ara::meta::service_interface("Health", kHealthService, {1, 0}, beat);
};

enum class HealthState : std::uint8_t { kHealthy, kDegraded, kDead };

[[nodiscard]] constexpr std::string_view to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDead:
      return "dead";
  }
  return "?";
}

/// Timer-driven heartbeat source on the supervised node. Wire its `out`
/// to the Health server transactor; an injected crash silences it along
/// with all other tagged traffic of the node.
class HeartbeatEmitter final : public reactor::Reactor {
 public:
  reactor::Output<Heartbeat> out{"out", this};

  /// `phase` places the beat grid (0 = one period after startup). The
  /// pipelines anchor it to their sensor capture grid so the beats killed
  /// by an injected crash window are the same beats for every platform
  /// seed.
  HeartbeatEmitter(reactor::Environment& environment, Duration period, Duration phase = 0)
      : Reactor("heartbeat_emitter", environment),
        beat_timer_("beat_timer", this, period, phase > 0 ? phase : period) {
    add_reaction("on_beat", [this] { out.set(Heartbeat{seq_++}); })
        .triggered_by(beat_timer_)
        .writes(out);
  }

 private:
  reactor::Timer beat_timer_;
  std::uint64_t seq_{0};
};

struct SupervisorConfig {
  /// Staleness evaluation tick; transitions only happen at these tags.
  Duration check_period{50 * kMillisecond};
  /// Phase of the first check (0 = one check_period after startup). Like
  /// the beat grid, the pipelines anchor it to the sensor capture grid so
  /// classification tags sit at fixed offsets from the sensor stream.
  Duration check_phase{0};
  /// Beat-free gap after which the service counts as degraded.
  Duration degraded_after{120 * kMillisecond};
  /// Beat-free gap after which the service counts as dead (the fallback
  /// controllers engage).
  Duration dead_after{200 * kMillisecond};
};

/// Classifies a supervised service by heartbeat staleness in logical
/// time. Emits `state_out` only on transitions, so downstream reactions
/// trigger exactly when the health state changes.
class Supervisor final : public reactor::Reactor {
 public:
  reactor::Input<Heartbeat> beat_in{"beat_in", this};
  reactor::Output<HealthState> state_out{"state_out", this};

  Supervisor(reactor::Environment& environment, SupervisorConfig config)
      : Reactor("health_supervisor", environment),
        config_(config),
        check_timer_("check_timer", this, config.check_period,
                     config.check_phase > 0 ? config.check_phase : config.check_period) {
    add_reaction("on_beat", [this] { last_beat_ = current_tag().time; })
        .triggered_by(beat_in)
        .writes_state("ft.health.last_beat");
    add_reaction("on_check",
                 [this] {
                   const Duration gap = current_tag().time - last_beat_;
                   HealthState next = HealthState::kHealthy;
                   if (gap > config_.dead_after) {
                     next = HealthState::kDead;
                   } else if (gap > config_.degraded_after) {
                     next = HealthState::kDegraded;
                   }
                   if (next == state_) {
                     return;
                   }
                   if (next == HealthState::kDead) {
                     ++failovers_;
                     obs::count(obs::Counter::kFtFailovers);
                   }
                   state_ = next;
                   state_out.set(next);
                 })
        .triggered_by(check_timer_)
        .writes(state_out)
        .reads_state("ft.health.last_beat")
        .writes_state("ft.health.state");
  }

  [[nodiscard]] HealthState state() const noexcept { return state_; }
  /// Transitions into kDead (each engages the consumers' fallbacks).
  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }

 private:
  SupervisorConfig config_;
  reactor::Timer check_timer_;
  Duration last_beat_{0};
  HealthState state_{HealthState::kHealthy};
  std::uint64_t failovers_{0};
};

}  // namespace dear::ft
