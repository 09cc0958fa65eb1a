// Runtime observability: metrics registry and span tracer.
//
// One process-wide Registry holds counters, peak gauges and fixed-bucket
// histograms in per-thread cells behind the same ThreadCacheSlot
// discipline as the allocation pools: an increment on the enabled path is
// a relaxed load + store into the calling thread's own cache line — zero
// atomic RMWs, zero locks, zero allocations in steady state. The disabled
// path is a single relaxed flag load and branch. Snapshots fold the live
// cells, the retired totals of exited threads, and the post-retirement
// fallback cells into one Snapshot with a stable metrics-report-v1 JSON
// serialization.
//
// The span tracer records (logical tag, name, wall-clock start/duration,
// worker ordinal, scheduler level, category) into per-thread ring buffers,
// exported as Chrome trace-event JSON loadable in Perfetto /
// chrome://tracing — one run renders as a worker-lane timeline. Categories
// are individually maskable; the hot per-tag/per-reaction spans are opt-in
// so the default-enabled configuration stays inside the bench-gated
// overhead budget.
//
// Hard contract (bench- and test-enforced): observability never feeds a
// determinism digest — wall-clock data stays in this layer — and enabling
// it changes no logical outcome, only what gets recorded about it.
// Counter/gauge/histogram cells are atomics and safe to snapshot at any
// time; span ring *contents* are owner-thread-private and must only be
// exported at quiescent points (after runs complete / workers joined).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.hpp"
#include "common/thread_cache.hpp"
#include "obs/histogram.hpp"

namespace dear::obs {

// --- metric catalog -----------------------------------------------------------
//
// Static catalogs: ids are dense enum values indexing fixed per-thread cell
// arrays, so recording needs no name lookup anywhere. `logical` marks
// metrics that are a pure function of the program and its seeds — equal
// across worker counts and repeated runs (asserted by the snapshot merge
// determinism test); wall-clock and scheduling metrics are not.

enum class Counter : std::uint16_t {
  kSchedTagsProcessed,
  kSchedReactionsExecuted,
  kSchedDeadlineViolations,
  kSchedLevelsRun,
  kSimEventsScheduled,
  kSimEventsProcessed,
  kNetPacketsSent,
  kNetPacketsDelivered,
  kNetPacketsDropped,
  kNetPacketsReordered,
  kNetPacketsDuplicated,
  kSomeipMsgsSent,
  kSomeipMsgsReceived,
  kSomeipBytesSent,
  kSomeipBytesReceived,
  kSomeipTaggedSent,
  kSomeipTaggedReceived,
  kSomeipDedupHits,
  kSomeipMalformed,
  kSomeipTimeouts,
  kLocalMsgsSent,
  kLocalMsgsReceived,
  kLocalTaggedSent,
  kLocalTaggedReceived,
  kLocalTimeouts,
  kLocalUndeliverable,
  kPoolSmallShelfLocks,
  kPoolSmallRefills,
  kPoolSmallFlushes,
  kPoolBufferShelfLocks,
  kPoolBufferRefills,
  kPoolBufferFlushes,
  kCampaignScenarios,
  kNetPacketsPartitionDropped,
  kFtCrashDrops,
  kFtCallFaults,
  kFtRetries,
  kFtDegradedTicks,
  kFtFailovers,
  kPoolSlabLoans,
  kPoolSlabShelfHits,
  kPoolSlabAllocs,
  kPoolSlabPublishes,
  kDataplanePayloadCopies,
  kCameraPayloadFrames,
  kCameraPayloadDrops,
  kCount_,
};
inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount_);

struct CounterDef {
  const char* name;
  bool logical;
};

inline constexpr CounterDef kCounterDefs[kCounterCount] = {
    {"sched.tags_processed", true},
    {"sched.reactions_executed", true},
    {"sched.deadline_violations", true},
    {"sched.levels_run", true},
    {"sim.events_scheduled", true},
    {"sim.events_processed", true},
    {"net.packets_sent", true},
    {"net.packets_delivered", true},
    {"net.packets_dropped", true},
    {"net.packets_reordered", true},
    {"net.packets_duplicated", true},
    {"someip.msgs_sent", true},
    {"someip.msgs_received", true},
    {"someip.bytes_sent", true},
    {"someip.bytes_received", true},
    {"someip.tagged_sent", true},
    {"someip.tagged_received", true},
    {"someip.dedup_hits", true},
    {"someip.malformed", true},
    {"someip.timeouts", true},
    {"local.msgs_sent", true},
    {"local.msgs_received", true},
    {"local.tagged_sent", true},
    {"local.tagged_received", true},
    {"local.timeouts", true},
    {"local.undeliverable", true},
    {"pool.small.shelf_locks", false},
    {"pool.small.refills", false},
    {"pool.small.flushes", false},
    {"pool.buffer.shelf_locks", false},
    {"pool.buffer.refills", false},
    {"pool.buffer.flushes", false},
    {"campaign.scenarios", true},
    {"net.packets_partition_dropped", true},
    {"ft.crash_drops", true},
    {"ft.call_faults", true},
    {"ft.retries", true},
    {"ft.degraded_ticks", true},
    {"ft.failovers", true},
    // Loaned-slab data plane. Shelf traffic depends on thread timing
    // (whose release reshelves first), so the pool counters are physical;
    // the camera's frame/drop accounting is part of the deterministic
    // scenario outcome.
    {"pool.slab.loans", false},
    {"pool.slab.shelf_hits", false},
    {"pool.slab.allocs", false},
    {"pool.slab.publishes", false},
    {"dataplane.payload_copies", false},
    {"camera.payload_frames", true},
    {"camera.payload_drops", true},
};

/// Gauges merge by max — peak observations (per thread, then across
/// threads and into the retired totals).
enum class Gauge : std::uint16_t {
  kSchedQueueDepthPeak,
  kSchedLevelWidthPeak,
  kCount_,
};
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount_);

struct GaugeDef {
  const char* name;
  bool logical;
};

inline constexpr GaugeDef kGaugeDefs[kGaugeCount] = {
    {"sched.queue_depth_peak", true},
    {"sched.level_width_peak", true},
};

/// Uniform fixed-bucket histograms; layouts are part of the catalog so the
/// per-thread cells are flat arrays carved by constexpr offsets.
enum class Hist : std::uint16_t {
  kSchedLevelWidth,
  kCampaignScenarioWallMs,
  kCount_,
};
inline constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount_);

struct HistDef {
  const char* name;
  double lo;
  double hi;
  std::uint16_t bins;
  bool logical;
};

inline constexpr HistDef kHistDefs[kHistCount] = {
    {"sched.level_width", 0.0, 64.0, 32, true},
    {"campaign.scenario_wall_ms", 0.0, 2000.0, 50, false},
};

/// Slot layout per histogram: [underflow][bins...][overflow].
[[nodiscard]] constexpr std::size_t hist_slot_offset(std::size_t index) noexcept {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < index; ++i) {
    offset += static_cast<std::size_t>(kHistDefs[i].bins) + 2;
  }
  return offset;
}
inline constexpr std::size_t kHistSlotCount = hist_slot_offset(kHistCount);

// --- span categories ----------------------------------------------------------

enum class SpanCategory : std::uint16_t {
  kCampaign,
  kScenario,
  kTag,
  kReaction,
  kCount_,
};
inline constexpr std::size_t kSpanCategoryCount = static_cast<std::size_t>(SpanCategory::kCount_);

[[nodiscard]] constexpr std::string_view to_string(SpanCategory category) noexcept {
  switch (category) {
    case SpanCategory::kCampaign:
      return "campaign";
    case SpanCategory::kScenario:
      return "scenario";
    case SpanCategory::kTag:
      return "tag";
    case SpanCategory::kReaction:
      return "reaction";
    default:
      return "?";
  }
}

[[nodiscard]] constexpr std::uint32_t category_bit(SpanCategory category) noexcept {
  return std::uint32_t{1} << static_cast<std::uint32_t>(category);
}

/// Default-on categories: coarse spans whose recording cost vanishes next
/// to the work they cover. The per-tag/per-reaction firehose is opt-in —
/// it costs two clock reads per record and would eat the <=5% bench budget
/// on the event-loop hot path.
inline constexpr std::uint32_t kDefaultSpanMask =
    category_bit(SpanCategory::kCampaign) | category_bit(SpanCategory::kScenario);
inline constexpr std::uint32_t kAllSpansMask = (std::uint32_t{1} << kSpanCategoryCount) - 1;

/// Parses "scenario,tag" / "all" / "default" into a mask; returns false
/// on an unknown category name.
[[nodiscard]] bool parse_span_mask(std::string_view text, std::uint32_t& mask);

/// tag_time value for spans that carry no logical tag.
inline constexpr std::int64_t kSpanNoTag = std::numeric_limits<std::int64_t>::min();

struct Span {
  std::string_view name;  // interned in the owning ring
  std::int64_t start_ns{0};
  std::int64_t duration_ns{0};
  std::int64_t tag_time{kSpanNoTag};
  std::uint32_t tag_microstep{0};
  std::int32_t level{-1};
  SpanCategory category{SpanCategory::kScenario};
  std::uint32_t worker{0};
};

// --- snapshot -----------------------------------------------------------------

struct ThreadSample {
  std::uint32_t ordinal{0};
  std::array<std::uint64_t, kCounterCount> counters{};
};

struct Snapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};
  std::array<std::uint64_t, kHistSlotCount> hist_slots{};
  /// Per-thread counter samples (live threads then retired aggregate),
  /// ordered by ordinal — the per-worker utilization view.
  std::vector<ThreadSample> threads;
  std::uint64_t spans_recorded{0};
  std::uint64_t spans_retained{0};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  /// Materializes one catalog histogram from the raw slots.
  [[nodiscard]] Histogram histogram(Hist h) const;

  /// Stable metrics-report-v1 JSON (catalog order, threads by ordinal).
  [[nodiscard]] std::string to_json() const;
};

// --- registry -----------------------------------------------------------------

class Registry {
 public:
  /// Spans retained per thread ring (oldest overwritten beyond this).
  static constexpr std::size_t kDefaultRingCapacity = 16 * 1024;

  /// One thread's span ring. `recorded` counts every record (atomic so
  /// snapshots may read it anytime); the span storage itself is owner-
  /// thread-private until a quiescent-point export.
  struct SpanRing {
    SpanRing() = default;
    /// Move is a quiescent-point operation (retiring a drained thread's
    /// ring under the registry mutex), hence the relaxed atomic hand-off.
    SpanRing(SpanRing&& other) noexcept
        : spans(std::move(other.spans)),
          next(other.next),
          recorded(other.recorded.load(std::memory_order_relaxed)),
          names(std::move(other.names)) {}
    std::vector<Span> spans;
    std::size_t next{0};
    std::atomic<std::uint64_t> recorded{0};
    common::Interner names;
  };

  /// Per-thread metric cells + span ring (ThreadCacheSlot owner contract).
  /// Cells are written only by the owning thread (relaxed load + store, no
  /// RMW) and read by snapshots with relaxed loads.
  struct alignas(64) ThreadCache {
    ThreadCache();  // registers with the registry, assigns the ordinal
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
    std::array<std::atomic<std::uint64_t>, kGaugeCount> gauges{};
    std::array<std::atomic<std::uint64_t>, kHistSlotCount> hist_slots{};
    SpanRing ring;
    std::uint32_t ordinal{0};
  };

  static Registry& instance();

  // --- enablement (process-wide flags, relaxed) -------------------------------

  [[nodiscard]] static bool metrics_enabled() noexcept {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint32_t span_mask() noexcept {
    return span_mask_.load(std::memory_order_relaxed);
  }
  void set_metrics_enabled(bool enabled) noexcept {
    metrics_enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// 0 disables tracing entirely.
  void set_span_mask(std::uint32_t mask) noexcept {
    span_mask_.store(mask, std::memory_order_relaxed);
  }
  /// Applies to rings sized after the call (a ring allocates lazily on its
  /// thread's first span).
  void set_ring_capacity(std::size_t spans) noexcept {
    ring_capacity_.store(spans == 0 ? 1 : spans, std::memory_order_relaxed);
  }
  [[nodiscard]] static std::size_t ring_capacity() noexcept {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  /// Zeroes every cell (live, retired, fallback) and clears all span
  /// rings. Quiescent-point operation (tests, bench setup).
  void reset();

  // --- reads ------------------------------------------------------------------

  [[nodiscard]] Snapshot snapshot() const;

  /// Sum of one counter over live + retired + fallback cells.
  [[nodiscard]] std::uint64_t counter_total(Counter c) const;

  /// Chrome trace-event JSON over every ring (live + retired), spans
  /// sorted by start time. Quiescent-point operation.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// The calling thread's own counter cells (no lock; flushed teardown
  /// counters from objects destroyed on this thread are included) — the
  /// campaign runner's per-scenario delta source.
  static void read_local_counters(std::array<std::uint64_t, kCounterCount>& out) noexcept;

  /// The calling thread's registry ordinal (creates the cache).
  [[nodiscard]] static std::uint32_t local_ordinal();

  // --- fast-path writers (use the free functions below) -----------------------

  static void add_always(Counter c, std::uint64_t n) noexcept;
  static void gauge_max_always(Gauge g, std::uint64_t value) noexcept;
  static void observe_always(Hist h, double value) noexcept;
  /// Interns `span.name` into the calling thread's ring and records it.
  /// Allocation-free once the ring is sized and the name was seen once.
  static void record_span(Span span);

  // --- ThreadCacheSlot owner contract -----------------------------------------

  static void drain_thread_cache(ThreadCache& cache);

 private:
  friend struct ThreadCache;

  Registry() = default;

  void attach(ThreadCache* cache);

  inline static std::atomic<bool> metrics_enabled_{false};
  inline static std::atomic<std::uint32_t> span_mask_{0};
  inline static std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};

  mutable std::mutex mutex_;
  std::vector<ThreadCache*> live_;
  std::uint32_t next_ordinal_{0};
  /// Folded totals of exited threads (guarded by mutex_).
  std::uint64_t retired_counters_[kCounterCount]{};
  std::uint64_t retired_gauges_[kGaugeCount]{};
  std::uint64_t retired_hist_slots_[kHistSlotCount]{};
  std::vector<SpanRing> retired_rings_;
  std::vector<std::uint32_t> retired_ordinals_;
  /// Increments arriving after the thread cache retired (reaper ordering
  /// during thread teardown) — the only cells using atomic RMW.
  std::array<std::atomic<std::uint64_t>, kCounterCount> fallback_counters_{};
};

// --- recording API ------------------------------------------------------------

/// Gated on the metrics flag: the disabled path is one relaxed load + branch.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (Registry::metrics_enabled()) {
    Registry::add_always(c, n);
  }
}

/// Ungated: for promoted always-on counters (pool shelf locks/refills)
/// whose thin-read accessors must count regardless of the metrics flag.
inline void count_always(Counter c, std::uint64_t n = 1) noexcept {
  Registry::add_always(c, n);
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
  if (Registry::metrics_enabled()) {
    Registry::gauge_max_always(g, value);
  }
}

inline void observe(Hist h, double value) noexcept {
  if (Registry::metrics_enabled()) {
    Registry::observe_always(h, value);
  }
}

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t steady_now_ns() noexcept;

/// RAII span: records (start, duration) into the calling thread's ring at
/// destruction when the category is enabled; a masked-off category costs
/// one relaxed load and a branch.
class SpanScope {
 public:
  SpanScope(SpanCategory category, std::string_view name,
            std::int64_t tag_time = kSpanNoTag, std::uint32_t tag_microstep = 0,
            std::int32_t level = -1) noexcept {
    if ((Registry::span_mask() & category_bit(category)) == 0) {
      return;
    }
    active_ = true;
    span_.name = name;
    span_.category = category;
    span_.tag_time = tag_time;
    span_.tag_microstep = tag_microstep;
    span_.level = level;
    span_.start_ns = steady_now_ns();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (active_) {
      span_.duration_ns = steady_now_ns() - span_.start_ns;
      Registry::record_span(span_);
    }
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  Span span_;
  bool active_{false};
};

}  // namespace dear::obs
