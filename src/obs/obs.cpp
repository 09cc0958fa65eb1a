#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace dear::obs {
namespace {

using Slot = common::ThreadCacheSlot<Registry>;

/// Owner-thread add: relaxed load + store, no RMW (plain add on x86,
/// TSan-clean because the cell has a single writer).
inline void cell_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void cell_max(std::atomic<std::uint64_t>& cell, std::uint64_t value) noexcept {
  if (value > cell.load(std::memory_order_relaxed)) {
    cell.store(value, std::memory_order_relaxed);
  }
}

void append_format(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_format(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) {
    out.append(buffer, std::min(static_cast<std::size_t>(written), sizeof(buffer) - 1));
  }
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_format(out, "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
}

/// Trims trailing zeros off a %.6f rendering so JSON numbers stay tidy.
void append_json_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  std::size_t len = std::strlen(buffer);
  while (len > 1 && buffer[len - 1] == '0' && buffer[len - 2] != '.') {
    --len;
  }
  out.append(buffer, len);
}

}  // namespace

bool parse_span_mask(std::string_view text, std::uint32_t& mask) {
  if (text.empty() || text == "default") {
    mask = kDefaultSpanMask;
    return true;
  }
  if (text == "all") {
    mask = kAllSpansMask;
    return true;
  }
  if (text == "none") {
    mask = 0;
    return true;
  }
  std::uint32_t parsed = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const std::string_view item = text.substr(start, comma - start);
    bool matched = false;
    for (std::size_t i = 0; i < kSpanCategoryCount; ++i) {
      const auto category = static_cast<SpanCategory>(i);
      if (item == to_string(category)) {
        parsed |= category_bit(category);
        matched = true;
        break;
      }
    }
    if (!matched && !item.empty()) {
      return false;
    }
    if (comma >= text.size()) {
      break;
    }
    start = comma + 1;
  }
  mask = parsed;
  return true;
}

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Registry -----------------------------------------------------------------

Registry& Registry::instance() {
  // Leaked singleton, same discipline as the pools: threads may drain
  // their caches during process teardown after static destructors ran.
  static Registry* const registry = new Registry();
  return *registry;
}

Registry::ThreadCache::ThreadCache() { Registry::instance().attach(this); }

void Registry::attach(ThreadCache* cache) {
  const std::lock_guard<std::mutex> guard(mutex_);
  cache->ordinal = next_ordinal_++;
  live_.push_back(cache);
}

void Registry::drain_thread_cache(ThreadCache& cache) {
  Registry& self = instance();
  const std::lock_guard<std::mutex> guard(self.mutex_);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    self.retired_counters_[i] += cache.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    self.retired_gauges_[i] =
        std::max(self.retired_gauges_[i], cache.gauges[i].load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < kHistSlotCount; ++i) {
    self.retired_hist_slots_[i] += cache.hist_slots[i].load(std::memory_order_relaxed);
  }
  if (cache.ring.recorded.load(std::memory_order_relaxed) != 0) {
    self.retired_rings_.push_back(std::move(cache.ring));
    self.retired_ordinals_.push_back(cache.ordinal);
  }
  self.live_.erase(std::remove(self.live_.begin(), self.live_.end(), &cache), self.live_.end());
  // The ThreadCacheSlot reaper deletes the cache after this returns.
}

void Registry::add_always(Counter c, std::uint64_t n) noexcept {
  if (ThreadCache* cache = Slot::get()) {
    cell_add(cache->counters[static_cast<std::size_t>(c)], n);
  } else {
    // Post-retirement fallback (thread teardown after the reaper ran).
    instance().fallback_counters_[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
}

void Registry::gauge_max_always(Gauge g, std::uint64_t value) noexcept {
  if (ThreadCache* cache = Slot::get()) {
    cell_max(cache->gauges[static_cast<std::size_t>(g)], value);
  }
}

void Registry::observe_always(Hist h, double value) noexcept {
  ThreadCache* cache = Slot::get();
  if (cache == nullptr) {
    return;
  }
  const auto index = static_cast<std::size_t>(h);
  const HistDef& def = kHistDefs[index];
  const std::ptrdiff_t bucket = Histogram::bucket_of(def.lo, def.hi, def.bins, value);
  // Slot layout per histogram: [underflow][bins...][overflow].
  const std::size_t slot = hist_slot_offset(index) + static_cast<std::size_t>(bucket + 1);
  cell_add(cache->hist_slots[slot], 1);
}

void Registry::record_span(Span span) {
  ThreadCache* cache = Slot::get();
  if (cache == nullptr) {
    return;
  }
  SpanRing& ring = cache->ring;
  if (ring.spans.capacity() == 0) {
    ring.spans.reserve(ring_capacity());
  }
  span.name = ring.names.intern(span.name);
  span.worker = cache->ordinal;
  if (ring.spans.size() < ring.spans.capacity()) {
    ring.spans.push_back(span);
  } else {
    ring.spans[ring.next] = span;
    ring.next = (ring.next + 1) % ring.spans.size();
  }
  ring.recorded.store(ring.recorded.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

void Registry::read_local_counters(std::array<std::uint64_t, kCounterCount>& out) noexcept {
  ThreadCache* cache = Slot::get();
  if (cache == nullptr) {
    out.fill(0);
    return;
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out[i] = cache->counters[i].load(std::memory_order_relaxed);
  }
}

std::uint32_t Registry::local_ordinal() {
  if (ThreadCache* cache = Slot::get()) {
    return cache->ordinal;
  }
  return 0;
}

std::uint64_t Registry::counter_total(Counter c) const {
  const auto index = static_cast<std::size_t>(c);
  std::uint64_t total = fallback_counters_[index].load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> guard(mutex_);
  total += retired_counters_[index];
  for (const ThreadCache* cache : live_) {
    total += cache->counters[index].load(std::memory_order_relaxed);
  }
  return total;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  const std::lock_guard<std::mutex> guard(mutex_);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[i] =
        retired_counters_[i] + fallback_counters_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges[i] = retired_gauges_[i];
  }
  for (std::size_t i = 0; i < kHistSlotCount; ++i) {
    snap.hist_slots[i] = retired_hist_slots_[i];
  }
  bool retired_nonzero = false;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    retired_nonzero = retired_nonzero || retired_counters_[i] != 0;
  }
  if (retired_nonzero) {
    ThreadSample retired;
    retired.ordinal = std::numeric_limits<std::uint32_t>::max();  // aggregate row
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      retired.counters[i] = retired_counters_[i];
    }
    snap.threads.push_back(retired);
  }
  for (const ThreadCache* cache : live_) {
    ThreadSample sample;
    sample.ordinal = cache->ordinal;
    bool nonzero = false;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const std::uint64_t value = cache->counters[i].load(std::memory_order_relaxed);
      sample.counters[i] = value;
      nonzero = nonzero || value != 0;
      snap.counters[i] += value;
    }
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      snap.gauges[i] =
          std::max(snap.gauges[i], cache->gauges[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < kHistSlotCount; ++i) {
      snap.hist_slots[i] += cache->hist_slots[i].load(std::memory_order_relaxed);
    }
    snap.spans_recorded += cache->ring.recorded.load(std::memory_order_relaxed);
    snap.spans_retained += cache->ring.spans.size();
    if (nonzero) {
      snap.threads.push_back(sample);
    }
  }
  for (const SpanRing& ring : retired_rings_) {
    snap.spans_recorded += ring.recorded.load(std::memory_order_relaxed);
    snap.spans_retained += ring.spans.size();
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const ThreadSample& a, const ThreadSample& b) { return a.ordinal < b.ordinal; });
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> guard(mutex_);
  for (auto& cell : fallback_counters_) {
    cell.store(0, std::memory_order_relaxed);
  }
  std::memset(retired_counters_, 0, sizeof(retired_counters_));
  std::memset(retired_gauges_, 0, sizeof(retired_gauges_));
  std::memset(retired_hist_slots_, 0, sizeof(retired_hist_slots_));
  retired_rings_.clear();
  retired_ordinals_.clear();
  for (ThreadCache* cache : live_) {
    for (auto& cell : cache->counters) {
      cell.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : cache->gauges) {
      cell.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : cache->hist_slots) {
      cell.store(0, std::memory_order_relaxed);
    }
    cache->ring.spans.clear();
    cache->ring.next = 0;
    cache->ring.recorded.store(0, std::memory_order_relaxed);
  }
}

// --- Snapshot -----------------------------------------------------------------

Histogram Snapshot::histogram(Hist h) const {
  const auto index = static_cast<std::size_t>(h);
  const HistDef& def = kHistDefs[index];
  Histogram result(def.lo, def.hi, def.bins);
  const std::size_t base = hist_slot_offset(index);
  for (std::uint64_t i = 0; i < def.bins; ++i) {
    const std::uint64_t count = hist_slots[base + 1 + i];
    if (count != 0) {
      result.add(def.lo + (def.hi - def.lo) * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(def.bins),
                 count);
    }
  }
  if (hist_slots[base] != 0) {
    result.add(def.lo - 1.0, hist_slots[base]);
  }
  if (hist_slots[base + 1 + def.bins] != 0) {
    result.add(def.hi, hist_slots[base + 1 + def.bins]);
  }
  return result;
}

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"metrics-report-v1\",\n  \"counters\": {";
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    append_format(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", kCounterDefs[i].name,
                  counters[i]);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    append_format(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", kGaugeDefs[i].name,
                  gauges[i]);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (std::size_t i = 0; i < kHistCount; ++i) {
    const HistDef& def = kHistDefs[i];
    const std::size_t base = hist_slot_offset(i);
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < static_cast<std::size_t>(def.bins) + 2; ++s) {
      total += hist_slots[base + s];
    }
    append_format(out, "%s\n    \"%s\": {\n      \"lo\": ", first ? "" : ",", def.name);
    append_json_double(out, def.lo);
    out += ",\n      \"hi\": ";
    append_json_double(out, def.hi);
    append_format(out, ",\n      \"bins\": %u,\n      \"underflow\": %" PRIu64
                       ",\n      \"overflow\": %" PRIu64 ",\n      \"total\": %" PRIu64
                       ",\n      \"p50\": ",
                  static_cast<unsigned>(def.bins), hist_slots[base],
                  hist_slots[base + 1 + def.bins], total);
    append_json_double(out, Histogram::quantile_from(def.lo, def.hi, &hist_slots[base + 1],
                                                     def.bins, hist_slots[base], total, 0.5));
    out += ",\n      \"p99\": ";
    append_json_double(out, Histogram::quantile_from(def.lo, def.hi, &hist_slots[base + 1],
                                                     def.bins, hist_slots[base], total, 0.99));
    out += ",\n      \"counts\": [";
    for (std::size_t b = 0; b < def.bins; ++b) {
      append_format(out, "%s%" PRIu64, b == 0 ? "" : ", ", hist_slots[base + 1 + b]);
    }
    out += "]\n    }";
    first = false;
  }
  out += "\n  },\n  \"threads\": [";
  first = true;
  for (const ThreadSample& sample : threads) {
    append_format(out, "%s\n    {\n      \"ordinal\": ", first ? "" : ",");
    if (sample.ordinal == std::numeric_limits<std::uint32_t>::max()) {
      out += "\"retired\"";
    } else {
      append_format(out, "%u", sample.ordinal);
    }
    out += ",\n      \"counters\": {";
    bool first_counter = true;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (sample.counters[i] == 0) {
        continue;
      }
      append_format(out, "%s\n        \"%s\": %" PRIu64, first_counter ? "" : ",",
                    kCounterDefs[i].name, sample.counters[i]);
      first_counter = false;
    }
    out += first_counter ? "}" : "\n      }";
    out += "\n    }";
    first = false;
  }
  append_format(out,
                "\n  ],\n  \"spans\": {\n    \"recorded\": %" PRIu64
                ",\n    \"retained\": %" PRIu64 "\n  }\n}\n",
                spans_recorded, spans_retained);
  return out;
}

// --- Chrome trace export ------------------------------------------------------

namespace {

void append_trace_event(std::string& out, const Span& span, std::uint32_t tid, bool& first) {
  append_format(out, "%s\n    {\"name\": \"", first ? "" : ",");
  append_json_escaped(out, span.name);
  append_format(out, "\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %u",
                std::string(to_string(span.category)).c_str(), tid);
  // Chrome trace timestamps are microseconds (doubles keep sub-µs detail).
  out += ", \"ts\": ";
  append_json_double(out, static_cast<double>(span.start_ns) / 1000.0);
  out += ", \"dur\": ";
  append_json_double(out, static_cast<double>(span.duration_ns) / 1000.0);
  out += ", \"args\": {";
  bool first_arg = true;
  if (span.tag_time != kSpanNoTag) {
    append_format(out, "\"tag_time\": %" PRId64 ", \"tag_microstep\": %u", span.tag_time,
                  span.tag_microstep);
    first_arg = false;
  }
  if (span.level >= 0) {
    append_format(out, "%s\"level\": %d", first_arg ? "" : ", ", span.level);
  }
  out += "}}";
  first = false;
}

void append_ring_events(std::string& out, const Registry::SpanRing& ring, std::uint32_t tid,
                        std::vector<std::pair<std::int64_t, std::string>>& events) {
  // Collect (start, rendered) so the final stream is globally time-sorted.
  for (const Span& span : ring.spans) {
    std::string rendered;
    bool first = true;
    append_trace_event(rendered, span, tid, first);
    events.emplace_back(span.start_ns, std::move(rendered));
  }
  (void)out;
}

}  // namespace

std::string Registry::chrome_trace_json() const {
  std::string out;
  out.reserve(8192);
  out += "{\n  \"traceEvents\": [";
  const std::lock_guard<std::mutex> guard(mutex_);

  std::vector<std::pair<std::int64_t, std::string>> events;
  std::vector<std::uint32_t> tids;
  for (const ThreadCache* cache : live_) {
    if (!cache->ring.spans.empty()) {
      append_ring_events(out, cache->ring, cache->ordinal, events);
      tids.push_back(cache->ordinal);
    }
  }
  for (std::size_t i = 0; i < retired_rings_.size(); ++i) {
    if (!retired_rings_[i].spans.empty()) {
      append_ring_events(out, retired_rings_[i], retired_ordinals_[i], events);
      tids.push_back(retired_ordinals_[i]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  bool first = true;
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    append_format(out,
                  "%s\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %u, "
                  "\"args\": {\"name\": \"worker-%u\"}}",
                  first ? "" : ",", tid, tid);
    first = false;
  }
  for (const auto& [start, rendered] : events) {
    (void)start;
    out += first ? "\n    " : ",\n    ";
    // rendered begins with the separator-free event object
    out += rendered.substr(rendered.find('{'));
    first = false;
  }
  out += "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

}  // namespace dear::obs
