// Observability registry tests: snapshot merge determinism across worker
// counts, ring wraparound, report/trace JSON well-formedness, and the
// recording-path gating semantics.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "brake/dear_pipeline.hpp"
#include "obs/obs.hpp"
#include "obs/histogram.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "scenario/workloads.hpp"

namespace dear::obs {
namespace {

/// Minimal JSON well-formedness checker (structure only, no data model):
/// enough to catch unbalanced braces, broken strings, and trailing commas
/// in the hand-rolled serializers.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  [[nodiscard]] bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) {
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        return false;
      }
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (consume('}')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  [[nodiscard]] bool array() {
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) {
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (consume(']')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  [[nodiscard]] bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      ++pos_;
      if (c == '"') {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

/// Every test starts and leaves the process in the at-rest state:
/// metrics off, spans masked off, all cells zero.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().set_metrics_enabled(false);
    Registry::instance().set_span_mask(0);
    Registry::instance().set_ring_capacity(Registry::kDefaultRingCapacity);
    Registry::instance().reset();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ObsTest, DisabledCountIsInvisible) {
  count(Counter::kCampaignScenarios, 5);
  EXPECT_EQ(Registry::instance().counter_total(Counter::kCampaignScenarios), 0u);
}

TEST_F(ObsTest, EnabledCountLandsInSnapshot) {
  Registry::instance().set_metrics_enabled(true);
  count(Counter::kCampaignScenarios, 3);
  count(Counter::kCampaignScenarios);
  gauge_max(Gauge::kSchedQueueDepthPeak, 7);
  gauge_max(Gauge::kSchedQueueDepthPeak, 4);  // below the peak: no effect
  observe(Hist::kSchedLevelWidth, 2.0);
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kCampaignScenarios), 4u);
  EXPECT_EQ(snap.gauge(Gauge::kSchedQueueDepthPeak), 7u);
  EXPECT_EQ(snap.histogram(Hist::kSchedLevelWidth).total(), 1u);
}

TEST_F(ObsTest, CountAlwaysIgnoresTheGate) {
  count_always(Counter::kPoolSmallShelfLocks, 2);
  EXPECT_EQ(Registry::instance().counter_total(Counter::kPoolSmallShelfLocks), 2u);
}

TEST_F(ObsTest, RetiredThreadCountsFoldIntoTotals) {
  Registry::instance().set_metrics_enabled(true);
  std::thread worker([] { count(Counter::kSimEventsProcessed, 41); });
  worker.join();
  EXPECT_EQ(Registry::instance().counter_total(Counter::kSimEventsProcessed), 41u);
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kSimEventsProcessed), 41u);
}

/// The PR 8 merge-determinism contract: every `logical` catalog metric is
/// a pure function of the campaign and its seeds, so running the same
/// campaign at 1, 2, and 4 workers must fold to identical totals no
/// matter which threads the increments landed on.
TEST_F(ObsTest, LogicalCountersAreWorkerCountInvariant) {
  const auto run_at = [](std::size_t workers) {
    Registry::instance().reset();
    Registry::instance().set_metrics_enabled(true);
    scenario::RunnerOptions options;
    options.workers = workers;
    const auto report =
        scenario::CampaignRunner(options).run(scenario::presets::throughput(8, 40, 1));
    EXPECT_TRUE(report.invariants_ok());
    Snapshot snap = Registry::instance().snapshot();
    Registry::instance().set_metrics_enabled(false);
    return snap;
  };

  const Snapshot one = run_at(1);
  const Snapshot two = run_at(2);
  const Snapshot four = run_at(4);

  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (!kCounterDefs[i].logical) {
      continue;
    }
    EXPECT_EQ(one.counters[i], two.counters[i]) << "counter " << kCounterDefs[i].name;
    EXPECT_EQ(one.counters[i], four.counters[i]) << "counter " << kCounterDefs[i].name;
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    if (!kGaugeDefs[g].logical) {
      continue;
    }
    EXPECT_EQ(one.gauges[g], two.gauges[g]) << "gauge " << kGaugeDefs[g].name;
    EXPECT_EQ(one.gauges[g], four.gauges[g]) << "gauge " << kGaugeDefs[g].name;
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    if (!kHistDefs[h].logical) {
      continue;
    }
    const auto hist = static_cast<Hist>(h);
    EXPECT_EQ(one.histogram(hist).total(), two.histogram(hist).total())
        << "hist " << kHistDefs[h].name;
    EXPECT_EQ(one.histogram(hist).total(), four.histogram(hist).total())
        << "hist " << kHistDefs[h].name;
  }
  // A sanity floor: the campaign actually produced traffic to compare.
  EXPECT_GT(one.counter(Counter::kSimEventsProcessed), 0u);
  EXPECT_GT(one.counter(Counter::kSchedReactionsExecuted), 0u);
}

TEST_F(ObsTest, RingWrapsAndKeepsTheTotalCount) {
  Registry::instance().set_ring_capacity(8);
  Registry::instance().set_span_mask(kAllSpansMask);
  for (int i = 0; i < 20; ++i) {
    SpanScope span(SpanCategory::kScenario, "wrap-test");
  }
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.spans_recorded, 20u);
  EXPECT_EQ(snap.spans_retained, 8u);
}

TEST_F(ObsTest, MaskedCategoryRecordsNothing) {
  Registry::instance().set_span_mask(category_bit(SpanCategory::kScenario));
  {
    SpanScope masked(SpanCategory::kReaction, "masked");
    EXPECT_FALSE(masked.active());
    SpanScope live(SpanCategory::kScenario, "live");
    EXPECT_TRUE(live.active());
  }
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.spans_recorded, 1u);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  Registry::instance().set_span_mask(kAllSpansMask);
  { SpanScope span(SpanCategory::kCampaign, "campaign \"quoted\""); }
  { SpanScope span(SpanCategory::kScenario, "scenario-a", 1'000, 2, 3); }
  { SpanScope span(SpanCategory::kTag, "tag", 1'000, 0, 1); }
  const std::string trace = Registry::instance().chrome_trace_json();
  JsonChecker checker(trace);
  EXPECT_TRUE(checker.valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(trace.find("scenario-a"), std::string::npos);
  EXPECT_NE(trace.find("\\\"quoted\\\""), std::string::npos);  // escaped name
}

TEST_F(ObsTest, ZeroFrameRunRecordsEachPhaseSpanOnce) {
  // The scenario spans tile a run: build, validate, start, settle, run,
  // then teardown (result collection and the app's destruction).
  Registry::instance().set_span_mask(category_bit(SpanCategory::kScenario));
  scenario::ScenarioSpec spec;
  spec.frames = 0;
  (void)brake::run_dear_pipeline(scenario::to_dear_config(spec));
  const std::string trace = Registry::instance().chrome_trace_json();
  for (const std::string_view phase :
       {"app.build", "app.validate", "app.start", "app.settle", "app.run", "app.teardown"}) {
    const std::string key = "\"name\": \"" + std::string(phase) + "\"";
    std::size_t seen = 0;
    for (std::size_t at = trace.find(key); at != std::string::npos; at = trace.find(key, at + 1)) {
      ++seen;
    }
    EXPECT_EQ(seen, 1u) << phase;
  }
  EXPECT_EQ(Registry::instance().snapshot().spans_recorded, 6u);
}

TEST_F(ObsTest, MetricsReportJsonIsWellFormed) {
  Registry::instance().set_metrics_enabled(true);
  count(Counter::kSomeipMsgsSent, 12);
  observe(Hist::kSchedLevelWidth, 1.0);
  observe(Hist::kSchedLevelWidth, 3.0);
  const std::string json = Registry::instance().snapshot().to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"metrics-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"someip.msgs_sent\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"sched.level_width\""), std::string::npos);
}

TEST_F(ObsTest, ParseSpanMaskCoversTheVocabulary) {
  std::uint32_t mask = 0;
  EXPECT_TRUE(parse_span_mask("default", mask));
  EXPECT_EQ(mask, kDefaultSpanMask);
  EXPECT_TRUE(parse_span_mask("", mask));
  EXPECT_EQ(mask, kDefaultSpanMask);
  EXPECT_TRUE(parse_span_mask("all", mask));
  EXPECT_EQ(mask, kAllSpansMask);
  EXPECT_TRUE(parse_span_mask("none", mask));
  EXPECT_EQ(mask, 0u);
  EXPECT_TRUE(parse_span_mask("scenario,tag", mask));
  EXPECT_EQ(mask, category_bit(SpanCategory::kScenario) | category_bit(SpanCategory::kTag));
  EXPECT_FALSE(parse_span_mask("scenario,bogus", mask));
}

TEST_F(ObsTest, ResetClearsRetiredAndLiveCells) {
  Registry::instance().set_metrics_enabled(true);
  count(Counter::kNetPacketsSent, 9);
  std::thread worker([] { count(Counter::kNetPacketsSent, 5); });
  worker.join();
  EXPECT_EQ(Registry::instance().counter_total(Counter::kNetPacketsSent), 14u);
  Registry::instance().reset();
  EXPECT_EQ(Registry::instance().counter_total(Counter::kNetPacketsSent), 0u);
  EXPECT_EQ(Registry::instance().snapshot().spans_recorded, 0u);
}

TEST(ObsHistogram, BucketEdgesAndQuantiles) {
  EXPECT_EQ(Histogram::bucket_of(0.0, 10.0, 10, -0.5), -1);
  EXPECT_EQ(Histogram::bucket_of(0.0, 10.0, 10, 0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(0.0, 10.0, 10, 9.999), 9);
  EXPECT_EQ(Histogram::bucket_of(0.0, 10.0, 10, 10.0), 10);

  Histogram hist(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) {
    hist.add(static_cast<double>(i));
  }
  EXPECT_EQ(hist.total(), 100u);
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(hist.quantile(0.99), 99.0, 10.0);

  Histogram other(0.0, 100.0, 10);
  other.add(1000.0);  // overflow
  hist.merge(other);
  EXPECT_EQ(hist.total(), 101u);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_THROW(hist.merge(Histogram(0.0, 50.0, 10)), std::invalid_argument);
}

TEST(ObsHistogram, CountsAndTotals) {
  // Integer outcomes counted one per bucket, as the Figure 1 report does.
  Histogram h(0.0, 4.0, 4);
  EXPECT_EQ(h.total(), 0u);
  h.add(3);
  h.add(3);
  h.add(0);
  h.add(7);
  h.add(-1);
  EXPECT_EQ(h.bin(3), 2u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 0u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(ObsHistogram, BulkAdd) {
  Histogram h(0.0, 4.0, 4);
  h.add(1, 10);
  h.add(2, 30);
  EXPECT_EQ(h.total(), 40u);
  EXPECT_EQ(h.bin(1), 10u);
  EXPECT_EQ(h.bin(2), 30u);
}

TEST(BinnedHistogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(BinnedHistogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(BinnedHistogram, BinEdges) {
  const Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(4), 18.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(4), 20.0);
}

TEST(BinnedHistogram, QuantileMonotone) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) {
    h.add(static_cast<double>(i % 100) + 0.5);
  }
  const double q10 = h.quantile(0.10);
  const double q50 = h.quantile(0.50);
  const double q90 = h.quantile(0.90);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q90);
  EXPECT_NEAR(q50, 50.0, 2.0);
  EXPECT_NEAR(q90, 90.0, 2.0);
}

TEST(BinnedHistogram, QuantileEmpty) {
  const Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace dear::obs
