// Allocation-count regression tests for the hot paths.
//
// This binary replaces global operator new/delete with counting wrappers,
// the std::align_val_t overloads included, so allocations of over-aligned
// (alignas) types count like any other. Each test warms a workload until its pools and retained capacities reach
// steady state, then asserts that continuing the workload performs ZERO
// system allocations: per scheduler event (pooled event queue + value pool
// + reused staging buffers) and per SOME/IP message round trip (recycled
// wire buffer + scratch message). These are the two guarantees the
// hot-path overhaul makes; any future per-event allocation regresses them
// loudly here rather than silently in a profile.
//
// The ShelfLock tests guard the concurrency half of the pooling story:
// SmallBlockPool and BufferPool serve their steady state entirely from
// per-thread magazines, so the global-shelf spinlocks (counted by
// shelf_lock_count()) are touched only while a thread warms up or drains —
// never per allocation. A campaign worker's scenarios and the threaded
// scheduler's event stream must both show ZERO marginal shelf locks.
//
// The TypedPath tests extend the message guarantee from Message framing to
// the typed ara::com path both pipelines run: a SkeletonEvent::Send fanned
// out to two ProxyEvent subscribers, and a method call plus its response
// with the typed payload codec, over SOME/IP on a SimNetwork and over a
// LocalHub. Encode buffers, fan-out copies and wire buffers all recycle
// through common::BufferPool, and a delivery event fits std::function's
// inline storage.
//
// The AppSetup tests pin the set-up cost of every app the campaign builds:
// the allocations of one zero-frame run (testbed, app build, validate(),
// start, settle drain, teardown) of the DEAR brake pipeline over SOME/IP,
// over the local transport and with the fault-tolerance layer, of the
// DEAR ACC pipeline, and of the stock AP brake baseline. Element names,
// reactions and wiring live in per-environment arenas, each graph's
// tables in one buffer, an app's nodes and bundles in one arena, and the
// fact table in three pools; growth there shows up here.
//
// The allocation-count tests are single-threaded: the counter observes
// only the workload between the snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "acc/pipeline.hpp"
#include "brake/dear_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "common/buffer_pool.hpp"
#include "common/pool_allocator.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "reactor/runtime.hpp"
#include "../ara/ara_fixture.hpp"
#include "../reactor/reactor_fixture.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "scenario/workloads.hpp"
#include "someip/message.hpp"
#include "someip/serialization.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* pointer = std::malloc(size == 0 ? 1 : size);
  if (pointer == nullptr) {
    throw std::bad_alloc();
  }
  return pointer;
}

/// Over-aligned types (alignas beyond the default new alignment) come
/// through the std::align_val_t overloads; they count the same.
void* counted_alloc(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants the size rounded up to a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + align - 1) / align * align;
  void* pointer = std::aligned_alloc(align, rounded);
  if (pointer == nullptr) {
    throw std::bad_alloc();
  }
  return pointer;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, alignment);
}
void operator delete(void* pointer) noexcept { std::free(pointer); }
void operator delete[](void* pointer) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::size_t) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::align_val_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::align_val_t) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t, std::align_val_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::size_t, std::align_val_t) noexcept {
  std::free(pointer);
}

namespace dear {
namespace {

using namespace dear::reactor;

/// Self-rescheduling logical-action loop — the distilled scheduler hot
/// path (schedule -> enqueue -> pop -> setup -> execute -> cleanup).
class Looper final : public Reactor {
 public:
  Looper(Environment& env) : Reactor("looper", env) {
    add_reaction("kick", [this] { action_.schedule(Empty{}); }).triggered_by(startup_);
    add_reaction("tick",
                 [this] {
                   ++ticks;
                   action_.schedule(Empty{}, 1);
                 })
        .triggered_by(action_);
  }

  std::uint64_t ticks{0};

 private:
  StartupTrigger startup_{"startup", this};
  LogicalAction<Empty> action_{"tick", this};
};

TEST(AllocCount, SchedulerSteadyStateIsAllocationFree) {
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment env(clock);
  Looper looper(env);
  env.assemble();
  env.scheduler().start_at(Tag{0, 0});

  const auto process_tags = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto result = env.scheduler().process_next_tag(kTimeMax);
      ASSERT_TRUE(result.has_value());
    }
  };

  process_tags(2000);  // warm: pools, heap capacity, staging buffers
  const std::uint64_t before_ticks = looper.ticks;
  const std::uint64_t before = allocation_count();
  process_tags(1000);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "scheduler loop allocated " << (after - before) << " times over "
      << (looper.ticks - before_ticks) << " events";
  EXPECT_EQ(looper.ticks - before_ticks, 1000u);
}

TEST(AllocCount, SomeIpRoundTripIsAllocationFree) {
  someip::Message message;
  message.service = 0x1234;
  message.method = 0x8001;
  message.client = 0x01;
  message.session = 0x42;
  message.type = someip::MessageType::kNotification;
  message.payload.assign(256, 0xAB);
  message.tag = someip::WireTag{123'456'789, 2};

  std::vector<std::uint8_t> wire;
  someip::Message scratch;
  const auto round_trip = [&] {
    message.encode_into(wire);
    ASSERT_TRUE(someip::Message::decode_into(wire.data(), wire.size(), scratch));
    ASSERT_EQ(scratch.payload.size(), message.payload.size());
  };

  for (int i = 0; i < 16; ++i) {
    round_trip();  // warm: wire buffer + scratch payload capacity
  }
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    round_trip();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "SOME/IP round trip allocated " << (after - before) << " times over 1000 messages";
}

TEST(AllocCount, ValuePoolRecyclesEventValues) {
  // One warm allocate/release primes the size class...
  make_immutable_value<std::int64_t>(0).reset();
  const std::uint64_t before = allocation_count();
  for (std::int64_t i = 0; i < 1000; ++i) {
    // ...then every schedule-shaped allocate/release pair hits the free
    // list instead of the system allocator.
    ImmutableValuePtr<std::int64_t> value = make_immutable_value<std::int64_t>(i);
    ASSERT_EQ(*value, i);
    value.reset();
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

std::uint64_t shelf_locks() {
  return common::SmallBlockPool::instance().shelf_lock_count() +
         common::BufferPool::instance().shelf_lock_count();
}

TEST(ShelfLocks, CampaignWorkerSteadyStateTakesNoShelfLocks) {
  // A campaign worker is a thread running independent DES scenarios back
  // to back. Its first scenario warms the thread-local magazines; every
  // later one must recycle through them without a single global-shelf
  // lock — the per-worker scratch arena the batch runner relies on.
  const auto campaign = scenario::presets::throughput(12, 60, 1);
  const std::vector<scenario::ScenarioSpec> scenarios = campaign.expand();
  std::uint64_t steady_locks = 0;
  std::thread worker([&] {
    (void)scenario::run_scenario(scenarios[0]);  // warm this thread's magazines
    (void)scenario::run_scenario(scenarios[1]);
    const std::uint64_t before = shelf_locks();
    for (std::size_t i = 2; i < scenarios.size(); ++i) {
      (void)scenario::run_scenario(scenarios[i]);
    }
    steady_locks = shelf_locks() - before;
  });
  worker.join();
  EXPECT_EQ(steady_locks, 0u) << "steady-state scenarios reached the global shelves "
                              << steady_locks << " times";
}

TEST(ShelfLocks, TwoWorkerCampaignShelfLocksStayFlat) {
  // Whole 2-worker campaigns: total shelf traffic is a constant per worker
  // (magazine warmup + exit drain), independent of how many scenarios the
  // campaign runs. 24 extra scenarios — millions of pooled allocations —
  // must not add a single marginal lock beyond that per-thread budget.
  const auto run_campaign = [](std::uint64_t scenario_count) {
    scenario::RunnerOptions options;
    options.workers = 2;
    const auto report =
        scenario::CampaignRunner(options).run(scenario::presets::throughput(scenario_count, 60, 1));
    ASSERT_TRUE(report.invariants_ok());
  };
  run_campaign(8);  // warm the global shelves themselves
  const std::uint64_t before_small = shelf_locks();
  run_campaign(8);
  const std::uint64_t small_delta = shelf_locks() - before_small;
  const std::uint64_t before_large = shelf_locks();
  run_campaign(32);
  const std::uint64_t large_delta = shelf_locks() - before_large;
  // Equal thread count -> equal warm/drain budget; allow one worker's
  // warm+drain of slack for scheduling skew (a worker that never claimed
  // a scenario in the small run touches nothing).
  constexpr std::uint64_t kPerWorkerBudget = 24;
  EXPECT_LE(large_delta, small_delta + kPerWorkerBudget)
      << "shelf locks grew with scenario count: " << small_delta << " -> " << large_delta;
  EXPECT_LE(large_delta, 2 * kPerWorkerBudget + 8)
      << "2-worker campaign took " << large_delta << " shelf locks";
}

TEST(ShelfLocks, ThreadedSchedulerSteadyStateTakesNoShelfLocks) {
  // Threaded fan-out: all pooled traffic (action values, port values)
  // allocates and frees on the thread that runs the tag loop, whose
  // magazines reach steady state during the warm run. Quadrupling the
  // event count must add zero shelf locks.
  using namespace dear::reactor;
  const auto run_fanout = [](std::int64_t events) {
    RealClock clock;
    Environment env(clock);
    // delay 1: distinct tag times per event (the conformance tests cover
    // the microstep-packed delay-0 loop).
    reactor::testing::LoopSource source(env, events, 1);
    std::vector<std::unique_ptr<reactor::testing::LoopSink>> sinks;
    for (int i = 0; i < 8; ++i) {
      sinks.push_back(
          std::make_unique<reactor::testing::LoopSink>(env, "sink" + std::to_string(i)));
      env.connect(source.out, sinks.back()->in);
    }
    env.run();
  };
  run_fanout(400);  // warm the tag-loop thread's magazines
  const std::uint64_t before_small = shelf_locks();
  run_fanout(400);
  const std::uint64_t small_delta = shelf_locks() - before_small;
  const std::uint64_t before_large = shelf_locks();
  run_fanout(1600);
  const std::uint64_t large_delta = shelf_locks() - before_large;
  EXPECT_EQ(large_delta, small_delta)
      << "threaded scheduler shelf locks grew with event count: " << small_delta << " -> "
      << large_delta;
  EXPECT_EQ(small_delta, 0u) << "warm threaded run still took " << small_delta
                             << " shelf locks";
}

/// Restores the at-rest obs configuration when a test scope exits, so
/// the enabled-path tests below cannot leak state into each other.
struct ObsStateGuard {
  ~ObsStateGuard() {
    obs::Registry::instance().set_metrics_enabled(false);
    obs::Registry::instance().set_span_mask(0);
    obs::Registry::instance().set_ring_capacity(obs::Registry::kDefaultRingCapacity);
    obs::Registry::instance().reset();
  }
};

TEST(AllocCount, MetricOpsAreAllocationFreeOnceWarm) {
  // The PR 8 enabled-path contract: after the thread's cell cache exists,
  // a counter increment, gauge update, or histogram observe is a relaxed
  // load + store into this thread's own cache line — zero allocations,
  // zero shelf locks.
  ObsStateGuard guard;
  obs::Registry::instance().set_metrics_enabled(true);
  obs::count(obs::Counter::kSimEventsProcessed);  // warm: creates the cache
  const std::uint64_t locks_before = shelf_locks();
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10'000; ++i) {
    obs::count(obs::Counter::kSimEventsProcessed);
    obs::gauge_max(obs::Gauge::kSchedQueueDepthPeak, static_cast<std::uint64_t>(i));
    obs::observe(obs::Hist::kSchedLevelWidth, static_cast<double>(i % 64));
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "metric ops allocated " << (after - before) << " times over 30000 records";
  EXPECT_EQ(shelf_locks() - locks_before, 0u);
  EXPECT_GE(obs::Registry::instance().counter_total(obs::Counter::kSimEventsProcessed), 10'001u);
}

TEST(AllocCount, SpanRecordingIsAllocationFreeOnceWarm) {
  // Span rings size lazily on the first record and intern each distinct
  // name once; after that a record is a clock pair plus a slot write.
  ObsStateGuard guard;
  obs::Registry::instance().set_ring_capacity(256);
  obs::Registry::instance().set_span_mask(obs::kAllSpansMask);
  { obs::SpanScope warm(obs::SpanCategory::kScenario, "alloc-test-span"); }
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 2'000; ++i) {
    obs::SpanScope span(obs::SpanCategory::kScenario, "alloc-test-span", i, 0, 1);
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "span recording allocated " << (after - before) << " times over 2000 spans";
  EXPECT_EQ(obs::Registry::instance().snapshot().spans_recorded, 2'001u);
}

TEST(AllocCount, InstrumentedSchedulerSteadyStateIsAllocationFree) {
  // The scheduler hot loop with live metrics: the gated per-tag blocks
  // (queue-depth gauge, level-width observe + histogram, levels-run
  // counter) must stay inside the zero-allocation steady state the
  // uninstrumented loop already guarantees.
  ObsStateGuard guard;
  obs::Registry::instance().set_metrics_enabled(true);
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment env(clock);
  Looper looper(env);
  env.assemble();
  env.scheduler().start_at(Tag{0, 0});

  const auto process_tags = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto result = env.scheduler().process_next_tag(kTimeMax);
      ASSERT_TRUE(result.has_value());
    }
  };

  process_tags(2000);  // warm: pools, heap capacity, obs thread cache
  const std::uint64_t locks_before = shelf_locks();
  const std::uint64_t before = allocation_count();
  process_tags(1000);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "instrumented scheduler loop allocated " << (after - before)
                                << " times over 1000 events";
  EXPECT_EQ(shelf_locks() - locks_before, 0u);
  EXPECT_GT(obs::Registry::instance().counter_total(obs::Counter::kSchedLevelsRun), 0u);
}

TEST(AllocCount, LoanedFrameRoundTripLocalIsAllocationAndCopyFree) {
  // The sensor data plane's core claim, enforced at the allocator: a
  // steady-state 1 MiB loaned frame through the local backend — loan,
  // stamp, publish, notify_loaned, subscriber delivery, slab release —
  // performs ZERO system allocations and ZERO payload memcpys. Slabs
  // recycle through the shelf, notification messages move the refcounted
  // handle, and the binding's inbox nodes come from SmallBlockPool.
  common::ThreadPoolExecutor executor(1);  // timeout synthesis only (idle here)
  {
    ara::com::LocalHub hub;
    ara::com::LocalBinding server(hub, executor, {1, 100}, 0x01);
    ara::com::LocalBinding client(hub, executor, {2, 200}, 0x02);

    // Handler capture must fit std::function's inline storage — the
    // dispatch path copies the handler per delivery.
    static std::uint64_t frames_seen;
    static std::uint64_t bytes_seen;
    frames_seen = 0;
    bytes_seen = 0;
    client.subscribe({1, 100}, 0x0D0E, 0x8001, [](const someip::Message& message) {
      ++frames_seen;
      bytes_seen += message.loaned.size();
    });

    const auto send_frame = [&](std::uint64_t index) {
      common::LoanedBuffer frame = common::BufferPool::instance().loan(1024 * 1024);
      frame.data()[0] = static_cast<std::uint8_t>(index & 0xFFu);
      frame.publish(1024 * 1024);
      server.notify_loaned(0x0D0E, 0x8001, std::move(frame));
    };

    for (std::uint64_t i = 0; i < 16; ++i) {
      send_frame(i);  // warm: slab shelf, inbox node pool, handler copy
    }
    const std::uint64_t copies_before =
        obs::Registry::instance().counter_total(obs::Counter::kDataplanePayloadCopies);
    const std::uint64_t slab_allocs_before =
        obs::Registry::instance().counter_total(obs::Counter::kPoolSlabAllocs);
    const std::uint64_t slab_loans_before =
        obs::Registry::instance().counter_total(obs::Counter::kPoolSlabLoans);
    const std::uint64_t shelf_hits_before =
        obs::Registry::instance().counter_total(obs::Counter::kPoolSlabShelfHits);
    const std::uint64_t before = allocation_count();
    for (std::uint64_t i = 0; i < 100; ++i) {
      send_frame(16 + i);
    }
    const std::uint64_t after = allocation_count();
    EXPECT_EQ(after - before, 0u) << "loaned frame round trip allocated " << (after - before)
                                  << " times over 100 frames";
    EXPECT_EQ(obs::Registry::instance().counter_total(obs::Counter::kDataplanePayloadCopies) -
                  copies_before,
              0u);
    EXPECT_EQ(obs::Registry::instance().counter_total(obs::Counter::kPoolSlabAllocs) -
                  slab_allocs_before,
              0u);
    // Every one of the 100 loans is served from the shelf.
    EXPECT_EQ(obs::Registry::instance().counter_total(obs::Counter::kPoolSlabLoans) -
                  slab_loans_before,
              100u);
    EXPECT_EQ(obs::Registry::instance().counter_total(obs::Counter::kPoolSlabShelfHits) -
                  shelf_hits_before,
              100u);
    EXPECT_EQ(frames_seen, 116u);
    EXPECT_EQ(bytes_seen, 116u * 1024u * 1024u);
  }
  executor.drain();
}

TEST(AllocCount, BufferPoolRecyclesWireBuffers) {
  {
    std::vector<std::uint8_t> warm = common::BufferPool::instance().acquire(4096);
    warm.resize(4096);
    common::BufferPool::instance().release(std::move(warm));
  }
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> buffer = common::BufferPool::instance().acquire(1024);
    EXPECT_GE(buffer.capacity(), 1024u);
    buffer.resize(512);
    common::BufferPool::instance().release(std::move(buffer));
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

// --- typed ara::com message path ----------------------------------------------

using ara::testing::TestProxy;
using ara::testing::TestSkeleton;
using ara::testing::ThreeProcessWorld;

/// Allocations per SkeletonEvent::Send to two subscribed ProxyEvents, once
/// warm. The subscribers use immediate receive handlers: the dispatcher
/// post of a deferred handler is a separate cost, outside the message path.
std::uint64_t typed_event_allocations(ara::com::BackendKind kind) {
  ThreeProcessWorld world(kind);
  TestSkeleton skeleton(*world.runtimes[0], ara::MethodCallProcessingMode::kEvent);
  TestProxy first(*world.runtimes[1], ThreeProcessWorld::kEndpoints[0]);
  TestProxy second(*world.runtimes[2], ThreeProcessWorld::kEndpoints[0]);
  struct Totals {
    std::uint64_t received{0};
    std::uint64_t tick_sum{0};
  } totals;
  for (TestProxy* proxy : {&first, &second}) {
    // One pointer capture: the handler stays in std::function's inline
    // storage, as the transactors' handlers do.
    proxy->tick.SetImmediateReceiveHandler([&totals](const std::uint64_t& tick) {
      ++totals.received;
      totals.tick_sum += tick;
    });
    proxy->tick.Subscribe();
  }
  world.kernel.run();  // subscriptions land

  const auto send = [&](std::uint64_t tick) {
    skeleton.tick.Send(tick);
    world.kernel.run();
  };
  for (std::uint64_t i = 1; i <= 64; ++i) {
    send(i);  // warm: pool buffers, kernel heap, slot table, inbox nodes
  }
  constexpr std::uint64_t kMessages = 500;
  const std::uint64_t before = allocation_count();
  for (std::uint64_t i = 65; i < 65 + kMessages; ++i) {
    send(i);
  }
  const std::uint64_t allocations = allocation_count() - before;
  EXPECT_EQ(totals.received, 2 * (64 + kMessages));
  EXPECT_EQ(totals.tick_sum, 2 * ((64 + kMessages) * (65 + kMessages) / 2));
  return allocations;
}

/// Allocations per method call plus its response, once warm, with the
/// typed payload codec ara::ProxyMethod and ara::SkeletonMethod use on the
/// binding's call/respond. (The typed method templates add their own
/// Future state and request-copy closure on top; this measures the
/// message path under them.)
std::uint64_t typed_method_allocations(ara::com::BackendKind kind) {
  using ara::testing::kAddMethod;
  using ara::testing::kTestService;
  ThreeProcessWorld world(kind);
  ara::com::TransportBinding& server = world.runtimes[0]->binding();
  ara::com::TransportBinding& client = world.runtimes[1]->binding();
  server.provide_method(kTestService, kAddMethod,
                        [&server](const someip::Message& request, const net::Endpoint& from) {
                          std::int32_t a = 0;
                          std::int32_t b = 0;
                          ASSERT_TRUE(someip::decode_payload(request.payload, a, b));
                          server.respond(request, from,
                                         someip::encode_payload(static_cast<std::int32_t>(a + b)));
                        });
  struct Totals {
    std::uint64_t responses{0};
    std::int64_t sum{0};
  } totals;
  const auto call = [&](std::int32_t i) {
    client.call(ThreeProcessWorld::kEndpoints[0], kTestService, kAddMethod,
                someip::encode_payload(i, std::int32_t{1}),
                [&totals](const someip::Message& response) {
                  std::int32_t sum = 0;
                  ASSERT_TRUE(someip::decode_payload(response.payload, sum));
                  ++totals.responses;
                  totals.sum += sum;
                });
    world.kernel.run();
  };
  for (std::int32_t i = 1; i <= 64; ++i) {
    call(i);  // warm
  }
  constexpr std::int32_t kCalls = 500;
  const std::uint64_t before = allocation_count();
  for (std::int32_t i = 65; i < 65 + kCalls; ++i) {
    call(i);
  }
  const std::uint64_t allocations = allocation_count() - before;
  EXPECT_EQ(totals.responses, 64u + kCalls);
  // Each call returns i + 1 for i = 1 .. 564.
  EXPECT_EQ(totals.sum, (64 + kCalls) * (65 + kCalls) / 2 + (64 + kCalls));
  return allocations;
}

TEST(AllocCount, TypedEventFanOutOverSomeIpIsAllocationFree) {
  const std::uint64_t allocations = typed_event_allocations(ara::com::BackendKind::kSomeIp);
  EXPECT_EQ(allocations, 0u) << "typed SOME/IP event fan-out allocated " << allocations
                             << " times over 500 sends to two subscribers";
}

TEST(AllocCount, TypedEventFanOutOverLocalIsAllocationFree) {
  const std::uint64_t allocations = typed_event_allocations(ara::com::BackendKind::kLocal);
  EXPECT_EQ(allocations, 0u) << "typed local event fan-out allocated " << allocations
                             << " times over 500 sends to two subscribers";
}

TEST(AllocCount, TypedMethodCallOverSomeIpIsAllocationFree) {
  const std::uint64_t allocations = typed_method_allocations(ara::com::BackendKind::kSomeIp);
  EXPECT_EQ(allocations, 0u) << "typed SOME/IP method call allocated " << allocations
                             << " times over 500 calls";
}

TEST(AllocCount, TypedMethodCallOverLocalIsAllocationFree) {
  const std::uint64_t allocations = typed_method_allocations(ara::com::BackendKind::kLocal);
  EXPECT_EQ(allocations, 0u) << "typed local method call allocated " << allocations
                             << " times over 500 calls";
}

// --- app set-up ----------------------------------------------------------------

/// Allocations of one more run of `run`, once three runs have warmed the
/// thread's pools and scratch buffers.
template <typename Run>
std::uint64_t warm_run_allocations(Run&& run) {
  for (int i = 0; i < 3; ++i) {
    run();  // warm
  }
  const std::uint64_t before = allocation_count();
  run();
  return allocation_count() - before;
}

/// Allocations of one zero-frame brake pipeline: DEAR over `transport`,
/// with a service fault (the fault-tolerance layer built) when
/// `service_faults`, or the stock AP baseline when `nondet`.
std::uint64_t brake_setup_allocations(scenario::Transport transport, bool service_faults = false,
                                      bool nondet = false) {
  scenario::ScenarioSpec spec;
  spec.workload = nondet ? scenario::Workload::kBrakeNondet : scenario::Workload::kBrakeDear;
  spec.transport = transport;
  spec.frames = 0;
  if (service_faults) {
    spec.service_faults.crash_at = 2 * kSecond;
  }
  if (nondet) {
    const brake::ScenarioConfig config = scenario::to_nondet_config(spec);
    return warm_run_allocations([&config] {
      EXPECT_EQ(brake::run_nondet_pipeline(config).frames_sent, 0u);
    });
  }
  const brake::DearScenarioConfig config = scenario::to_dear_config(spec);
  return warm_run_allocations([&config] {
    EXPECT_EQ(brake::run_dear_pipeline(config).frames_sent, 0u);
  });
}

/// Allocations of one zero-frame ACC pipeline over SOME/IP.
std::uint64_t acc_setup_allocations() {
  scenario::ScenarioSpec spec;
  spec.workload = scenario::Workload::kAcc;
  spec.frames = 0;
  const acc::AccScenarioConfig config = scenario::to_acc_config(spec);
  return warm_run_allocations([&config] { (void)acc::run_acc_pipeline(config); });
}

// Measured counts, aligned new included. Before element names, reactions
// and wiring moved into per-environment arenas and the graph tables into
// one buffer, they were 370, 378, 72, 688 and 527 (802 and 810 over
// SOME/IP and locally before the shared flat graph). A drop should lower
// the pin.
constexpr std::uint64_t kAppSetupSomeIpAllocations = 88;
constexpr std::uint64_t kAppSetupLocalAllocations = 91;
constexpr std::uint64_t kAppSetupNondetAllocations = 59;
constexpr std::uint64_t kAppSetupAccAllocations = 185;
constexpr std::uint64_t kAppSetupDearFtAllocations = 155;

TEST(AllocCount, AppSetupSomeIp) {
  const std::uint64_t allocations = brake_setup_allocations(scenario::Transport::kSomeIp);
  EXPECT_LE(allocations, kAppSetupSomeIpAllocations)
      << "a zero-frame DEAR build over SOME/IP allocated " << allocations << " times";
}

TEST(AllocCount, AppSetupLocal) {
  const std::uint64_t allocations = brake_setup_allocations(scenario::Transport::kLocal);
  EXPECT_LE(allocations, kAppSetupLocalAllocations)
      << "a zero-frame DEAR build over the local transport allocated " << allocations
      << " times";
}

TEST(AllocCount, AppSetupNondet) {
  const std::uint64_t allocations =
      brake_setup_allocations(scenario::Transport::kSomeIp, false, /*nondet=*/true);
  EXPECT_LE(allocations, kAppSetupNondetAllocations)
      << "a zero-frame stock AP brake build allocated " << allocations << " times";
}

TEST(AllocCount, AppSetupAcc) {
  const std::uint64_t allocations = acc_setup_allocations();
  EXPECT_LE(allocations, kAppSetupAccAllocations)
      << "a zero-frame DEAR ACC build allocated " << allocations << " times";
}

TEST(AllocCount, AppSetupDearFt) {
  const std::uint64_t allocations =
      brake_setup_allocations(scenario::Transport::kSomeIp, /*service_faults=*/true);
  EXPECT_LE(allocations, kAppSetupDearFtAllocations)
      << "a zero-frame DEAR build with the fault-tolerance layer allocated " << allocations
      << " times";
}

}  // namespace
}  // namespace dear
