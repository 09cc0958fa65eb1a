// Transport backend comparison: SOME/IP (serialization + in-process
// loopback network over real threads) vs. the zero-copy LocalBinding
// (payload moved through a lock-free queue, no serialization, no network).
//
// Two workloads, identical for both backends (64-byte payload, 2 executor
// workers):
//   * method round trip — the client calls an echo method and waits for
//     the response; per-call latency distribution;
//   * notify throughput — the server publishes N event notifications to
//     one subscriber; sustained messages/second.
//
// Expected shape: LocalBinding wins on both axes — it skips the SOME/IP
// encode/decode and the executor hop the loopback network pays per
// packet. Gate: local_backend_lower_p50 (local round-trip p50 below the
// SOME/IP one), enforced from 1000 round trips up; --quick runs take too
// few samples for a comparative verdict under CI co-load and record the
// gate as skipped.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "common/thread_pool.hpp"
#include "net/rt_network.hpp"
#include "suites.hpp"

namespace dear::bench {

namespace {

constexpr someip::ServiceId kService = 0x0F0F;
constexpr someip::MethodId kEchoMethod = 0x0001;
constexpr someip::EventId kDataEvent = 0x8001;

constexpr net::Endpoint kServerEp{1, 100};
constexpr net::Endpoint kClientEp{2, 200};

constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kWarmupCalls = 64;
constexpr std::uint64_t kGateMinRoundTrips = 1000;

struct WorkloadResult {
  std::vector<double> round_trip_ns;
  double notifies_per_s{0.0};
};

/// Runs both workloads against an already-wired (server, client) pair of
/// transport bindings.
WorkloadResult run_workloads(ara::com::TransportBinding& server,
                             ara::com::TransportBinding& client, std::uint64_t round_trips,
                             std::uint64_t notifies) {
  const std::vector<std::uint8_t> payload(kPayloadBytes, 0xAB);
  server.provide_method(kService, kEchoMethod,
                        [&server](const someip::Message& request, const net::Endpoint& from) {
                          server.respond(request, from, request.payload);
                        });
  WorkloadResult result;

  // --- round-trip latency ----------------------------------------------------
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  const auto one_call = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done = false;
    }
    client.call(kServerEp, kService, kEchoMethod, payload, [&](const someip::Message&) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
  };
  for (std::uint64_t i = 0; i < kWarmupCalls; ++i) {
    one_call();
  }
  result.round_trip_ns.reserve(round_trips);
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    const double start = now_ns();
    one_call();
    result.round_trip_ns.push_back(now_ns() - start);
  }

  // --- notify throughput -----------------------------------------------------
  std::atomic<std::uint64_t> received{0};
  client.subscribe(kServerEp, kService, kDataEvent, [&received](const someip::Message&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  // The SOME/IP subscription is a control message through the executor:
  // wait until it took effect.
  while (server.subscriber_count(kService, kDataEvent) == 0) {
    std::this_thread::yield();
  }
  const double start = now_ns();
  for (std::uint64_t i = 0; i < notifies; ++i) {
    server.notify(kService, kDataEvent, payload);
  }
  while (received.load(std::memory_order_relaxed) < notifies) {
    std::this_thread::yield();
  }
  const double seconds = (now_ns() - start) / 1e9;
  result.notifies_per_s = static_cast<double>(notifies) / (seconds > 1e-9 ? seconds : 1e-9);

  server.remove_method(kService, kEchoMethod);
  client.unsubscribe(kServerEp, kService, kDataEvent);
  return result;
}

/// Records a backend's round-trip samples with its notify throughput and
/// returns the round-trip p50.
double record_backend(Harness& h, const char* name, const WorkloadResult& result) {
  CaseResult& row = h.record(name, result.round_trip_ns, result.notifies_per_s);
  Harness::counter(row, "notify_msgs_per_s", result.notifies_per_s);
  return row.p50_ns;
}

}  // namespace

void run_binding_suite(Harness& h) {
  const std::uint64_t round_trips = h.scale(3'000, 200);
  const std::uint64_t notifies = h.scale(100'000, 2'000);

  double someip_p50 = 0.0;
  {
    common::ThreadPoolExecutor executor(kWorkers);
    net::RtNetwork network(executor);
    ara::com::SomeIpBinding server(network, executor, kServerEp, 0x01);
    ara::com::SomeIpBinding client(network, executor, kClientEp, 0x02);
    someip_p50 = record_backend(h, "binding/someip",
                                run_workloads(server, client, round_trips, notifies));
    executor.drain();
  }
  double local_p50 = 0.0;
  {
    common::ThreadPoolExecutor executor(kWorkers);  // timeout synthesis only
    ara::com::LocalHub hub;
    ara::com::LocalBinding server(hub, executor, kServerEp, 0x01);
    ara::com::LocalBinding client(hub, executor, kClientEp, 0x02);
    local_p50 = record_backend(h, "binding/local",
                               run_workloads(server, client, round_trips, notifies));
    executor.drain();
  }

  char detail[128];
  std::snprintf(detail, sizeof(detail), "local p50 %.0fns vs someip p50 %.0fns", local_p50,
                someip_p50);
  if (round_trips >= kGateMinRoundTrips) {
    h.gate("local_backend_lower_p50", local_p50 < someip_p50, detail);
  } else {
    const std::string reason = std::to_string(round_trips) + " round trips below the " +
                               std::to_string(kGateMinRoundTrips) + "-sample floor (" +
                               detail + ")";
    h.gate_skipped("local_backend_lower_p50", reason);
  }
}

}  // namespace dear::bench
