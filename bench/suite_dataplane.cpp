// Sensor data plane: what does it cost to move high-bandwidth payloads
// (camera frames) through the event plane?
//
// Two publishing disciplines per transport, swept over the slab classes
// (64 KiB / 256 KiB / 1 MiB / 4 MiB):
//   * loaned — the publisher loans a pooled slab, stamps a small header,
//     and hands the refcounted handle to notify_loaned(). The local
//     backend fans the handle out without touching the bytes; SOME/IP
//     frames the slab onto the wire with exactly one copy.
//   * encode — the pre-data-plane baseline: a std::vector payload copied
//     into the binding per notify() (plus the SOME/IP encode/decode pair
//     on the wire backend).
//
// Per-batch frame counts scale inversely with the payload class so every
// row moves a comparable byte volume; GB/s is the comparable unit.
//
// Gates:
//   * dataplane_local_loaned_10x_1mb — local loaned >= 10x local encode
//     GB/s at 1 MiB;
//   * dataplane_local/someip_delivery — every wait for a subscription
//     change or for in-flight frames finished within its deadline (a lost
//     frame fails here, with sent/received, instead of hanging the run).
//
// The steady-state audit (zero allocations, zero payload memcpys, every
// slab loan a shelf hit) is pinned by
// AllocCount.LoanedFrameRoundTripLocalIsAllocationAndCopyFree, and the
// anchor digest with 1 MiB camera bursts live by
// DearPipeline.AnchorDigestHoldsOnBothTransports.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "common/buffer_pool.hpp"
#include "common/thread_pool.hpp"
#include "net/rt_network.hpp"
#include "suites.hpp"

namespace dear::bench {

namespace {

constexpr someip::ServiceId kService = 0x0D0E;
constexpr someip::EventId kDataEvent = 0x8001;
constexpr net::Endpoint kServerEp{1, 100};
constexpr net::Endpoint kClientEp{2, 200};

constexpr std::size_t kPayloadClasses[] = {64u * 1024u, 256u * 1024u, 1024u * 1024u,
                                           4u * 1024u * 1024u};

const char* class_name(std::size_t bytes) {
  switch (bytes) {
    case 64u * 1024u: return "64KiB";
    case 256u * 1024u: return "256KiB";
    case 1024u * 1024u: return "1MiB";
    default: return "4MiB";
  }
}

/// Sensor-style header stamp: the producer writes a tiny header (here the
/// frame index, little-endian) instead of filling the whole slab — DMA
/// owns the bulk bytes in the modeled system, and filling them from the
/// CPU would turn every row into a memset benchmark.
void stamp_frame(std::uint8_t* data, std::uint64_t frame_index) {
  for (std::size_t i = 0; i < 8; ++i) {
    data[i] = static_cast<std::uint8_t>((frame_index >> (8 * i)) & 0xFFu);
  }
}

/// Frames per measured batch at the 64 KiB class (36 under --quick).
/// Larger classes scale the per-batch frame count down so every row moves
/// a comparable byte volume (GB/s stays the comparable unit).
constexpr std::uint64_t kBaseFrames = 256;

/// Frames per batch for a payload class: scaled so frames * bytes is
/// roughly constant (the 64 KiB class count), floored at 4.
std::uint64_t frames_for(std::uint64_t base_frames, std::size_t bytes) {
  const std::uint64_t scaled = base_frames * (64u * 1024u) / bytes;
  return scaled < 4 ? 4 : scaled;
}

/// Upper bound on any single wait for a subscription change or for the
/// in-flight frames of a batch. A whole quick-mode run takes about two
/// seconds, so this only trips when a frame or a subscription change is
/// lost.
constexpr double kWaitDeadlineNs = 10e9;

/// Yields until done() holds; false when kWaitDeadlineNs passes first.
template <typename Done>
bool wait_for(Done&& done) {
  const double deadline = now_ns() + kWaitDeadlineNs;
  while (!done()) {
    if (now_ns() > deadline) {
      return done();
    }
    std::this_thread::yield();
  }
  return true;
}

/// Waits until the server sees exactly `subscribers` subscribers to the
/// data event. Subscribe and unsubscribe are applied asynchronously (on
/// the SOME/IP backend they cross a multi-threaded executor), so a stream
/// may neither start nor hand over to the next one on a stale count.
bool wait_for_subscribers(ara::com::TransportBinding& server, std::size_t subscribers) {
  return wait_for([&server, subscribers] {
    return server.subscriber_count(kService, kDataEvent) == subscribers;
  });
}

struct StreamRow {
  std::vector<double> per_frame_ns;
  double gb_per_s{0.0};
  std::uint64_t frames{0};
  std::uint64_t bytes_delivered{0};
  /// Empty when every wait finished in time; otherwise which wait timed
  /// out, with the frames sent and received so far.
  std::string stall;
};

std::string stall_detail(const char* wait, std::uint64_t sent, std::uint64_t received) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s timed out: sent %llu, received %llu", wait,
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(received));
  return buffer;
}

/// Streams `batches` timed batches of `frames_per_batch` event frames
/// from server to one subscribed client, waiting out the in-flight tail
/// after each batch. One untimed warmup batch populates the slab shelves
/// (and the SOME/IP executor caches) first. `send_frame(server, index)`
/// publishes one frame. The stream ends unsubscribed, with the server's
/// subscriber count back at zero; a timed-out wait ends it early with
/// `stall` set.
template <typename SendFrame>
StreamRow run_stream(ara::com::TransportBinding& server, ara::com::TransportBinding& client,
                     std::size_t payload_bytes, std::uint64_t frames_per_batch,
                     std::uint64_t batches, SendFrame&& send_frame) {
  StreamRow row;
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> bytes_delivered{0};
  client.subscribe(kServerEp, kService, kDataEvent,
                   [&received, &bytes_delivered](const someip::Message& message) {
                     bytes_delivered.fetch_add(
                         message.loaned ? message.loaned.size() : message.payload.size(),
                         std::memory_order_relaxed);
                     received.fetch_add(1, std::memory_order_release);
                   });
  std::uint64_t sent = 0;
  const auto stop = [&](const char* wait) {
    row.stall = stall_detail(wait, sent, received.load(std::memory_order_acquire));
    client.unsubscribe(kServerEp, kService, kDataEvent);
    (void)wait_for_subscribers(server, 0);
    return row;
  };
  if (!wait_for_subscribers(server, 1)) {
    return stop("subscribe");
  }

  // Wall time of one batch, or a negative value when its tail never arrived.
  const auto run_batch = [&]() -> double {
    const double start = now_ns();
    for (std::uint64_t frame = 0; frame < frames_per_batch; ++frame) {
      send_frame(server, sent);
      ++sent;
    }
    if (!wait_for([&] { return received.load(std::memory_order_acquire) >= sent; })) {
      return -1.0;
    }
    return now_ns() - start;
  };

  if (run_batch() < 0.0) {  // warmup: shelves filled, wire caches primed
    return stop("warmup batch");
  }

  row.per_frame_ns.reserve(batches);
  double total_ns = 0.0;
  for (std::uint64_t batch = 0; batch < batches; ++batch) {
    const double elapsed = run_batch();
    if (elapsed < 0.0) {
      return stop("batch");
    }
    total_ns += elapsed;
    row.per_frame_ns.push_back(elapsed / static_cast<double>(frames_per_batch));
  }
  row.frames = frames_per_batch * batches;
  // bytes / ns == GB/s (both decimal giga).
  row.gb_per_s = total_ns > 0.0
                     ? static_cast<double>(row.frames) * static_cast<double>(payload_bytes) /
                           total_ns
                     : 0.0;
  client.unsubscribe(kServerEp, kService, kDataEvent);
  if (!wait_for_subscribers(server, 0)) {
    row.stall = stall_detail("unsubscribe", sent, received.load(std::memory_order_acquire));
  }
  row.bytes_delivered = bytes_delivered.load(std::memory_order_relaxed);
  return row;
}

/// Publishes one loaned frame: shelf loan, header stamp, publish, hand
/// the refcounted handle to the binding.
void send_loaned(ara::com::TransportBinding& server, std::size_t payload_bytes,
                 std::uint64_t frame_index) {
  common::LoanedBuffer buffer = common::BufferPool::instance().loan(payload_bytes);
  if (!buffer) {
    return;
  }
  stamp_frame(buffer.data(), frame_index);
  buffer.publish(payload_bytes);
  server.notify_loaned(kService, kDataEvent, std::move(buffer));
}

/// Records one stream row on the harness with its GB/s counter. A stalled
/// row is not recorded: its stall goes to `stall` and the result is false,
/// which ends the backend's sweep.
bool record_row(Harness& harness, const std::string& name, const StreamRow& row,
                std::string& stall) {
  if (!row.stall.empty()) {
    stall = name + ": " + row.stall;
    return false;
  }
  CaseResult& result = harness.record(name, row.per_frame_ns);
  result.iterations = row.frames;
  Harness::counter(result, "gb_per_s", row.gb_per_s);
  Harness::counter(result, "bytes_delivered", static_cast<double>(row.bytes_delivered));
  return true;
}

/// Gate over one backend's waits: `stall` is the first one that timed out.
void delivery_gate(Harness& harness, const char* gate, const std::string& stall) {
  harness.gate(gate, stall.empty(),
               stall.empty() ? "every stream delivered all frames within the deadline" : stall);
}

}  // namespace

void run_dataplane_suite(Harness& h) {
  char detail[192];
  const std::uint64_t base_frames = h.scale(kBaseFrames, kBaseFrames / 8 + 4);
  const std::uint64_t batches = h.repeats();

  // --- local backend: loaned vs encode over the payload classes --------------
  double local_loaned_1mb = 0.0;
  double local_encode_1mb = 0.0;
  std::string local_stall;  // first timed-out wait on the local backend
  {
    common::ThreadPoolExecutor executor(1);  // timeout synthesis only
    ara::com::LocalHub hub;
    ara::com::LocalBinding server(hub, executor, kServerEp, 0x01);
    ara::com::LocalBinding client(hub, executor, kClientEp, 0x02);

    for (const std::size_t payload_bytes : kPayloadClasses) {
      const std::uint64_t frames = frames_for(base_frames, payload_bytes);
      char name[96];

      const StreamRow loaned = run_stream(
          server, client, payload_bytes, frames, batches,
          [payload_bytes](ara::com::TransportBinding& binding, std::uint64_t index) {
            send_loaned(binding, payload_bytes, index);
          });
      std::snprintf(name, sizeof(name), "dataplane/local/loaned/%s",
                    class_name(payload_bytes));
      if (!record_row(h, name, loaned, local_stall)) {
        break;
      }

      std::vector<std::uint8_t> staging(payload_bytes, 0xA5);
      const StreamRow encode = run_stream(
          server, client, payload_bytes, frames, batches,
          [&staging](ara::com::TransportBinding& binding, std::uint64_t index) {
            stamp_frame(staging.data(), index);
            binding.notify(kService, kDataEvent, staging);
          });
      std::snprintf(name, sizeof(name), "dataplane/local/encode/%s",
                    class_name(payload_bytes));
      if (!record_row(h, name, encode, local_stall)) {
        break;
      }

      if (payload_bytes == 1024u * 1024u) {
        local_loaned_1mb = loaned.gb_per_s;
        local_encode_1mb = encode.gb_per_s;
      }
    }
    executor.drain();
  }
  delivery_gate(h, "dataplane_local_delivery", local_stall);

  const double loaned_speedup =
      local_encode_1mb > 0.0 ? local_loaned_1mb / local_encode_1mb : 0.0;
  std::snprintf(detail, sizeof(detail),
                "local loaned %.2f GB/s vs encode %.2f GB/s at 1MiB (%.1fx, floor 10x)",
                local_loaned_1mb, local_encode_1mb, loaned_speedup);
  h.gate("dataplane_local_loaned_10x_1mb", loaned_speedup >= 10.0, detail);

  // --- SOME/IP backend: loaned framing vs full encode ------------------------
  // Loaned payloads still cross the loopback wire (one framing copy per
  // frame, counted in dataplane.payload_copies); the win over encode is
  // skipping the payload staging copy and the per-frame vector churn.
  std::string someip_stall;  // first timed-out wait on the SOME/IP backend
  {
    common::ThreadPoolExecutor executor(2);
    net::RtNetwork network(executor);
    ara::com::SomeIpBinding server(network, executor, kServerEp, 0x01);
    ara::com::SomeIpBinding client(network, executor, kClientEp, 0x02);

    for (const std::size_t payload_bytes : kPayloadClasses) {
      const std::uint64_t frames = frames_for(base_frames, payload_bytes);
      char name[96];
      const StreamRow loaned = run_stream(
          server, client, payload_bytes, frames, batches,
          [payload_bytes](ara::com::TransportBinding& binding, std::uint64_t index) {
            send_loaned(binding, payload_bytes, index);
          });
      std::snprintf(name, sizeof(name), "dataplane/someip/loaned/%s",
                    class_name(payload_bytes));
      if (!record_row(h, name, loaned, someip_stall)) {
        break;
      }

      if (payload_bytes == 1024u * 1024u) {
        std::vector<std::uint8_t> staging(payload_bytes, 0xA5);
        const StreamRow encode = run_stream(
            server, client, payload_bytes, frames, batches,
            [&staging](ara::com::TransportBinding& binding, std::uint64_t index) {
              stamp_frame(staging.data(), index);
              binding.notify(kService, kDataEvent, staging);
            });
        std::snprintf(name, sizeof(name), "dataplane/someip/encode/%s",
                      class_name(payload_bytes));
        if (!record_row(h, name, encode, someip_stall)) {
          break;
        }
      }
    }
    executor.drain();
  }
  delivery_gate(h, "dataplane_someip_delivery", someip_stall);
}

}  // namespace dear::bench
