// Host-speed calibration kernel.
//
// Hosts shared with other tenants change speed by 10-75% over seconds to
// minutes (cache and core contention, not frequency: a dependent ALU chain
// stays flat while the pipelines slow down). A fixed kernel with the same
// operation mix as the stack — an event heap of std::function handlers,
// hash and ordered map updates, small heap buffers, virtual dispatch —
// slows down by the same factor, so timing a sample relative to the kernel
// run right after it removes the host's share of run-to-run spread.
//
// The kernel uses the standard library only: no change to the repository
// can move it, so it measures the host and nothing else.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "e2e.hpp"

namespace dear::e2e {

namespace {

constexpr int kEvents = 10'000;

struct Stage {
  Stage() = default;
  virtual ~Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  virtual std::uint64_t step(std::uint64_t x) const = 0;
};

struct Scale final : Stage {
  explicit Scale(std::uint64_t k) : k(k) {}
  std::uint64_t step(std::uint64_t x) const override { return x * k + 1; }
  std::uint64_t k;
};

struct Fold final : Stage {
  explicit Fold(std::uint64_t k) : k(k) {}
  std::uint64_t step(std::uint64_t x) const override { return ((x ^ k) >> 1) | 1; }
  std::uint64_t k;
};

struct Event {
  std::int64_t time;
  std::uint64_t sequence;
  std::function<void()> handler;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.time != b.time ? a.time > b.time : a.sequence > b.sequence;
  }
};

volatile std::uint64_t g_calibration_sink = 0;

/// ns per event of one kernel run on the calling thread.
double kernel_ns() {
  std::vector<std::unique_ptr<Stage>> stages;
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      stages.push_back(std::make_unique<Fold>(i * 13 + 5));
    } else {
      stages.push_back(std::make_unique<Scale>(i * 7 + 3));
    }
  }
  std::vector<Event> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> cells;
  std::map<std::uint32_t, std::uint64_t> ordered;
  std::uint64_t sequence = 0;
  std::uint64_t rng = 12345;
  std::uint64_t acc = 1;
  std::int64_t now = 0;
  int done = 0;

  const double start = now_s();
  std::function<void()> spawn = [&] {
    heap.push_back(Event{now + static_cast<std::int64_t>(rng % 1000), sequence++, [&] {
                           rng ^= rng << 13;
                           rng ^= rng >> 7;
                           rng ^= rng << 17;
                           std::vector<std::uint8_t> buffer(48 + rng % 32);
                           for (std::size_t i = 0; i < buffer.size(); i += 8) {
                             buffer[i] = static_cast<std::uint8_t>(acc >> (i % 64));
                           }
                           acc = stages[rng % stages.size()]->step(acc + buffer[0]);
                           cells[rng % 512] += acc;
                           ordered[static_cast<std::uint32_t>(rng % 64)] ^= acc;
                           if (++done < kEvents) {
                             spawn();
                           }
                         }});
    std::push_heap(heap.begin(), heap.end(), Later{});
  };
  for (int i = 0; i < 8; ++i) {
    spawn();
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Event event = std::move(heap.back());
    heap.pop_back();
    now = event.time;
    event.handler();
  }
  const double elapsed = now_s() - start;
  g_calibration_sink = acc + cells.size() + ordered.size();
  return elapsed * 1e9 / kEvents;
}

}  // namespace

double calibration_ns(std::size_t threads) {
  if (threads <= 1) {
    return kernel_ns();
  }
  // One kernel per thread, as many threads as the workload runs. A batch
  // whose workers claim work dynamically finishes at the threads' summed
  // speed, so the per-thread times combine as a harmonic mean.
  std::vector<double> per_thread(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&per_thread, i] { per_thread[i] = kernel_ns(); });
    }
  }
  double speed = 0.0;
  for (const double ns : per_thread) {
    speed += 1.0 / ns;
  }
  return static_cast<double>(threads) / speed;
}

}  // namespace dear::e2e
