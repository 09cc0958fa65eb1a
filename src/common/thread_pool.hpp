// Real-threads executor.
//
// A fixed pool of workers pulling from a shared queue, plus a timer queue
// for delayed tasks. With more than one worker, the completion order of
// posted tasks is decided by the OS scheduler — this is precisely the
// nondeterminism source 1/2 of the paper, and it is what the Figure 1
// experiment measures. now() is wall time relative to construction.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/executor.hpp"

namespace dear::common {

class ThreadPoolExecutor final : public Executor {
 public:
  explicit ThreadPoolExecutor(std::size_t workers);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void post(Task task) override;
  void post_after(Duration delay, Task task) override;
  [[nodiscard]] TimePoint now() const override;

  /// Blocks until every task posted so far (including delayed tasks whose
  /// deadline already passed) has completed and the queue is empty.
  void drain();

  /// Stops the pool: delayed tasks not yet due are dropped, queued tasks
  /// (and any they post) run to completion, then the threads are joined.
  /// Tasks posted afterwards never run, and drain() returns at once.
  /// Idempotent; the destructor calls it. An owner whose other members
  /// are used by pool tasks calls it before destroying them.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

 private:
  struct TimedTask {
    TimePoint due;
    std::uint64_t seq;
    Task task;
    bool operator>(const TimedTask& other) const noexcept {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  void run_worker();
  void timer_loop();

  std::chrono::steady_clock::time_point start_{std::chrono::steady_clock::now()};

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  std::size_t active_{0};
  bool shutdown_{false};

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimedTask, std::vector<TimedTask>, std::greater<>> timers_;
  std::uint64_t timer_seq_{0};
  bool timer_shutdown_{false};

  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace dear::common
