#include "common/thread_pool.hpp"

#include <utility>

namespace dear::common {

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t workers) {
  if (workers == 0) {
    workers = 1;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { run_worker(); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() { shutdown(); }

void ThreadPoolExecutor::shutdown() {
  if (!timer_thread_.joinable()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_shutdown_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPoolExecutor::post(Task task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPoolExecutor::post_after(Duration delay, Task task) {
  if (delay <= 0) {
    post(std::move(task));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timers_.push(TimedTask{now() + delay, timer_seq_++, std::move(task)});
  }
  timer_cv_.notify_all();
}

TimePoint ThreadPoolExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
}

void ThreadPoolExecutor::drain() {
  if (!timer_thread_.joinable()) {
    return;  // shut down: nothing runs any more
  }
  // First wait for the timer queue to flush everything currently due.
  {
    std::unique_lock<std::mutex> lock(timer_mutex_);
    timer_cv_.wait(lock, [this] { return timers_.empty() || timer_shutdown_; });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPoolExecutor::run_worker() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_ && queue_.empty()) {
      return;
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

void ThreadPoolExecutor::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  for (;;) {
    if (timer_shutdown_) {
      return;
    }
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const TimePoint due = timers_.top().due;
    const TimePoint current = now();
    if (current < due) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(due - current));
      continue;
    }
    Task task = std::move(const_cast<TimedTask&>(timers_.top()).task);
    timers_.pop();
    const bool drained = timers_.empty();
    lock.unlock();
    post(std::move(task));
    lock.lock();
    if (drained) {
      timer_cv_.notify_all();  // wake drain()
    }
  }
}

}  // namespace dear::common
