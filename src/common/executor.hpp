// Executor abstraction.
//
// The ara::com runtime dispatches incoming method calls and event handlers
// onto an executor. Two implementations exist:
//   * common::ThreadPoolExecutor — real OS threads (genuine scheduler
//     nondeterminism; used for the Figure 1 experiment),
//   * sim::SimExecutor — discrete-event simulation with seeded dispatch
//     jitter (modeled, reproducible nondeterminism; used for Figure 5).
#pragma once

#include <functional>

#include "common/time.hpp"

namespace dear::common {

class Executor {
 public:
  using Task = std::function<void()>;

  virtual ~Executor() = default;

  /// Runs `task` as soon as the executor gets to it.
  virtual void post(Task task) = 0;

  /// Runs `task` no earlier than `delay` from now.
  virtual void post_after(Duration delay, Task task) = 0;

  /// The executor's notion of current physical time.
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// True when every task runs on the one thread that posts them (the DES
  /// executors). Objects built on such an executor are owned by that
  /// thread and may drop their cross-thread locking (common::OwnerMutex).
  [[nodiscard]] virtual bool single_threaded() const noexcept { return false; }
};

}  // namespace dear::common
