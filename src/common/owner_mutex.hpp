// A mutex that stops locking once one thread is known to own its data.
//
// A discrete-event run is single-threaded by construction: one kernel
// thread drives the scheduler and every binding of a simulated stack. The
// classes shared with the real-threads runtime still guard their state with
// a mutex; OwnerMutex lets them keep one code path and drop the cost when
// the owner is known. claim_single_owner() — legal only before first use —
// turns lock/unlock/try_lock into no-ops. Ownership is never a setting: the
// owning class derives it from the driver or executor it was given.
//
// Debug builds check the claim: a claimed mutex records whether it is held
// and asserts that no two acquisitions overlap, which is what a second
// thread (or an unexpected re-entry) would cause.
#pragma once

#include <cassert>
#include <mutex>

namespace dear::common {

class OwnerMutex {
 public:
  void claim_single_owner() noexcept { single_owner_ = true; }
  [[nodiscard]] bool single_owner() const noexcept { return single_owner_; }

  void lock() {
    if (single_owner_) {
      note_acquire();
      return;
    }
    mutex_.lock();
  }

  bool try_lock() {
    if (single_owner_) {
      note_acquire();
      return true;
    }
    return mutex_.try_lock();
  }

  void unlock() {
    if (single_owner_) {
#ifndef NDEBUG
      held_ = false;
#endif
      return;
    }
    mutex_.unlock();
  }

  /// The wrapped mutex, for std::condition_variable waits; only meaningful
  /// while unclaimed.
  [[nodiscard]] std::mutex& native() noexcept { return mutex_; }

 private:
  void note_acquire() noexcept {
#ifndef NDEBUG
    assert(!held_ && "single-owner mutex acquired while already held");
    held_ = true;
#endif
  }

  std::mutex mutex_;
  bool single_owner_{false};
#ifndef NDEBUG
  bool held_{false};
#endif
};

}  // namespace dear::common
