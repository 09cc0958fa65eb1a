// Thread-local cache slot with a registered exit drain.
//
// Both allocation pools (SmallBlockPool, BufferPool) keep a per-thread
// magazine so their steady-state fast paths never touch the shared,
// spinlocked shelves. This helper owns the thread-local plumbing they
// share:
//
//   * the cache pointer itself is a POD thread_local (no destructor), so
//     it stays readable even during thread teardown — a value released by
//     a static-storage object after the cache is gone simply sees nullptr
//     and takes the pool's locked fallback path;
//   * the drain is registered as a separate thread_local RAII object the
//     first time the cache is created: when the thread exits (campaign
//     workers, executor pool threads), the owner's drain hook returns every
//     cached block to the global shelves instead of stranding them;
//   * after the drain has run the slot is marked retired — late calls on
//     that thread never resurrect a cache whose reaper is already gone.
//
// Owner contract: `Owner::ThreadCache` is default-constructible and
// `Owner::drain_thread_cache(ThreadCache&)` returns its contents to the
// owner's global state (called exactly once per thread, at exit).
#pragma once

namespace dear::common {

template <typename Owner>
class ThreadCacheSlot {
 public:
  using Cache = typename Owner::ThreadCache;

  /// The calling thread's cache, created on first use; nullptr once the
  /// thread is past its drain (callers fall back to the locked path).
  [[nodiscard]] static Cache* get() {
    if (cache_ == nullptr) {
      if (retired_) {
        return nullptr;
      }
      cache_ = new Cache();
      thread_local Reaper reaper;
      (void)reaper;
    }
    return cache_;
  }

 private:
  struct Reaper {
    ~Reaper() {
      if (cache_ != nullptr) {
        Owner::drain_thread_cache(*cache_);
        delete cache_;
        cache_ = nullptr;
      }
      retired_ = true;
    }
  };

  static thread_local Cache* cache_;
  static thread_local bool retired_;
};

template <typename Owner>
thread_local typename ThreadCacheSlot<Owner>::Cache* ThreadCacheSlot<Owner>::cache_ = nullptr;

template <typename Owner>
thread_local bool ThreadCacheSlot<Owner>::retired_ = false;

}  // namespace dear::common
