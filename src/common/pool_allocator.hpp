// Size-classed pool for small, high-churn heap blocks, with per-thread
// magazine caches.
//
// The reactor runtime allocates one shared_ptr control block (+ inline
// value) per scheduled event; the paper's pitch only holds if that cost is
// amortized away. SmallBlockPool keeps freed blocks on per-size-class
// free lists: after warmup the scheduler hot loop allocates nothing from
// the system allocator (asserted by the allocation-count regression
// tests).
//
// Two tiers:
//   * a thread-local magazine per size class (tcmalloc-style): allocate
//     pops and deallocate pushes with no atomics at all, so concurrent
//     campaign scenarios share no cache lines in steady state;
//   * the global shelves (spinlocked free lists) behind them: magazines
//     refill and flush in batches, and a registered per-thread drain
//     returns a worker's magazines to the shelves when its thread exits —
//     blocks migrate between threads only through the shelves, so a
//     producer/consumer pair costs one shelf lock per kMagazineRefill
//     blocks, not one per block.
//
// shelf_lock_count() counts every shelf spinlock acquisition; the
// allocation-count regression tests assert it stays flat in steady state
// for both a multi-worker campaign and the threaded scheduler.
//
// The singleton is intentionally leaked (never destroyed): values released
// by static-storage objects after main() must not touch a dead pool. All
// pooled memory stays reachable through the instance pointer and the
// thread caches drain back into it, so leak checkers stay quiet.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/thread_cache.hpp"
#include "obs/obs.hpp"

namespace dear::common {

class SmallBlockPool {
 private:
  static constexpr std::size_t kClassBytes[] = {64, 128, 256, 512};
  static constexpr std::size_t kClassCount = sizeof(kClassBytes) / sizeof(kClassBytes[0]);
  /// Cap per shelf: bounds retained memory at ~4 MiB more than the peak
  /// working set while covering every steady-state workload in the repo.
  static constexpr std::size_t kMaxBlocksPerClass = 8192;
  /// Magazine depth per thread and class. Sized so one DES scenario's peak
  /// live event set fits without spilling — the campaign steady state then
  /// performs zero shelf traffic (asserted by the alloc-count tests).
  static constexpr std::size_t kMagazineSlots = 256;
  /// Blocks moved per shelf interaction (refill batch / flush retains this
  /// many): the cross-thread amortization factor.
  static constexpr std::size_t kMagazineRefill = 64;

  struct Magazine {
    std::size_t count{0};
    void* slots[kMagazineSlots];
  };

 public:
  static SmallBlockPool& instance() {
    static SmallBlockPool* pool = new SmallBlockPool();
    return *pool;
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const int size_class = class_for(bytes);
    if (size_class < 0) {
      return ::operator new(bytes);
    }
    if (ThreadCache* cache = ThreadCacheSlot<SmallBlockPool>::get()) {
      Magazine& magazine = cache->magazines[static_cast<std::size_t>(size_class)];
      if (magazine.count > 0) {
        return magazine.slots[--magazine.count];
      }
      refill(magazine, size_class);
      if (magazine.count > 0) {
        return magazine.slots[--magazine.count];
      }
      return ::operator new(kClassBytes[static_cast<std::size_t>(size_class)]);
    }
    return allocate_from_shelf(size_class);
  }

  void deallocate(void* pointer, std::size_t bytes) noexcept {
    const int size_class = class_for(bytes);
    if (size_class < 0) {
      ::operator delete(pointer);
      return;
    }
    if (ThreadCache* cache = ThreadCacheSlot<SmallBlockPool>::get()) {
      Magazine& magazine = cache->magazines[static_cast<std::size_t>(size_class)];
      if (magazine.count == kMagazineSlots) {
        flush(magazine, size_class, kMagazineSlots - kMagazineRefill);
      }
      magazine.slots[magazine.count++] = pointer;
      return;
    }
    deallocate_to_shelf(pointer, size_class);
  }

  /// Shelf spinlock acquisitions since process start (slow path only; the
  /// magazine fast path never touches it). Regression-tested to stay flat
  /// in steady state. Thin read over the registry-backed metric
  /// (`pool.small.shelf_locks` in snapshots).
  [[nodiscard]] std::uint64_t shelf_lock_count() const {
    return obs::Registry::instance().counter_total(obs::Counter::kPoolSmallShelfLocks);
  }

  // --- thread-cache plumbing (ThreadCacheSlot owner contract) ------------------

  /// One thread's magazines. Lives behind a POD thread_local pointer so
  /// late frees during thread teardown fall back to the shelves safely.
  struct ThreadCache {
    Magazine magazines[kClassCount];
  };

  static void drain_thread_cache(ThreadCache& cache) noexcept {
    SmallBlockPool& pool = instance();
    for (std::size_t i = 0; i < kClassCount; ++i) {
      pool.flush(cache.magazines[i], static_cast<int>(i), 0);
    }
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  struct Shelf {
    std::atomic_flag busy = ATOMIC_FLAG_INIT;
    FreeNode* head{nullptr};
    std::size_t count{0};
  };

  SmallBlockPool() = default;

  [[nodiscard]] static constexpr int class_for(std::size_t bytes) noexcept {
    for (std::size_t i = 0; i < kClassCount; ++i) {
      if (bytes <= kClassBytes[i]) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  static void lock(Shelf& shelf) noexcept {
    obs::count_always(obs::Counter::kPoolSmallShelfLocks);
    while (shelf.busy.test_and_set(std::memory_order_acquire)) {
    }
  }
  static void unlock(Shelf& shelf) noexcept { shelf.busy.clear(std::memory_order_release); }

  /// Moves up to kMagazineRefill shelf blocks into the magazine (one lock).
  void refill(Magazine& magazine, int size_class) noexcept {
    obs::count_always(obs::Counter::kPoolSmallRefills);
    Shelf& shelf = shelves_[static_cast<std::size_t>(size_class)];
    lock(shelf);
    while (magazine.count < kMagazineRefill && shelf.head != nullptr) {
      FreeNode* node = shelf.head;
      shelf.head = node->next;
      --shelf.count;
      magazine.slots[magazine.count++] = node;
    }
    unlock(shelf);
  }

  /// Flushes the magazine down to `keep` blocks (one lock); blocks the
  /// shelf cannot retain are freed outside the lock.
  void flush(Magazine& magazine, int size_class, std::size_t keep) noexcept {
    obs::count_always(obs::Counter::kPoolSmallFlushes);
    Shelf& shelf = shelves_[static_cast<std::size_t>(size_class)];
    std::size_t overflow = 0;
    lock(shelf);
    while (magazine.count > keep) {
      if (shelf.count >= kMaxBlocksPerClass) {
        ++overflow;  // slots [count - overflow, count) freed below
        --magazine.count;
        continue;
      }
      auto* node = static_cast<FreeNode*>(magazine.slots[--magazine.count]);
      node->next = shelf.head;
      shelf.head = node;
      ++shelf.count;
    }
    unlock(shelf);
    for (std::size_t i = 0; i < overflow; ++i) {
      ::operator delete(magazine.slots[magazine.count + i]);
    }
  }

  [[nodiscard]] void* allocate_from_shelf(int size_class) noexcept {
    Shelf& shelf = shelves_[static_cast<std::size_t>(size_class)];
    lock(shelf);
    FreeNode* node = shelf.head;
    if (node != nullptr) {
      shelf.head = node->next;
      --shelf.count;
    }
    unlock(shelf);
    if (node != nullptr) {
      return node;
    }
    return ::operator new(kClassBytes[static_cast<std::size_t>(size_class)]);
  }

  void deallocate_to_shelf(void* pointer, int size_class) noexcept {
    Shelf& shelf = shelves_[static_cast<std::size_t>(size_class)];
    lock(shelf);
    if (shelf.count >= kMaxBlocksPerClass) {
      unlock(shelf);
      ::operator delete(pointer);
      return;
    }
    auto* node = static_cast<FreeNode*>(pointer);
    node->next = shelf.head;
    shelf.head = node;
    ++shelf.count;
    unlock(shelf);
  }

  Shelf shelves_[kClassCount];
};

/// Standard allocator facade over SmallBlockPool, usable with
/// std::allocate_shared to pool the control-block + value allocation of
/// event payloads.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(SmallBlockPool::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* pointer, std::size_t n) noexcept {
    SmallBlockPool::instance().deallocate(pointer, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace dear::common
