// Recycled byte buffers for the wire paths, with per-thread caches.
//
// BufferPool closes the allocation loop of the ara::com message path. Every
// buffer on it is acquire()d with warm capacity — the typed payload
// (someip::encode_payload), a fan-out or duplicate copy (acquire_copy), the
// SOME/IP wire frame — and release()d where its trip ends: the payload once
// the SOME/IP binding has framed it or the local binding has delivered it,
// the wire frame once the network's receive handler returns. A steady typed
// message stream therefore touches the system allocator zero times, for an
// event fan-out and for a method call plus its response on both transports
// (asserted by the allocation-count regression tests).
//
// The loop balances only if every release()d buffer came from acquire(). A
// plain vector released as if it were pooled adds one buffer to the shelf
// per message, up to the byte budget, and shows up as process memory that
// grows with run length (the pool-balance tests pin this).
//
// acquire/release first hit a small thread-local stash (no atomics): a
// campaign worker's scenarios recycle wire buffers entirely within the
// worker thread, so concurrent scenarios share no cache lines. The stash
// refills from / flushes to the global spinlocked pool in batches, and a
// registered drain returns it when the thread exits. shelf_lock_count()
// counts global-pool lock acquisitions for the regression tests.
//
// Like SmallBlockPool the singleton is leaked so late releases from
// static-storage objects are safe, and the retained set is capped — by a
// byte budget, not a buffer count, so the cap means the same thing for a
// shelf of 256-byte wire buffers and a shelf of megabyte slabs.
//
// Large payloads (camera frames, point clouds) do not travel as vectors at
// all: loan() hands out a refcounted LoanedBuffer backed by a size-classed
// slab shelf (64 KB - 4 MB). The producer writes the slab, publishes it
// immutable, and every consumer retains/releases the same storage; the
// slab returns to its shelf on the last release. This is the zero-copy
// sensor data plane: the transport bindings move the handle, never the
// bytes (bench/suite_dataplane.cpp gates the GB/s and the zero-copy
// claim).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_cache.hpp"
#include "obs/obs.hpp"

namespace dear::common {

namespace detail {

/// Control block + storage of one loaned slab. Producers and consumers
/// synchronize through the channel that carries the handle (queue push /
/// subscriber dispatch), so `size`/`published` need no atomicity — only
/// the refcount is shared-mutable after publication.
struct Slab {
  explicit Slab(std::size_t bytes) : storage(new std::uint8_t[bytes]), capacity(bytes) {}

  std::unique_ptr<std::uint8_t[]> storage;
  std::size_t capacity{0};
  /// Payload bytes, fixed at publish().
  std::size_t size{0};
  bool published{false};
  /// Size-class index, or -1 for an oversize slab that is never shelved.
  int shelf{-1};
  std::atomic<std::uint32_t> refs{1};
  /// Shelf free-list link (valid only while retained by the pool).
  Slab* next{nullptr};
};

}  // namespace detail

class LoanedBuffer;

class BufferPool {
 public:
  static BufferPool& instance() {
    static BufferPool* pool = new BufferPool();
    return *pool;
  }

  /// An empty buffer, with the capacity it retired with (plus a reserve
  /// hint for cold starts).
  [[nodiscard]] std::vector<std::uint8_t> acquire(std::size_t reserve_hint = 0) {
    std::vector<std::uint8_t> buffer;
    if (ThreadCache* cache = ThreadCacheSlot<BufferPool>::get()) {
      if (cache->buffers.empty()) {
        refill(*cache);
      }
      if (!cache->buffers.empty()) {
        buffer = std::move(cache->buffers.back());
        cache->buffers.pop_back();
        buffer.clear();
      }
    } else {
      buffer = acquire_global();
    }
    if (buffer.capacity() < reserve_hint) {
      buffer.reserve(reserve_hint);
    }
    return buffer;
  }

  /// A pooled copy of `bytes`: use it wherever a payload is duplicated, so
  /// the copy is as safe to release() as the original.
  [[nodiscard]] std::vector<std::uint8_t> acquire_copy(const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint8_t> buffer = acquire(bytes.size());
    buffer.assign(bytes.begin(), bytes.end());
    return buffer;
  }

  void release(std::vector<std::uint8_t>&& buffer) noexcept {
    // The capacity ceiling keeps one-off giants (a large frame payload)
    // from pinning process memory for the pool's lifetime; anything larger
    // belongs on the loaned-slab plane (loan() below). The global retained
    // set is additionally bounded by the kMaxRetainedBytes budget.
    if (buffer.capacity() == 0 || buffer.capacity() > kMaxRetainedCapacity) {
      return;  // let the vector free its storage here
    }
    if (ThreadCache* cache = ThreadCacheSlot<BufferPool>::get()) {
      if (cache->buffers.size() >= kThreadCacheBuffers) {
        flush(*cache, kThreadCacheBuffers / 2);
      }
      cache->buffers.push_back(std::move(buffer));
      return;
    }
    release_global(std::move(buffer));
  }

  /// Global-pool lock acquisitions since process start (slow path only).
  /// Thin read over the registry-backed metric (`pool.buffer.shelf_locks`
  /// in snapshots).
  [[nodiscard]] std::uint64_t shelf_lock_count() const {
    return obs::Registry::instance().counter_total(obs::Counter::kPoolBufferShelfLocks);
  }

  // --- loaned large-slab data plane --------------------------------------------

  /// Slab size classes served by the shelves; loans round up to the
  /// smallest class that fits, anything beyond the largest class is
  /// allocated unpooled and freed on last release.
  static constexpr std::size_t kSlabClassBytes[] = {64 * 1024, 256 * 1024, 1024 * 1024,
                                                    4 * 1024 * 1024};
  static constexpr std::size_t kSlabClassCount =
      sizeof(kSlabClassBytes) / sizeof(kSlabClassBytes[0]);
  /// Byte budget across every retained slab. A count cap would be
  /// meaningless here — sixteen retained 4 MiB slabs already cost 64 MiB —
  /// so the shelves retain bytes, not buffers (regression-pinned by the
  /// buffer-pool budget tests).
  static constexpr std::size_t kMaxRetainedSlabBytes = 32 * 1024 * 1024;

  /// Loans a writable slab of at least `bytes` capacity (defined after
  /// LoanedBuffer below). Steady state is allocation-free: the slab comes
  /// off its size-class shelf and returns there on the last release.
  [[nodiscard]] inline LoanedBuffer loan(std::size_t bytes);

  /// Bytes currently parked on the slab shelves (approximate under
  /// concurrent traffic; exact when quiescent).
  [[nodiscard]] std::size_t retained_slab_bytes() const noexcept {
    return retained_slab_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes currently retained on the small-buffer global shelf.
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    return free_bytes_.load(std::memory_order_relaxed);
  }

  /// Called by LoanedBuffer when the last reference drops: shelve the slab
  /// (within the byte budget) or free it.
  void release_slab(detail::Slab* slab) noexcept {
    if (slab->shelf >= 0 &&
        retained_slab_bytes_.load(std::memory_order_relaxed) + slab->capacity <=
            kMaxRetainedSlabBytes) {
      retained_slab_bytes_.fetch_add(slab->capacity, std::memory_order_relaxed);
      SlabShelf& shelf = slab_shelves_[static_cast<std::size_t>(slab->shelf)];
      lock_slab_shelf(shelf);
      slab->next = shelf.head;
      shelf.head = slab;
      unlock_slab_shelf(shelf);
      return;
    }
    delete slab;  // oversize, or the shelves are at their byte budget
  }

  // --- thread-cache plumbing (ThreadCacheSlot owner contract) ------------------

  struct ThreadCache {
    ThreadCache() { buffers.reserve(kThreadCacheBuffers); }
    std::vector<std::vector<std::uint8_t>> buffers;
  };

  static void drain_thread_cache(ThreadCache& cache) noexcept {
    instance().flush(cache, 0);
  }

 public:
  /// Per-buffer capacity ceiling on the small (vector) plane.
  static constexpr std::size_t kMaxRetainedCapacity = 16 * 1024;
  /// Byte budget for the small-buffer global shelf — the old count cap
  /// (1024 buffers) implicitly assumed small buffers; this makes the
  /// worst case it allowed (1024 x 16 KiB = 16 MiB) the explicit bound
  /// for any capacity mix.
  static constexpr std::size_t kMaxRetainedBytes = 16 * 1024 * 1024;

 private:
  /// Buffers stashed per thread — sized for the peak in-flight packet set
  /// of one DES scenario (sim-network queues hold dozens of undelivered
  /// payloads), so a campaign worker's steady state never reaches the
  /// global pool (asserted by the alloc-count shelf-lock tests).
  static constexpr std::size_t kThreadCacheBuffers = 128;
  /// Buffers moved per global-pool interaction.
  static constexpr std::size_t kRefillBatch = 32;

  BufferPool() { free_.reserve(1024); }

  void lock() noexcept {
    obs::count_always(obs::Counter::kPoolBufferShelfLocks);
    while (busy_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { busy_.clear(std::memory_order_release); }

  void refill(ThreadCache& cache) noexcept {
    obs::count_always(obs::Counter::kPoolBufferRefills);
    lock();
    for (std::size_t i = 0; i < kRefillBatch && !free_.empty(); ++i) {
      free_bytes_.fetch_sub(free_.back().capacity(), std::memory_order_relaxed);
      cache.buffers.push_back(std::move(free_.back()));
      free_.pop_back();
    }
    unlock();
  }

  /// Flushes the stash down to `keep` buffers (one lock); buffers over the
  /// global byte budget are freed outside the lock.
  void flush(ThreadCache& cache, std::size_t keep) noexcept {
    obs::count_always(obs::Counter::kPoolBufferFlushes);
    lock();
    while (cache.buffers.size() > keep &&
           free_bytes_.load(std::memory_order_relaxed) + cache.buffers.back().capacity() <=
               kMaxRetainedBytes) {
      free_bytes_.fetch_add(cache.buffers.back().capacity(), std::memory_order_relaxed);
      free_.push_back(std::move(cache.buffers.back()));
      cache.buffers.pop_back();
    }
    unlock();
    while (cache.buffers.size() > keep) {
      cache.buffers.pop_back();  // over budget: storage freed here
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> acquire_global() noexcept {
    std::vector<std::uint8_t> buffer;
    lock();
    if (!free_.empty()) {
      free_bytes_.fetch_sub(free_.back().capacity(), std::memory_order_relaxed);
      buffer = std::move(free_.back());
      free_.pop_back();
      unlock();
      buffer.clear();
      return buffer;
    }
    unlock();
    return buffer;
  }

  void release_global(std::vector<std::uint8_t>&& buffer) noexcept {
    lock();
    if (free_bytes_.load(std::memory_order_relaxed) + buffer.capacity() <= kMaxRetainedBytes) {
      free_bytes_.fetch_add(buffer.capacity(), std::memory_order_relaxed);
      free_.push_back(std::move(buffer));
      unlock();
      return;
    }
    unlock();
    // Over budget: let the vector free its storage here, outside the lock.
  }

  // --- slab machinery ----------------------------------------------------------

  struct SlabShelf {
    std::atomic_flag busy = ATOMIC_FLAG_INIT;
    detail::Slab* head{nullptr};
  };

  static void lock_slab_shelf(SlabShelf& shelf) noexcept {
    obs::count_always(obs::Counter::kPoolBufferShelfLocks);
    while (shelf.busy.test_and_set(std::memory_order_acquire)) {
    }
  }
  static void unlock_slab_shelf(SlabShelf& shelf) noexcept {
    shelf.busy.clear(std::memory_order_release);
  }

  /// Smallest size class holding `bytes`, or kSlabClassCount if oversize.
  [[nodiscard]] static std::size_t slab_class_for(std::size_t bytes) noexcept {
    for (std::size_t cls = 0; cls < kSlabClassCount; ++cls) {
      if (bytes <= kSlabClassBytes[cls]) {
        return cls;
      }
    }
    return kSlabClassCount;
  }

  [[nodiscard]] detail::Slab* acquire_slab(std::size_t bytes) {
    obs::count_always(obs::Counter::kPoolSlabLoans);
    const std::size_t cls = slab_class_for(bytes);
    if (cls < kSlabClassCount) {
      SlabShelf& shelf = slab_shelves_[cls];
      lock_slab_shelf(shelf);
      detail::Slab* slab = shelf.head;
      if (slab != nullptr) {
        shelf.head = slab->next;
      }
      unlock_slab_shelf(shelf);
      if (slab != nullptr) {
        retained_slab_bytes_.fetch_sub(slab->capacity, std::memory_order_relaxed);
        obs::count_always(obs::Counter::kPoolSlabShelfHits);
        slab->next = nullptr;
        slab->size = 0;
        slab->published = false;
        slab->refs.store(1, std::memory_order_relaxed);
        return slab;
      }
      obs::count_always(obs::Counter::kPoolSlabAllocs);
      auto* fresh = new detail::Slab(kSlabClassBytes[cls]);
      fresh->shelf = static_cast<int>(cls);
      return fresh;
    }
    obs::count_always(obs::Counter::kPoolSlabAllocs);
    return new detail::Slab(bytes);  // oversize: shelf stays -1, freed on release
  }

  std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  std::vector<std::vector<std::uint8_t>> free_;
  /// Bytes parked in free_ (updated under lock(); read lock-free).
  std::atomic<std::size_t> free_bytes_{0};
  SlabShelf slab_shelves_[kSlabClassCount];
  /// Bytes parked across the slab shelves (racy-benign budget check: a
  /// concurrent release may briefly overshoot by one slab, never unbounded).
  std::atomic<std::size_t> retained_slab_bytes_{0};
};

/// Refcounted handle to one pooled slab — the unit of the zero-copy sensor
/// data plane. The producer loan()s a slab, writes up to capacity() bytes,
/// then publish()es it immutable; after that any number of consumers may
/// copy the handle (copy = retain, move = transfer) and read data()/size().
/// The slab returns to its shelf when the last handle releases, so a
/// steady-state frame stream allocates nothing.
class LoanedBuffer {
 public:
  LoanedBuffer() noexcept = default;
  LoanedBuffer(const LoanedBuffer& other) noexcept : slab_(other.slab_) {
    if (slab_ != nullptr) {
      slab_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  LoanedBuffer(LoanedBuffer&& other) noexcept : slab_(other.slab_) { other.slab_ = nullptr; }
  LoanedBuffer& operator=(const LoanedBuffer& other) noexcept {
    if (this != &other) {
      if (other.slab_ != nullptr) {
        other.slab_->refs.fetch_add(1, std::memory_order_relaxed);
      }
      reset();
      slab_ = other.slab_;
    }
    return *this;
  }
  LoanedBuffer& operator=(LoanedBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      slab_ = other.slab_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  ~LoanedBuffer() { reset(); }

  /// Drops this reference; the last one returns the slab to its shelf.
  void reset() noexcept {
    if (slab_ != nullptr && slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      BufferPool::instance().release_slab(slab_);
    }
    slab_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept { return slab_ != nullptr; }
  [[nodiscard]] std::uint8_t* data() noexcept { return slab_->storage.get(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return slab_->storage.get(); }
  /// Payload bytes (0 until publish()).
  [[nodiscard]] std::size_t size() const noexcept { return slab_ != nullptr ? slab_->size : 0; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slab_ != nullptr ? slab_->capacity : 0;
  }

  /// Freezes the payload at `bytes` (clamped to capacity). After publish
  /// the bytes are immutable by contract — consumers read the same storage
  /// the producer wrote, so a post-publish write would race every reader.
  void publish(std::size_t bytes) noexcept {
    if (slab_ == nullptr) {
      return;
    }
    slab_->size = bytes < slab_->capacity ? bytes : slab_->capacity;
    slab_->published = true;
    obs::count_always(obs::Counter::kPoolSlabPublishes);
  }
  [[nodiscard]] bool published() const noexcept {
    return slab_ != nullptr && slab_->published;
  }

  /// Outstanding handles on the slab (relaxed read — exact only when the
  /// caller knows no concurrent retain/release is in flight).
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return slab_ != nullptr ? slab_->refs.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class BufferPool;
  explicit LoanedBuffer(detail::Slab* slab) noexcept : slab_(slab) {}

  detail::Slab* slab_{nullptr};
};

inline LoanedBuffer BufferPool::loan(std::size_t bytes) { return LoanedBuffer(acquire_slab(bytes)); }

/// RAII custody of an in-flight pooled buffer: releases the payload back
/// to the BufferPool when destroyed still armed, so a delivery event that
/// dies unrun (kernel or executor torn down mid-flight at scenario end)
/// cannot bleed buffers out of the pool's steady state. take() hands the
/// payload to the receive path and stands the keeper down.
///
/// Copyable only because std::function demands it of its captures; a copy
/// duplicates the bytes and owns its own release (no copy happens on the
/// send paths — handlers are constructed from rvalues).
class PooledBuffer {
 public:
  explicit PooledBuffer(std::vector<std::uint8_t>&& payload) noexcept
      : payload_(std::move(payload)) {}
  PooledBuffer(PooledBuffer&& other) noexcept
      : payload_(std::move(other.payload_)), armed_(other.armed_) {
    other.armed_ = false;
  }
  PooledBuffer(const PooledBuffer& other) : payload_(other.payload_), armed_(other.armed_) {}
  PooledBuffer& operator=(PooledBuffer&&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() {
    if (armed_) {
      BufferPool::instance().release(std::move(payload_));
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    armed_ = false;
    return std::move(payload_);
  }

 private:
  std::vector<std::uint8_t> payload_;
  bool armed_{true};
};

}  // namespace dear::common
