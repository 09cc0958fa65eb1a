// Set-up storage for objects that live and die together.
//
// An ObjectArena constructs objects in blocks of its own memory and
// destroys them all when it is destroyed, last created first. Blocks grow
// geometrically from the first block's size, so creating an object
// allocates only when a block fills up, not once per object. Nothing is
// freed earlier. AppBuilder keeps an app's nodes, bundles, logic reactors
// and proxies in one.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <new>
#include <type_traits>
#include <utility>

namespace dear::common {

class ObjectArena {
 public:
  explicit ObjectArena(std::size_t first_block_bytes) : memory_(first_block_bytes) {}

  ~ObjectArena() {
    for (const Entry* entry = last_; entry != nullptr; entry = entry->previous) {
      entry->destroy(entry->object);
    }
  }

  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  /// Constructs a T that lives until the arena is destroyed.
  template <typename T, typename... Args>
  T& create(Args&&... args) {
    T* object = new (memory_.allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      last_ = new (memory_.allocate(sizeof(Entry), alignof(Entry)))
          Entry{&destroy<T>, object, last_};
    }
    return *object;
  }

  /// The arena's memory, for containers whose storage should live in it.
  [[nodiscard]] std::pmr::memory_resource& memory() noexcept { return memory_; }

 private:
  struct Entry {
    void (*destroy)(void*) noexcept;
    void* object;
    const Entry* previous;
  };

  template <typename T>
  static void destroy(void* object) noexcept {
    static_cast<T*>(object)->~T();
  }

  std::pmr::monotonic_buffer_resource memory_;
  const Entry* last_{nullptr};
};

}  // namespace dear::common
