// Vector-backed binary min-heap shared by the scheduler's event queue and
// the simulation kernel.
//
// Differences from std::priority_queue that matter on the hot paths:
//   * min-heap under Less (no inverted comparator gymnastics),
//   * pop_move() extracts the top element by move (priority_queue only
//     exposes a const top(), forcing a const_cast to avoid copying
//     handlers),
//   * reserve()/clear() retain capacity, so a steady-state push/pop
//     workload performs zero allocations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace dear::common {

template <typename T, typename Less = std::less<T>>
class BinaryHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() noexcept { items_.clear(); }

  [[nodiscard]] const T& top() const noexcept { return items_.front(); }

  void push(T item) {
    items_.push_back(std::move(item));
    T value = std::move(items_.back());
    sift_up(items_.size() - 1, value);
  }

  void pop() {
    T value = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) {
      sift_down(0, value);
    }
  }

  /// Removes the first element, in storage order, that satisfies `pred`:
  /// a linear scan plus one sift. Returns false when none does.
  template <typename Pred>
  bool erase_first_if(Pred pred) {
    const auto it = std::find_if(items_.begin(), items_.end(), pred);
    if (it == items_.end()) {
      return false;
    }
    const auto index = static_cast<std::size_t>(it - items_.begin());
    T value = std::move(items_.back());
    items_.pop_back();
    if (index == items_.size()) {
      return true;  // the match was the last slot
    }
    // The displaced last element fills the hole: it moves up when it is
    // smaller than the hole's parent, down otherwise.
    if (index > 0 && less_(value, items_[(index - 1) / 2])) {
      sift_up(index, value);
    } else {
      sift_down(index, value);
    }
    return true;
  }

  /// Removes and returns the smallest element.
  [[nodiscard]] T pop_move() {
    T out = std::move(items_.front());
    pop();
    return out;
  }

 private:
  // Hole-based sifts: one move per level instead of a three-move swap;
  // `value` is moved into the hole at `index` once the heap order holds.
  void sift_up(std::size_t index, T& value) {
    while (index > 0) {
      const std::size_t parent = (index - 1) / 2;
      if (!less_(value, items_[parent])) {
        break;
      }
      items_[index] = std::move(items_[parent]);
      index = parent;
    }
    items_[index] = std::move(value);
  }

  void sift_down(std::size_t index, T& value) {
    const std::size_t count = items_.size();
    for (;;) {
      std::size_t child = 2 * index + 1;
      if (child >= count) {
        break;
      }
      if (child + 1 < count && less_(items_[child + 1], items_[child])) {
        ++child;
      }
      if (!less_(items_[child], value)) {
        break;
      }
      items_[index] = std::move(items_[child]);
      index = child;
    }
    items_[index] = std::move(value);
  }

  std::vector<T> items_;
  [[no_unique_address]] Less less_{};
};

}  // namespace dear::common
