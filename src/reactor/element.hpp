// Base class for every named element of a reactor program (reactors,
// ports, actions, reactions). Provides the containment hierarchy and
// fully-qualified names used in diagnostics and traces.
//
// Declaring an element allocates nothing of its own. Its fqn is written
// once, at construction, into its environment's set-up arena, and name()
// and fqn() are views of that text: they stay valid for the lifetime of
// the environment, not beyond. Containment is a chain of links through
// the elements themselves (ElementList).
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>

#include "reactor/fwd.hpp"

namespace dear::reactor {

/// An element's name as declared: one part, or a prefix and a member that
/// the environment joins with '.' when it stores the name. A dotted name
/// built from parts (a transactor's "<node>.<Interface>" and "<member>")
/// so needs no temporary string.
struct Name {
  Name(const char* name) : member(name) {}
  Name(std::string_view name) : member(name) {}
  Name(const std::string& name) : member(name) {}
  Name(std::string_view prefix_part, std::string_view member_part)
      : prefix(prefix_part), member(member_part) {}

  std::string_view prefix;
  std::string_view member;
};

class Element {
 public:
  Element(Name name, Reactor* container, Environment& environment);
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  /// The declared name (the last segment of fqn()).
  [[nodiscard]] std::string_view name() const noexcept {
    return fqn_.substr(fqn_.size() - name_size_);
  }

  /// Dotted path from the top-level reactor, e.g. "pipeline.cv.frame_in".
  /// The containment hierarchy is fixed at construction, so the path is
  /// built once then.
  [[nodiscard]] std::string_view fqn() const noexcept { return fqn_; }

  [[nodiscard]] Reactor* container() const noexcept { return container_; }
  [[nodiscard]] Environment& environment() const noexcept { return environment_; }

 private:
  template <typename T>
  friend class ElementList;

  std::string_view fqn_;
  std::size_t name_size_{0};
  Reactor* container_;
  Environment& environment_;
  /// Next element of the same list (ElementList).
  Element* next_{nullptr};
};

/// Append-only list of elements, in registration order, linked through
/// the elements: registering one allocates nothing. Each element is in at
/// most one list (its container's, or the environment's top level).
template <typename T>
class ElementList {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T*;
    using difference_type = std::ptrdiff_t;
    using reference = T*;

    iterator() = default;
    explicit iterator(Element* element) noexcept : element_(element) {}

    T* operator*() const noexcept { return static_cast<T*>(element_); }
    iterator& operator++() noexcept {
      element_ = element_->next_;
      return *this;
    }
    iterator operator++(int) noexcept {
      const iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    Element* element_{nullptr};
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(head_); }
  [[nodiscard]] iterator end() const noexcept { return iterator(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* front() const noexcept { return static_cast<T*>(head_); }

  void push_back(T* element) noexcept {
    Element* link = element;
    (tail_ == nullptr ? head_ : tail_->next_) = link;
    tail_ = link;
    ++size_;
  }

 private:
  Element* head_{nullptr};
  Element* tail_{nullptr};
  std::size_t size_{0};
};

}  // namespace dear::reactor
