// Unbounded FIFO queue over one growable ring.
//
// std::deque allocates a map and a first node when it is constructed,
// even if nothing is ever queued.  A RingQueue holds no heap memory until
// its first push; it then allocates a small power-of-two ring and doubles
// it whenever it fills, moving the queued values over in FIFO order.  It
// never shrinks, so a queue that has grown keeps its ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace nocs {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    NOCS_EXPECTS(!empty());
    return slots_[head_];
  }
  const T& front() const {
    NOCS_EXPECTS(!empty());
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    slots_[index(size_)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    NOCS_EXPECTS(!empty());
    head_ = index(1);
    --size_;
  }

  /// Empties the queue, keeping its ring.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Calls visit(value) for every queued value, oldest first.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::uint32_t i = 0; i < size_; ++i) visit(slots_[index(i)]);
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 4;

  std::uint32_t index(std::uint32_t i) const {
    return (head_ + i) & (capacity_ - 1);
  }

  void grow() {
    const std::uint32_t capacity =
        capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    NOCS_EXPECTS(capacity > capacity_);
    auto slots = std::make_unique<T[]>(capacity);
    for (std::uint32_t i = 0; i < size_; ++i)
      slots[i] = std::move(slots_[index(i)]);
    slots_ = std::move(slots);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::uint32_t capacity_ = 0;  // 0 or a power of two
  std::uint32_t head_ = 0;      // ring index of the oldest value
  std::uint32_t size_ = 0;
};

}  // namespace nocs
