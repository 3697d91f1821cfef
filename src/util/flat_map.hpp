// Data-oriented containers for the shard hot path.
//
// The shard event loop used to walk node-based std containers
// (unordered_map buckets, per-value heap vectors); at millions of events per
// simulated day the walk is memory-bound on pointer chasing, not compute.
// These three containers flatten that state:
//
//  * FlatMap64<V>  — open-addressed hash table over u64 keys (linear probe,
//    backward-shift deletion, fibonacci mixing).  Keys, values, and
//    occupancy live in parallel arrays, so a probe touches one cache line
//    of keys before it ever loads a value.  Iteration order is slot order —
//    a pure function of the insert/erase history, identical on every
//    platform (unlike std::unordered_map's bucket order).
//
//  * PooledArena<T> — block allocator for the small dynamic arrays hanging
//    off map entries (replica lists, per-program segment slots).  Blocks
//    come in power-of-two capacity classes; freed blocks go on an intrusive
//    per-class freelist (the next-pointer lives in the freed block's first
//    bytes), so steady-state churn recycles without touching the heap.
//
//  * RingBuffer<T> — bounded-growth FIFO (the LFU history window).  The
//    backing array doubles geometrically and then never shrinks, so a
//    saturated window pushes and pops allocation-free.
//
// None of these shrink: capacity is a high-water mark by design.  That is
// what makes "zero heap allocations per event after warmup" a property the
// allocation-audit test can assert rather than hope for.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace vodcache::util {

// Open-addressed hash map from std::uint64_t keys to V, linear probing,
// power-of-two capacity, backward-shift deletion (no tombstones, so probe
// chains never rot under churn).  Any u64 key value is legal, including 0.
template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void reserve(std::size_t count) {
    std::size_t needed = kMinCapacity;
    // Grow while `count` would breach the 7/8 load factor.
    while (needed - needed / 8 < count) needed *= 2;
    if (needed > capacity()) rehash(needed);
  }

  // Removes every entry while keeping the slot arrays at their high-water
  // capacity, so a post-clear refill is allocation-free.
  void clear() {
    if (!used_.empty()) std::memset(used_.data(), 0, used_.size());
    size_ = 0;
  }

  [[nodiscard]] V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = ideal_slot(key);; i = next_slot(i)) {
      if (!used_[i]) return nullptr;
      if (keys_[i] == key) return &values_[i];
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  // Inserts a new key (must not be present).  The returned reference stays
  // valid until the next insert (which may rehash) — callers in the hot
  // path consume it immediately.
  V& insert(std::uint64_t key, V value) {
    VODCACHE_EXPECTS(find(key) == nullptr);
    if ((size_ + 1) * 8 > capacity() * 7) {
      rehash(capacity() == 0 ? kMinCapacity : capacity() * 2);
    }
    std::size_t i = ideal_slot(key);
    while (used_[i]) i = next_slot(i);
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = std::move(value);
    ++size_;
    return values_[i];
  }

  // Removes `key` if present; returns whether it was.  Backward-shift
  // deletion: later entries of the probe chain slide down to keep every
  // remaining entry reachable from its ideal slot.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = ideal_slot(key);
    for (;; i = next_slot(i)) {
      if (!used_[i]) return false;
      if (keys_[i] == key) break;
    }
    std::size_t hole = i;
    for (std::size_t j = next_slot(hole);; j = next_slot(j)) {
      if (!used_[j]) break;
      const std::size_t home = ideal_slot(keys_[j]);
      // Can j's entry legally move into the hole?  Only if its home slot
      // does not lie cyclically inside (hole, j] — otherwise the move would
      // put it before its home and break its own probe chain.
      const bool home_in_hole_j = hole <= j ? (hole < home && home <= j)
                                            : (hole < home || home <= j);
      if (!home_in_hole_j) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    --size_;
    return true;
  }

  // Visits every (key, value) in slot order — deterministic across
  // platforms, dependent only on the insert/erase history.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) fn(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }
  [[nodiscard]] std::size_t next_slot(std::size_t i) const {
    return (i + 1) & (capacity() - 1);
  }
  [[nodiscard]] std::size_t ideal_slot(std::uint64_t key) const {
    // Fibonacci mixing spreads keys whose entropy sits in a few low or
    // scattered bits (dense ids, packed pairs); capacity is a power of two.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, V{});
    used_.assign(new_capacity, 0);
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t slot = ideal_slot(old_keys[i]);
      while (used_[slot]) slot = next_slot(slot);
      used_[slot] = 1;
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
      ++size_;
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

// Pooled block allocator: power-of-two capacity classes carved from one
// growing backing vector, recycled through intrusive per-class freelists.
// Handles are offsets (stable across pool growth); raw pointers from
// data() are invalidated by allocate/grow, so callers re-resolve after any
// allocation — the hot paths only ever hold a pointer across reads.
template <typename T>
class PooledArena {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) >= sizeof(std::uint32_t),
                "freelist next-pointer lives inside freed blocks");

 public:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  // Allocates a block of 2^cap_log2 elements; contents uninitialized.
  [[nodiscard]] std::uint32_t allocate(std::uint8_t cap_log2) {
    VODCACHE_EXPECTS(cap_log2 < kClasses);
    std::uint32_t& head = free_heads_[cap_log2];
    if (head != kNull) {
      const std::uint32_t offset = head;
      std::memcpy(&head, static_cast<const void*>(pool_.data() + offset),
                  sizeof(std::uint32_t));
      return offset;
    }
    const std::size_t offset = pool_.size();
    pool_.resize(offset + (std::size_t{1} << cap_log2));
    return static_cast<std::uint32_t>(offset);
  }

  void release(std::uint32_t offset, std::uint8_t cap_log2) {
    VODCACHE_EXPECTS(cap_log2 < kClasses);
    std::uint32_t& head = free_heads_[cap_log2];
    std::memcpy(static_cast<void*>(pool_.data() + offset), &head,
                sizeof(std::uint32_t));
    head = offset;
  }

  // Moves a full block up one capacity class, copying `count` elements.
  [[nodiscard]] std::uint32_t grow(std::uint32_t offset,
                                   std::uint8_t cap_log2,
                                   std::uint32_t count) {
    const std::uint32_t bigger = allocate(cap_log2 + 1);
    std::memcpy(static_cast<void*>(pool_.data() + bigger),
                static_cast<const void*>(pool_.data() + offset),
                count * sizeof(T));
    release(offset, cap_log2);
    return bigger;
  }

  [[nodiscard]] T* data(std::uint32_t offset) { return pool_.data() + offset; }
  [[nodiscard]] const T* data(std::uint32_t offset) const {
    return pool_.data() + offset;
  }

 private:
  static constexpr std::uint8_t kClasses = 32;

  std::vector<T> pool_;
  std::uint32_t free_heads_[kClasses] = {
      kNull, kNull, kNull, kNull, kNull, kNull, kNull, kNull,
      kNull, kNull, kNull, kNull, kNull, kNull, kNull, kNull,
      kNull, kNull, kNull, kNull, kNull, kNull, kNull, kNull,
      kNull, kNull, kNull, kNull, kNull, kNull, kNull, kNull};
};

// FIFO over a power-of-two ring.  Growth doubles the backing store (and
// never shrinks), so a window that has reached its high-water mark cycles
// allocation-free.
template <typename T>
class RingBuffer {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  void push_back(T value) {
    if (count_ == buffer_.size()) grow();
    buffer_[(head_ + count_) & (buffer_.size() - 1)] = std::move(value);
    ++count_;
  }

  [[nodiscard]] const T& front() const {
    VODCACHE_EXPECTS(count_ > 0);
    return buffer_[head_];
  }

  void pop_front() {
    VODCACHE_EXPECTS(count_ > 0);
    head_ = (head_ + 1) & (buffer_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t new_capacity =
        buffer_.empty() ? 16 : buffer_.size() * 2;
    std::vector<T> bigger(new_capacity);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(buffer_[(head_ + i) & (buffer_.size() - 1)]);
    }
    buffer_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace vodcache::util
