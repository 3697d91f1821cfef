// StableVector: an append-only sequence whose elements never move.
//
// std::vector reallocates on growth, which rules it out as the backing
// store for anything appended by one job while earlier entries are read
// concurrently by others (the job-graph executor's demux chain does
// exactly that to the ReplayBoard).  StableVector instead allocates
// geometrically sized blocks — block b holds `kFirstBlock << b` elements —
// and indexes into them with bit math, so:
//
//  * an element's address is fixed for the container's lifetime;
//  * push_back never touches existing blocks, only (rarely) allocates a
//    fresh one and writes the new slot;
//  * the block pointer table is a fixed-size inline array, so appending
//    never reallocates *any* metadata either.
//
// Concurrency contract (deliberately weaker than a concurrent queue, and
// free of atomics): all mutation happens on one logical thread at a time
// (e.g. a chain of dependency-ordered jobs).  A reader on another thread
// may access elements [0, w) without synchronization provided some
// happens-before edge separates the write of element w-1 from the read —
// the job graph's dependency edges provide exactly that.  Readers must
// carry their own bound `w`; calling size() concurrently with push_back is
// a race by design, so don't.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <memory>

#include "util/assert.hpp"

namespace vodcache::util {

template <typename T>
class StableVector {
 public:
  // First block holds 1024 elements; block b holds 1024 << b.  54 blocks
  // cover every index a 64-bit size can reach.
  static constexpr std::size_t kFirstBlockLog2 = 10;
  static constexpr std::size_t kFirstBlock = std::size_t{1} << kFirstBlockLog2;
  static constexpr std::size_t kMaxBlocks = 64 - kFirstBlockLog2;

  StableVector() = default;
  StableVector(StableVector&&) noexcept = default;
  StableVector& operator=(StableVector&&) noexcept = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  void push_back(const T& value) {
    const auto [block, offset] = locate(size_);
    if (blocks_[block] == nullptr) {
      blocks_[block] = std::make_unique<T[]>(block_size(block));
    }
    blocks_[block][offset] = value;
    ++size_;
  }

  // Pre-allocates every block needed for `count` elements (an optimization
  // only — push_back allocates lazily anyway).
  void reserve(std::size_t count) {
    if (count == 0) return;
    const auto [last_block, offset] = locate(count - 1);
    for (std::size_t b = 0; b <= last_block; ++b) {
      if (blocks_[b] == nullptr) {
        blocks_[b] = std::make_unique<T[]>(block_size(b));
      }
    }
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    const auto [block, offset] = locate(i);
    return blocks_[block][offset];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    const auto [block, offset] = locate(i);
    return blocks_[block][offset];
  }

  // Owner-side only; see the concurrency contract above.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const T& back() const {
    VODCACHE_EXPECTS(size_ > 0);
    return (*this)[size_ - 1];
  }

 private:
  // Block b covers indices [(2^b - 1) << 10, (2^(b+1) - 1) << 10).
  static constexpr std::pair<std::size_t, std::size_t> locate(std::size_t i) {
    const std::size_t shifted = (i >> kFirstBlockLog2) + 1;
    const auto block =
        static_cast<std::size_t>(std::bit_width(shifted)) - 1;
    const std::size_t start = ((std::size_t{1} << block) - 1)
                              << kFirstBlockLog2;
    return {block, i - start};
  }
  static constexpr std::size_t block_size(std::size_t block) {
    return kFirstBlock << block;
  }

  std::array<std::unique_ptr<T[]>, kMaxBlocks> blocks_;
  std::size_t size_ = 0;
};

}  // namespace vodcache::util
