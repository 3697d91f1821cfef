// Counting placement: a stable grouping of keyed items by key in one
// counting pass and one placement pass, with no comparison sort.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vodcache::util {

// Fills `offsets` with key_count + 1 entries: the items of key k take
// slots [offsets[k], offsets[k + 1]), in input order, and place(slot, i)
// puts item i in its slot.  Every key must be below key_count.
template <typename Place>
void group_by_key(std::span<const std::uint32_t> keys, std::size_t key_count,
                  std::vector<std::uint32_t>& offsets, Place&& place) {
  offsets.assign(key_count + 1, 0);
  for (const std::uint32_t key : keys) ++offsets[key + 1];
  for (std::size_t k = 0; k < key_count; ++k) offsets[k + 1] += offsets[k];
  std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) place(next[keys[i]]++, i);
}

}  // namespace vodcache::util
