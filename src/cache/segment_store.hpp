// SegmentStore: physical contents of one neighborhood's cooperative cache.
//
// Programs are divided into 5-minute segments and distributed among the
// peers (paper section IV-B.1).  "Placement is not probabilistic.  Instead,
// the index server places data to balance load, and keeps track of where
// each program is located": each incoming segment goes to the peer with the
// most free contributed storage; eviction is whole-program and frees every
// peer's slice.  The store keeps segments only: which programs are
// admitted is the cache cell's scorer's cached set (cache/cache_cell.hpp).
//
// Layout: everything the event loop touches lives in one flat table and
// pooled arrays (util/flat_map.hpp) —
//
//   programs_ : program -> its stored-segment count and a dense block of
//               8-byte segment slots indexed by segment number, so the
//               program is looked up once and a segment is an array
//               index.  A slot holds its segment's one replica itself:
//               the peer and, when it fits 32 bits, the size in bits.
//               Only a second replica (replicate_on_busy) or a larger
//               size spills the slot to a contiguous run of peers in a
//               pooled arena, with the sizes in a parallel arena block.
//               Either way locate() returns a span without allocating.
//               An entry exists exactly while the program has a stored
//               segment.
//
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

struct SegmentKey {
  ProgramId program;
  std::uint32_t index = 0;

  friend bool operator==(SegmentKey, SegmentKey) = default;
};

class SegmentStore {
 public:
  // One entry per peer: its contributed storage.
  explicit SegmentStore(std::vector<DataSize> peer_contributions);

  // All peers holding a replica of the segment (possibly empty), in the
  // order the replicas were stored.  The span points into the slot or the
  // replica arena: valid until the next store/evict/wipe.
  [[nodiscard]] std::span<const PeerId> locate(SegmentKey key) const;

  // Stores a replica on the peer with most free space that does not already
  // hold one.  Returns the chosen peer, or nullopt if no eligible peer can
  // hold `bytes` — placement is per-peer, so aggregate free space can
  // exceed `bytes` while no single peer fits it (fragmentation).  The
  // caller is expected to evict and try again.  Replicas of hot
  // segments arise when every existing copy's peer is stream-saturated: the
  // index server tells one more peer to read the (anyway happening) miss
  // broadcast off the wire.
  std::optional<PeerId> store(SegmentKey key, DataSize bytes);

  // Removes every segment of `program`; returns bytes freed.
  DataSize evict_program(ProgramId program);

  // Failure injection: drop every replica stored on `peer` (disk loss /
  // box swap).  Returns the programs that lost their *last* stored segment
  // (callers running segment-granularity admission need to un-track
  // those) and the bytes freed.  Programs are visited — and emptied
  // programs reported — in ascending id order.
  struct WipeResult {
    DataSize freed;
    std::vector<ProgramId> emptied_programs;
  };
  WipeResult wipe_peer(PeerId peer);

  [[nodiscard]] DataSize used() const { return used_; }
  [[nodiscard]] DataSize capacity() const { return capacity_; }
  [[nodiscard]] DataSize free_space() const { return capacity_ - used_; }
  [[nodiscard]] DataSize peer_used(PeerId peer) const;
  [[nodiscard]] std::size_t peer_count() const { return contribution_.size(); }

 private:
  // Slot of one segment, 8 bytes, in one of three forms:
  //  - empty: `word` 0 and no kSpilled tag;
  //  - inline, one replica whose size fits 32 bits (every replica unless
  //    replicate_on_busy adds a second): `peer` is the replica's peer and
  //    `word` its size in bits, never 0;
  //  - spilled: `peer` is no peer but kSpilled | cap_log2 << 24 | count,
  //    and `word` the offset of `count` replica peers in a block of
  //    2^cap_log2, with their sizes in bits at the same offset in the
  //    parallel bytes arena.
  // Peer ids stay below 2^24 (the constructor checks), so a peer never
  // carries the tag and a count always fits.
  struct SegmentEntry {
    static constexpr std::uint32_t kSpilled = 1u << 31;
    static constexpr std::uint32_t kCountMask = (1u << 24) - 1;

    std::uint32_t word = 0;
    PeerId peer;

    [[nodiscard]] bool spilled() const {
      return (peer.value() & kSpilled) != 0;
    }
    [[nodiscard]] bool empty() const { return word == 0 && !spilled(); }
    [[nodiscard]] std::uint32_t count() const {
      return peer.value() & kCountMask;
    }
    [[nodiscard]] std::uint8_t cap_log2() const {
      return static_cast<std::uint8_t>((peer.value() & ~kSpilled) >> 24);
    }
    void set_spilled(std::uint32_t off, std::uint8_t cap_log2,
                     std::uint32_t count) {
      word = off;
      peer = PeerId{kSpilled | std::uint32_t{cap_log2} << 24 | count};
    }
  };
  static_assert(sizeof(SegmentEntry) == 8);
  // One program: `stored` (> 0) segments in a block of 2^cap_log2 segment
  // slots at slot arena offset `off`.
  struct ProgramEntry {
    std::uint32_t off = 0;
    std::uint32_t stored = 0;
    std::uint8_t cap_log2 = 0;
  };

  // The replicas in the program's slot for `index` (possibly none).
  [[nodiscard]] std::span<const PeerId> replicas(const ProgramEntry& prog,
                                                 std::uint32_t index) const;
  // The program's slot for `index`, allocating or growing its block.
  SegmentEntry& slot_for(ProgramEntry& prog, std::uint32_t index);
  // Adds a replica to a slot that already holds one or whose size needs
  // more than 32 bits, spilling it to (or growing) its arena blocks.
  void append_spilled(SegmentEntry& slot, PeerId peer, std::int64_t bits);

  [[nodiscard]] std::optional<PeerId> best_peer(
      DataSize bytes, std::span<const PeerId> exclude);
  // The peer that wins tree node `node`; nodes from `leaves_` on are the
  // peers themselves.
  [[nodiscard]] std::uint32_t winner(std::size_t node) const {
    return node >= leaves_ ? static_cast<std::uint32_t>(node - leaves_)
                           : tree_[node];
  }
  // Recomputes one internal node from its two children.
  void pull(std::size_t node);
  // Sets the peer's free bits and recomputes its path to the root.
  void set_free(std::uint32_t peer, std::int64_t free_bits);

  std::vector<DataSize> contribution_;
  DataSize capacity_;
  DataSize used_;

  util::FlatMap64<ProgramEntry> programs_;

  util::PooledArena<SegmentEntry> slots_;
  util::PooledArena<PeerId> replica_peers_;
  util::PooledArena<std::int64_t> replica_bytes_;

  // Tournament tree over (free bits, peer), heap-indexed from 1: tree_[i]
  // for i < leaves_ is the winning peer of node i.  free_bits_ holds the
  // leaves, padded to a power of two with -1.
  std::vector<std::int64_t> free_bits_;
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 1;
  std::vector<std::uint32_t> wipe_programs_;  // wipe_peer scratch
};

}  // namespace vodcache::cache
