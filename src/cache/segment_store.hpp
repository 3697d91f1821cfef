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
// A segment's size has one owner, trace::Catalog::segment_size.  The
// store records only where each replica is and derives the size it
// charges and frees; a fill copies exactly that off the broadcast, as it
// needs the whole slice and no session outlasts its program.
//
// Layout: everything the event loop touches lives in one flat table and
// pooled arrays (util/flat_map.hpp) —
//
//   programs_ : program -> its stored-segment count and a dense block of
//               8-byte segment slots indexed by segment number, so the
//               program is looked up once and a segment is an array
//               index.  A slot holds its segment's one replica's peer
//               itself.  Only a second replica (replicate_on_busy)
//               spills the slot to a contiguous run of peers in a pooled
//               arena.  Either way locate() returns a span without
//               allocating.  An entry exists exactly while the program
//               has a stored segment.
//
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "trace/catalog.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

// The most peers one store (one neighborhood) holds, and the mask of a
// segment slot's low 24 bits, which keep a peer id or a replica count.
inline constexpr std::uint32_t kMaxPeers = (1u << 24) - 1;

struct SegmentKey {
  ProgramId program;
  std::uint32_t index = 0;

  friend bool operator==(SegmentKey, SegmentKey) = default;
};

class SegmentStore {
 public:
  // `peer_count` peers, each contributing `per_peer`; segments are sized
  // from `catalog` (which must outlive the store) at `stream_rate`.
  SegmentStore(std::uint32_t peer_count, DataSize per_peer,
               const trace::Catalog& catalog, DataRate stream_rate);

  // All peers holding a replica of the segment (possibly empty), in the
  // order the replicas were stored.  The span points into the slot or the
  // replica arena: valid until the next store/evict/wipe.
  [[nodiscard]] std::span<const PeerId> locate(SegmentKey key) const;

  // Stores a replica on the peer with most free space that does not already
  // hold one.  Returns the chosen peer, or nullopt if no eligible peer can
  // hold the segment — placement is per-peer, so aggregate free space can
  // exceed its size while no single peer fits it (fragmentation).  The
  // caller is expected to evict and try again.  Replicas of hot
  // segments arise when every existing copy's peer is stream-saturated: the
  // index server tells one more peer to read the (anyway happening) miss
  // broadcast off the wire.
  std::optional<PeerId> store(SegmentKey key);

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
  [[nodiscard]] DataSize capacity() const { return per_peer_ * peer_count_; }
  [[nodiscard]] DataSize free_space() const { return capacity() - used_; }
  [[nodiscard]] DataSize peer_used(PeerId peer) const;
  [[nodiscard]] std::size_t peer_count() const { return peer_count_; }

 private:
  // Slot of one segment, 8 bytes, in one of three forms:
  //  - empty: `word` 0 and no kSpilled tag;
  //  - inline, one replica (every replica unless replicate_on_busy adds a
  //    second): `peer` is the replica's peer and `word` 1, the count;
  //  - spilled: `peer` is no peer but kSpilled | cap_log2 << 24 | count,
  //    and `word` the offset of `count` replica peers in a block of
  //    2^cap_log2.
  // Peer ids stay below kMaxPeers (the constructor checks), so a peer
  // never carries the tag and a count always fits.
  struct SegmentEntry {
    static constexpr std::uint32_t kSpilled = 1u << 31;

    std::uint32_t word = 0;
    PeerId peer;

    [[nodiscard]] bool spilled() const {
      return (peer.value() & kSpilled) != 0;
    }
    [[nodiscard]] bool empty() const { return word == 0 && !spilled(); }
    [[nodiscard]] std::uint32_t count() const {
      return peer.value() & kMaxPeers;
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

  // The program's last segment index and that segment's size in bits;
  // every earlier segment is full_segment_bits_.
  [[nodiscard]] std::pair<std::uint32_t, std::int64_t> last_segment(
      ProgramId program) const;
  // The replicas a slot holds (possibly none).
  [[nodiscard]] std::span<const PeerId> replicas(const SegmentEntry& slot) const;
  // The replicas in the program's slot for `index` (possibly none).
  [[nodiscard]] std::span<const PeerId> replicas(const ProgramEntry& prog,
                                                 std::uint32_t index) const;
  // The program's slot for `index`, allocating or growing its block.
  SegmentEntry& slot_for(ProgramEntry& prog, std::uint32_t index);

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

  std::uint32_t peer_count_;
  DataSize per_peer_;
  DataSize used_;
  const trace::Catalog* catalog_;
  DataRate stream_rate_;
  std::int64_t full_segment_bits_;  // any segment but a program's last

  util::FlatMap64<ProgramEntry> programs_;

  util::PooledArena<SegmentEntry> slots_;
  util::PooledArena<PeerId> replica_peers_;

  // Tournament tree over (free bits, peer), heap-indexed from 1: tree_[i]
  // for i < leaves_ is the winning peer of node i.  free_bits_ holds the
  // leaves, padded to a power of two with -1.
  std::vector<std::int64_t> free_bits_;
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 1;
  std::vector<std::uint32_t> wipe_programs_;  // wipe_peer scratch
};

}  // namespace vodcache::cache
