#include "cache/segment_store.hpp"

#include <algorithm>
#include <utility>

namespace vodcache::cache {

namespace {
// Smallest slot block: eight 8-byte slots, one cache line.
constexpr std::uint8_t kMinSlotsLog2 = 3;
}  // namespace

SegmentStore::SegmentStore(std::vector<DataSize> peer_contributions)
    : contribution_(std::move(peer_contributions)) {
  VODCACHE_EXPECTS(!contribution_.empty());
  VODCACHE_EXPECTS(contribution_.size() <= SegmentEntry::kCountMask);
  while (leaves_ < contribution_.size()) leaves_ *= 2;
  free_bits_.assign(leaves_, -1);
  tree_.assign(leaves_, 0);
  for (std::size_t i = 0; i < contribution_.size(); ++i) {
    VODCACHE_EXPECTS(contribution_[i] >= DataSize{});
    capacity_ += contribution_[i];
    free_bits_[i] = contribution_[i].bit_count();
  }
  for (std::size_t i = leaves_ - 1; i > 0; --i) pull(i);
}

void SegmentStore::pull(std::size_t node) {
  const std::uint32_t a = winner(2 * node);
  const std::uint32_t b = winner(2 * node + 1);
  // Ties go to the larger id.
  tree_[node] =
      std::pair{free_bits_[a], a} < std::pair{free_bits_[b], b} ? b : a;
}

void SegmentStore::set_free(std::uint32_t peer, std::int64_t free_bits) {
  free_bits_[peer] = free_bits;
  for (std::size_t i = (leaves_ + peer) / 2; i > 0; i /= 2) pull(i);
}

std::optional<PeerId> SegmentStore::best_peer(DataSize bytes,
                                              std::span<const PeerId> exclude) {
  // Mask the peers that already hold a replica, read the root, restore.
  // Masking complements a peer's free bits: negative, so it never fits,
  // and complementing again restores it.
  for (const PeerId peer : exclude) {
    set_free(peer.value(), ~free_bits_[peer.value()]);
  }
  const std::uint32_t best = winner(1);
  const std::int64_t best_free = free_bits_[best];
  for (const PeerId peer : exclude) {
    set_free(peer.value(), ~free_bits_[peer.value()]);
  }
  if (best_free < bytes.bit_count()) return std::nullopt;
  return PeerId{best};
}

SegmentStore::SegmentEntry& SegmentStore::slot_for(ProgramEntry& prog,
                                                   std::uint32_t index) {
  if (prog.stored == 0) {
    prog.cap_log2 = kMinSlotsLog2;
    prog.off = slots_.allocate(prog.cap_log2);
    std::fill_n(slots_.data(prog.off), 1u << prog.cap_log2, SegmentEntry{});
  }
  // A higher segment index grows the block a class at a time; the new
  // upper half starts empty.
  while ((index >> prog.cap_log2) != 0) {
    const std::uint32_t half = 1u << prog.cap_log2;
    prog.off = slots_.grow(prog.off, prog.cap_log2, half);
    ++prog.cap_log2;
    std::fill_n(slots_.data(prog.off) + half, half, SegmentEntry{});
  }
  return slots_.data(prog.off)[index];
}

std::span<const PeerId> SegmentStore::replicas(const ProgramEntry& prog,
                                               std::uint32_t index) const {
  if ((index >> prog.cap_log2) != 0) return {};
  const SegmentEntry& slot = slots_.data(prog.off)[index];
  if (slot.spilled()) return {replica_peers_.data(slot.word), slot.count()};
  // Inline: the slot's own peer, or nothing when the slot is empty.
  return {&slot.peer, slot.word != 0 ? 1u : 0u};
}

std::span<const PeerId> SegmentStore::locate(SegmentKey key) const {
  const ProgramEntry* prog = programs_.find(key.program.value());
  if (prog == nullptr) return {};
  return replicas(*prog, key.index);
}

std::optional<PeerId> SegmentStore::store(SegmentKey key, DataSize bytes) {
  VODCACHE_EXPECTS(bytes > DataSize{});
  ProgramEntry* prog = programs_.find(key.program.value());
  const auto peer = best_peer(
      bytes, prog != nullptr ? replicas(*prog, key.index)
                             : std::span<const PeerId>{});
  if (!peer) return std::nullopt;

  const auto p = peer->value();
  set_free(p, free_bits_[p] - bytes.bit_count());
  used_ += bytes;

  if (prog == nullptr) prog = &programs_.insert(key.program.value(), {});
  SegmentEntry& slot = slot_for(*prog, key.index);
  const std::int64_t bits = bytes.bit_count();
  if (slot.empty()) {
    ++prog->stored;
    if (bits <= std::int64_t{UINT32_MAX}) {
      slot.word = static_cast<std::uint32_t>(bits);
      slot.peer = *peer;
      return peer;
    }
  }
  append_spilled(slot, *peer, bits);
  return peer;
}

void SegmentStore::append_spilled(SegmentEntry& slot, PeerId peer,
                                  std::int64_t bits) {
  // The bytes arena mirrors the peers arena class for class, so the two
  // blocks always share one offset.
  if (!slot.spilled()) {
    // An empty slot takes a one-replica block; an inline one moves its
    // replica to the front of a two-replica block.
    const std::uint8_t cap_log2 = slot.empty() ? 0 : 1;
    const std::uint32_t off = replica_peers_.allocate(cap_log2);
    const std::uint32_t bytes_off = replica_bytes_.allocate(cap_log2);
    VODCACHE_ASSERT(bytes_off == off);
    std::uint32_t count = 0;
    if (!slot.empty()) {
      replica_peers_.data(off)[0] = slot.peer;
      replica_bytes_.data(off)[0] = slot.word;
      count = 1;
    }
    slot.set_spilled(off, cap_log2, count);
  } else if (slot.count() == (1u << slot.cap_log2())) {
    const std::uint32_t old_off = slot.word;
    const std::uint8_t cap_log2 = slot.cap_log2();
    const std::uint32_t off =
        replica_peers_.grow(old_off, cap_log2, slot.count());
    const std::uint32_t bytes_off =
        replica_bytes_.grow(old_off, cap_log2, slot.count());
    VODCACHE_ASSERT(bytes_off == off);
    slot.set_spilled(off, static_cast<std::uint8_t>(cap_log2 + 1), slot.count());
  }
  const std::uint32_t count = slot.count();
  replica_peers_.data(slot.word)[count] = peer;
  replica_bytes_.data(slot.word)[count] = bits;
  slot.set_spilled(slot.word, slot.cap_log2(), count + 1);
}

DataSize SegmentStore::evict_program(ProgramId program) {
  const ProgramEntry* prog = programs_.find(program.value());
  if (prog == nullptr) return DataSize{};
  DataSize freed;
  const SegmentEntry* slots = slots_.data(prog->off);
  for (std::uint32_t i = 0; i < (1u << prog->cap_log2); ++i) {
    const SegmentEntry& slot = slots[i];
    if (!slot.spilled()) {
      if (slot.word == 0) continue;  // empty
      const auto p = slot.peer.value();
      set_free(p, free_bits_[p] + slot.word);
      freed += DataSize::bits(slot.word);
      continue;
    }
    const PeerId* peers = replica_peers_.data(slot.word);
    const std::int64_t* bytes = replica_bytes_.data(slot.word);
    for (std::uint32_t r = 0; r < slot.count(); ++r) {
      const auto p = peers[r].value();
      set_free(p, free_bits_[p] + bytes[r]);
      freed += DataSize::bits(bytes[r]);
    }
    replica_peers_.release(slot.word, slot.cap_log2());
    replica_bytes_.release(slot.word, slot.cap_log2());
  }
  slots_.release(prog->off, prog->cap_log2);
  programs_.erase(program.value());
  used_ -= freed;
  VODCACHE_ENSURES(used_ >= DataSize{});
  return freed;
}

SegmentStore::WipeResult SegmentStore::wipe_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  WipeResult result;
  // Flat-table slot order depends on insert/erase history; visiting
  // programs in ascending id order keeps the wipe — and the emptied-program
  // report driving segment-admission untracking — a pure function of the
  // stored contents.
  wipe_programs_.clear();
  programs_.for_each([this](std::uint64_t key, const ProgramEntry&) {
    wipe_programs_.push_back(static_cast<std::uint32_t>(key));
  });
  std::sort(wipe_programs_.begin(), wipe_programs_.end());

  for (const std::uint32_t program : wipe_programs_) {
    ProgramEntry& prog = *programs_.find(program);
    SegmentEntry* slots = slots_.data(prog.off);
    for (std::uint32_t i = 0; i < (1u << prog.cap_log2); ++i) {
      SegmentEntry& slot = slots[i];
      if (!slot.spilled()) {
        if (slot.word == 0 || slot.peer != peer) continue;
        result.freed += DataSize::bits(slot.word);
        slot = SegmentEntry{};
        --prog.stored;
        continue;
      }
      PeerId* peers = replica_peers_.data(slot.word);
      std::int64_t* bytes = replica_bytes_.data(slot.word);
      const std::uint32_t count = slot.count();
      std::uint32_t r = 0;
      while (r < count && peers[r] != peer) ++r;
      if (r == count) continue;  // this replica set survives the wipe
      result.freed += DataSize::bits(bytes[r]);
      // Survivors keep their insertion order: locate() reports it.
      for (std::uint32_t j = r + 1; j < count; ++j) {
        peers[j - 1] = peers[j];
        bytes[j - 1] = bytes[j];
      }
      if (count == 1) {
        replica_peers_.release(slot.word, slot.cap_log2());
        replica_bytes_.release(slot.word, slot.cap_log2());
        slot = SegmentEntry{};
        --prog.stored;
      } else {
        slot.set_spilled(slot.word, slot.cap_log2(), count - 1);
      }
    }
    if (prog.stored == 0) {
      result.emptied_programs.push_back(ProgramId{program});
      slots_.release(prog.off, prog.cap_log2);
      programs_.erase(program);
    }
  }

  set_free(peer.value(), free_bits_[peer.value()] + result.freed.bit_count());
  used_ -= result.freed;
  VODCACHE_ENSURES(peer_used(peer) >= DataSize{});
  return result;
}

DataSize SegmentStore::peer_used(PeerId peer) const {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  return contribution_[peer.value()] -
         DataSize::bits(free_bits_[peer.value()]);
}

}  // namespace vodcache::cache
